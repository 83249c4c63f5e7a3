// Unit tests for src/common: time, units, results, statistics, RNG, plotting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/ascii_plot.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/common/text_scan.h"
#include "src/common/units.h"

namespace sled {
namespace {

TEST(DurationTest, ConstructionAndConversion) {
  EXPECT_EQ(Nanoseconds(175).nanos(), 175);
  EXPECT_EQ(Microseconds(3).nanos(), 3000);
  EXPECT_EQ(Milliseconds(18).nanos(), 18'000'000);
  EXPECT_EQ(Seconds(2).nanos(), 2'000'000'000);
  EXPECT_DOUBLE_EQ(Milliseconds(18).ToSeconds(), 0.018);
  EXPECT_DOUBLE_EQ(Milliseconds(18).ToMillis(), 18.0);
  EXPECT_DOUBLE_EQ(Microseconds(5).ToMicros(), 5.0);
}

TEST(DurationTest, FloatingPointFactoriesRound) {
  EXPECT_EQ(SecondsF(0.5).nanos(), 500'000'000);
  EXPECT_EQ(MillisecondsF(1.5).nanos(), 1'500'000);
  EXPECT_EQ(MicrosecondsF(0.0005).nanos(), 1);  // rounds, not truncates
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Milliseconds(10);
  const Duration b = Milliseconds(4);
  EXPECT_EQ((a + b).nanos(), Milliseconds(14).nanos());
  EXPECT_EQ((a - b).nanos(), Milliseconds(6).nanos());
  EXPECT_EQ((b * 3).nanos(), Milliseconds(12).nanos());
  EXPECT_EQ((a / 2).nanos(), Milliseconds(5).nanos());
  EXPECT_LT(b, a);
  Duration c = a;
  c += b;
  EXPECT_EQ(c, Milliseconds(14));
}

TEST(DurationTest, ToStringPicksUnits) {
  EXPECT_EQ(Nanoseconds(175).ToString(), "175 ns");
  EXPECT_EQ(Microseconds(12).ToString(), "12.000 us");
  EXPECT_EQ(Milliseconds(18).ToString(), "18.000 ms");
  EXPECT_EQ(Seconds(3).ToString(), "3.000 s");
}

TEST(DurationTest, TransferTime) {
  // 1 MB at 1 MB/s = 1 s.
  EXPECT_EQ(TransferTime(1'000'000, 1.0e6).nanos(), Seconds(1).nanos());
  // 4 KiB at 48 MB/s ~= 85.3 us.
  EXPECT_NEAR(TransferTime(4096, 48.0e6).ToMicros(), 85.33, 0.1);
}

TEST(TimePointTest, ClockAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.Now().since_epoch().nanos(), 0);
  clock.Advance(Milliseconds(5));
  clock.Advance(Microseconds(10));
  EXPECT_EQ(clock.Now().since_epoch(), Microseconds(5010));
  const TimePoint t0;
  EXPECT_EQ(clock.Now() - t0, Microseconds(5010));
}

TEST(UnitsTest, SizesAndPageMath) {
  EXPECT_EQ(KiB(4), 4096);
  EXPECT_EQ(MiB(1), 1048576);
  EXPECT_EQ(GiB(1), 1073741824LL);
  EXPECT_EQ(kPageSize, 4096);
  EXPECT_EQ(PagesFor(0), 0);
  EXPECT_EQ(PagesFor(1), 1);
  EXPECT_EQ(PagesFor(4096), 1);
  EXPECT_EQ(PagesFor(4097), 2);
  EXPECT_EQ(PageFloor(5000), 4096);
  EXPECT_EQ(PageCeil(5000), 8192);
  EXPECT_EQ(PageCeil(8192), 8192);
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.error(), Err::kOk);
  EXPECT_EQ(good.value_or(7), 42);

  Result<int> bad = Err::kNoEnt;
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Err::kNoEnt);
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(ResultTest, VoidSpecialization) {
  Result<void> ok = Result<void>::Ok();
  EXPECT_TRUE(ok.ok());
  Result<void> bad = Err::kIo;
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Err::kIo);
}

TEST(ResultTest, ErrNamesAreUnixLike) {
  EXPECT_EQ(ErrName(Err::kNoEnt), "ENOENT");
  EXPECT_EQ(ErrName(Err::kRofs), "EROFS");
  EXPECT_EQ(ErrName(Err::kNotSup), "ENOTSUP");
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return Err::kInval;
  }
  return x / 2;
}

Result<int> QuarterViaMacros(int x) {
  SLED_ASSIGN_OR_RETURN(int h, Half(x));
  SLED_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(QuarterViaMacros(8).value(), 2);
  EXPECT_EQ(QuarterViaMacros(6).error(), Err::kInval);  // fails at second Half
  EXPECT_EQ(QuarterViaMacros(5).error(), Err::kInval);  // fails at first Half
}

TEST(StatsTest, SummarizeBasics) {
  const Summary s = Summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);
  EXPECT_EQ(s.n, 8u);
  EXPECT_GT(s.ci90_half_width, 0.0);
  EXPECT_LT(s.lo(), s.mean);
  EXPECT_GT(s.hi(), s.mean);
}

TEST(StatsTest, SummarizeDegenerateCases) {
  EXPECT_EQ(Summarize({}).n, 0u);
  const Summary one = Summarize({3.0});
  EXPECT_DOUBLE_EQ(one.mean, 3.0);
  EXPECT_DOUBLE_EQ(one.ci90_half_width, 0.0);
  const Summary same = Summarize({2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(same.stddev, 0.0);
  EXPECT_DOUBLE_EQ(same.ci90_half_width, 0.0);
}

TEST(StatsTest, TCriticalValues) {
  EXPECT_NEAR(TCritical90(11), 1.796, 1e-3);  // the paper's n=12 case
  EXPECT_NEAR(TCritical90(1), 6.314, 1e-3);
  EXPECT_NEAR(TCritical90(1000), 1.645, 1e-3);
}

TEST(StatsTest, CdfBasics) {
  Cdf cdf({3.0, 1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.At(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.At(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.At(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.At(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 2.5);
  EXPECT_EQ(cdf.min(), 1.0);
  EXPECT_EQ(cdf.max(), 4.0);
}

TEST(StatsTest, FormatSeriesContainsRows) {
  SeriesPoint p;
  p.x = 64.0;
  p.with_sleds = Summarize({10.0, 12.0});
  p.without_sleds = Summarize({44.0, 46.0});
  const std::string table = FormatSeries("fig", "File size (MB)", "time (s)", {p});
  EXPECT_NE(table.find("64.0"), std::string::npos);
  EXPECT_NE(table.find("speedup"), std::string::npos);
  EXPECT_NEAR(p.speedup(), 45.0 / 11.0, 1e-9);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// The reference splitmix64 outputs for seeds 0 and 1.
TEST(RngTest, SplitMix64MatchesReference) {
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(SplitMix64(1), 0x910a2dec89025cc1ull);
}

TEST(AsciiPlotTest, RendersSeriesAndLegend) {
  PlotSeries s1{"with", '+', {0, 1, 2, 3}, {0, 1, 4, 9}};
  PlotSeries s2{"without", 'x', {0, 1, 2, 3}, {0, 2, 8, 18}};
  PlotOptions opts;
  opts.title = "demo";
  opts.x_label = "x";
  opts.y_label = "y";
  const std::string plot = RenderPlot({s1, s2}, opts);
  EXPECT_NE(plot.find('+'), std::string::npos);
  EXPECT_NE(plot.find('x'), std::string::npos);
  EXPECT_NE(plot.find("with"), std::string::npos);
  EXPECT_NE(plot.find("without"), std::string::npos);
  EXPECT_NE(plot.find("demo"), std::string::npos);
}

TEST(AsciiPlotTest, EmptyDataDoesNotCrash) {
  EXPECT_EQ(RenderPlot({}, PlotOptions{}), "(no data)\n");
}

}  // namespace
}  // namespace sled

namespace sled {
namespace {

TEST(DurationTest, NegativeDurations) {
  const Duration d = Milliseconds(3) - Milliseconds(10);
  EXPECT_EQ(d.nanos(), -7'000'000);
  EXPECT_EQ(d.ToString(), "-7.000 ms");
  EXPECT_LT(d, Duration());
}

TEST(StatsTest, CdfDegenerateSingleSample) {
  Cdf one({5.0});
  EXPECT_DOUBLE_EQ(one.Quantile(0.3), 5.0);
  EXPECT_DOUBLE_EQ(one.At(4.9), 0.0);
  EXPECT_DOUBLE_EQ(one.At(5.0), 1.0);
}

TEST(AsciiPlotTest, SinglePointAndFlatSeries) {
  PlotSeries flat{"flat", '=', {1, 2, 3}, {5, 5, 5}};
  const std::string plot = RenderPlot({flat}, PlotOptions{});
  EXPECT_NE(plot.find('='), std::string::npos);
  PlotSeries dot{"dot", '.', {1}, {1}};
  EXPECT_NE(RenderPlot({dot}, PlotOptions{}).find('.'), std::string::npos);
}

// The count kernel against a byte-at-a-time state machine, split at every
// offset (so both pieces cross the kernel's 64-byte blocks at every phase),
// over all 256 byte values.
TEST(TextScanTest, CountTextMatchesNaiveAtEverySplit) {
  Rng rng(5);
  std::string data;
  for (int i = 0; i < 300; ++i) {
    data.push_back(rng.Bernoulli(0.3) ? " \t\n\v\f\r"[rng.Uniform(0, 5)]
                                      : static_cast<char>(rng.Uniform(0, 255)));
  }
  int64_t lines = 0;
  int64_t words = 0;
  bool in_word = false;
  for (char c : data) {
    const bool space = c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
    EXPECT_EQ(IsTextSpace(c), space);
    lines += c == '\n';
    words += !space && !in_word;
    in_word = !space;
  }
  const std::string_view all(data);
  for (size_t k = 0; k <= all.size(); ++k) {
    const TextCount head = CountText(all.substr(0, k), false);
    const TextCount tail = CountText(all.substr(k), head.in_word);
    EXPECT_EQ(head.lines + tail.lines, lines) << k;
    EXPECT_EQ(head.words + tail.words, words) << k;
    EXPECT_EQ(tail.in_word, in_word) << k;
    EXPECT_EQ(CountNewlines(all.substr(k)), tail.lines) << k;
  }
}

TEST(TextScanTest, SearcherMatchesStringFind) {
  Rng rng(8);
  std::string hay;
  for (int i = 0; i < 2000; ++i) {
    hay.push_back("aab\n"[rng.Uniform(0, 3)]);
  }
  for (const std::string_view needle : {"a", "ab", "aab", "abaab", "bbbbbbbb", "", "\nab"}) {
    const TextSearcher searcher(needle);
    for (size_t from = 0; from <= hay.size() + 1; ++from) {
      const size_t want = needle.empty() ? std::string_view::npos
                                         : std::string_view(hay).find(needle, from);
      ASSERT_EQ(searcher.Find(hay, from), want) << needle << " from " << from;
    }
  }
}

// Find against string_view::find on haystacks of every length 0-200, across
// the filter's 64-byte block edges, from every start. The bytes come from a
// six-byte alphabet holding NUL, bytes >= 0x80 and the needles' end bytes, so
// candidates are dense; each needle is also planted at a random start and at
// the last start a match can have. Haystacks are exact-size heap buffers, so
// a sanitizer build catches a read past the end.
TEST(TextScanTest, FindMatchesStringFindAcrossBlockEdges) {
  using namespace std::string_view_literals;
  constexpr std::string_view kAlphabet = "abX\0\x80\xff"sv;
  const std::string_view needles[] = {
      "a"sv,        "\0"sv,                 "aa"sv,
      "a\x80"sv,    "XNEEDLEX"sv,           "ab\0\xff" "ab\0b"sv,
      "aabXaabaa"sv, "\x80" "ab\0Xab\x80"sv,
  };
  Rng rng(21);
  for (size_t n = 0; n <= 200; ++n) {
    for (const std::string_view needle : needles) {
      for (int plant = 0; plant < 3; ++plant) {  // none, random start, last start
        std::vector<char> hay(n);
        for (char& c : hay) {
          c = kAlphabet[static_cast<size_t>(rng.Uniform(0, kAlphabet.size() - 1))];
        }
        if (plant > 0 && n >= needle.size()) {
          const size_t last = n - needle.size();
          const size_t at = plant == 1 ? static_cast<size_t>(rng.Uniform(0, last)) : last;
          std::copy(needle.begin(), needle.end(), hay.begin() + at);
        }
        const std::string_view h(hay.data(), hay.size());
        const TextSearcher searcher(needle);
        for (size_t from = 0; from <= n + 1; ++from) {
          ASSERT_EQ(searcher.Find(h, from), h.find(needle, from))
              << "n " << n << " needle size " << needle.size() << " plant " << plant << " from "
              << from;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sled
