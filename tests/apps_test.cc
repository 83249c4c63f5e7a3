// Tests for the Unix utilities: wc, grep, find, file_info — the paper's
// modified applications. The key property throughout: SLEDs mode must give
// *identical answers* to plain mode, only faster.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "src/apps/file_info.h"
#include "src/apps/find.h"
#include "src/apps/grep.h"
#include "src/apps/wc.h"
#include "src/common/rng.h"
#include "src/device/disk_device.h"
#include "src/fs/extent_file_system.h"
#include "src/workload/testbed.h"
#include "src/workload/text_gen.h"

namespace sled {
namespace {

using namespace std::string_view_literals;

struct World {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
};

World MakeWorld(int64_t cache_pages = 2048) {
  World w;
  KernelConfig config;
  config.cache.capacity_pages = cache_pages;
  w.kernel = std::make_unique<SimKernel>(config);
  auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
  EXPECT_TRUE(w.kernel->Mount("/", std::move(fs)).ok());
  w.proc = &w.kernel->CreateProcess("test");
  return w;
}

void WriteFile(SimKernel& k, Process& p, const std::string& path, const std::string& data) {
  const int fd = k.Create(p, path).value();
  ASSERT_TRUE(k.Write(p, fd, std::span<const char>(data.data(), data.size())).ok());
  ASSERT_TRUE(k.Close(p, fd).ok());
}

// Reference word counter (the classic wc state machine, single pass).
WcResult NaiveWc(const std::string& data) {
  WcResult r;
  r.bytes = static_cast<int64_t>(data.size());
  bool in_word = false;
  for (char c : data) {
    if (c == '\n') {
      ++r.lines;
    }
    const bool space = c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f';
    if (space) {
      in_word = false;
    } else if (!in_word) {
      in_word = true;
      ++r.words;
    }
  }
  return r;
}

TEST(WcAppTest, MatchesNaiveCounting) {
  World w = MakeWorld();
  const std::string data = "hello world\nthis is  a test\n\none  two\tthree\nno-newline-tail";
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);
  const WcResult expected = NaiveWc(data);
  const WcResult plain = WcApp::Run(*w.kernel, *w.proc, "/f.txt", WcOptions{}).value();
  EXPECT_EQ(plain, expected);
  WcOptions sleds;
  sleds.use_sleds = true;
  EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, "/f.txt", sleds).value(), expected);
}

TEST(WcAppTest, EmptyFile) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/empty", "");
  const WcResult r = WcApp::Run(*w.kernel, *w.proc, "/empty", WcOptions{}).value();
  EXPECT_EQ(r, (WcResult{0, 0, 0}));
  WcOptions sleds;
  sleds.use_sleds = true;
  EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, "/empty", sleds).value(), (WcResult{0, 0, 0}));
}

TEST(WcAppTest, MissingFile) {
  World w = MakeWorld();
  EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, "/nope", WcOptions{}).error(), Err::kNoEnt);
}

// Property: wc plain, with SLEDs, through mmap and as the kCount completion
// program all agree with the naive counter on random bytes, across chunk
// sizes that force words to span chunk seams, with a partially cached file.
// Words include NUL, control bytes next to the whitespace range and bytes
// >= 0x80; separators are runs of all six whitespace bytes. Chunk sizes 1, 3
// and 1000 are not multiples of the count kernel's vector width.
class WcPropertyTest : public ::testing::TestWithParam<std::tuple<int64_t, uint64_t>> {};

TEST_P(WcPropertyTest, AllPathsMatchNaive) {
  const auto [buffer, seed] = GetParam();
  World w = MakeWorld();
  Rng rng(seed);
  constexpr std::string_view kWordBytes = "abcxyz\0\x01\x08\x0e\x1f!~\x7f\x80\xa0\xff"sv;
  constexpr std::string_view kSpaceBytes = " \t\n\v\f\r";
  // Tiny buffers cost one syscall per few bytes; give them a smaller file.
  const int64_t pages = buffer < 64 ? 12 : 64;
  std::string data;
  const int64_t target = pages * kPageSize + rng.Uniform(0, 8191);
  while (static_cast<int64_t>(data.size()) < target) {
    const int64_t word = rng.Uniform(1, 12);
    for (int64_t i = 0; i < word; ++i) {
      data.push_back(kWordBytes[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(kWordBytes.size()) - 1))]);
    }
    const int64_t gap = rng.Bernoulli(0.2) ? rng.Uniform(2, 3) : 1;
    for (int64_t i = 0; i < gap; ++i) {
      data.push_back(kSpaceBytes[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(kSpaceBytes.size()) - 1))]);
    }
  }
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);
  w.kernel->DropCaches();
  // Partially cache a stripe so the SLEDs plan has multiple segments.
  const int fd = w.kernel->Open(*w.proc, "/f.txt").value();
  char b;
  for (int64_t page = pages * 15 / 32; page < pages * 25 / 32; ++page) {
    ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, page * kPageSize, Whence::kSet).ok());
    ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&b, 1)).ok());
  }
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());

  WcOptions plain;
  plain.buffer_bytes = buffer;
  WcOptions sleds = plain;
  sleds.use_sleds = true;
  WcOptions mmap = plain;
  mmap.use_mmap = true;
  WcOptions program = plain;
  program.kernel_program = true;
  const WcResult expected = NaiveWc(data);
  EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, "/f.txt", plain).value(), expected);
  EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, "/f.txt", sleds).value(), expected);
  EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, "/f.txt", mmap).value(), expected);
  EXPECT_EQ(WcApp::Run(*w.kernel, *w.proc, "/f.txt", program).value(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WcPropertyTest,
                         ::testing::Combine(::testing::Values(1, 3, 1000, 1024, 4096, 65536,
                                                              100000),
                                            ::testing::Values(1u, 7u, 99u)));

TEST(GrepAppTest, FindsAllMatchesInOrder) {
  World w = MakeWorld();
  const std::string data =
      "alpha needle one\nbeta line\nneedle again here\ngamma\nlast needle\n";
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);
  GrepOptions options;
  options.line_numbers = true;
  const GrepResult r =
      GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "needle", options).value();
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.matches.size(), 3u);
  EXPECT_EQ(r.matches[0].line, "alpha needle one");
  EXPECT_EQ(r.matches[0].line_number, 1);
  EXPECT_EQ(r.matches[0].line_offset, 0);
  EXPECT_EQ(r.matches[1].line, "needle again here");
  EXPECT_EQ(r.matches[1].line_number, 3);
  EXPECT_EQ(r.matches[2].line, "last needle");
  EXPECT_EQ(r.matches[2].line_number, 5);
}

TEST(GrepAppTest, SledsModeGivesSameMatches) {
  World w = MakeWorld();
  Rng rng(11);
  std::string data;
  for (int i = 0; i < 5000; ++i) {
    if (i % 97 == 0) {
      data += "here is a needle line " + std::to_string(i) + "\n";
    } else {
      for (int j = 0; j < 40; ++j) {
        data.push_back(static_cast<char>('a' + rng.Uniform(0, 25)));
      }
      data.push_back('\n');
    }
  }
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);
  w.kernel->DropCaches();
  // Cache a stripe in the middle so SLEDs order differs from file order.
  const int fd = w.kernel->Open(*w.proc, "/f.txt").value();
  char b;
  for (int64_t page = 20; page < 40; ++page) {
    ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, page * kPageSize, Whence::kSet).ok());
    ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&b, 1)).ok());
  }
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());

  GrepOptions plain;
  plain.line_numbers = true;
  GrepOptions sleds = plain;
  sleds.use_sleds = true;
  const GrepResult a = GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "needle", plain).value();
  const GrepResult c = GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "needle", sleds).value();
  ASSERT_EQ(a.matches.size(), c.matches.size());
  EXPECT_EQ(a.matches, c.matches);
}

TEST(GrepAppTest, QuietModeStopsEarly) {
  World w = MakeWorld();
  std::string data(2 * kPageSize, 'a');
  data += "\nneedle\n";
  data += std::string(60 * kPageSize, 'b');
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);
  w.kernel->DropCaches();
  GrepOptions options;
  options.quiet_first_match = true;
  Process& p = w.kernel->CreateProcess("grepq");
  const GrepResult r = GrepApp::Run(*w.kernel, p, "/f.txt", "needle", options).value();
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.matches.empty());  // -q reports status only
  // Early exit: far fewer faults than the file has pages (the 62-page file
  // would fault everything; -q stops after the first readahead windows).
  EXPECT_LT(p.stats().major_faults, 32);
}

TEST(GrepAppTest, NoMatch) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f.txt", "nothing to see here\n");
  const GrepResult r = GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "needle",
                                    GrepOptions{}).value();
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.matches.empty());
  EXPECT_EQ(GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "", GrepOptions{}).error(), Err::kInval);
}

TEST(GrepAppTest, MatchSpanningChunkSeamWithinRun) {
  World w = MakeWorld();
  // Put the needle exactly across a buffer boundary (buffer = 4096).
  std::string data(4090, 'x');
  data += "needle";  // bytes 4090..4095 cross the 4096 seam
  data += std::string(1000, 'y');
  data += "\n";
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);
  GrepOptions options;
  options.buffer_bytes = 4096;
  const GrepResult r = GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "needle", options).value();
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0].line_offset, 0);
}

TEST(SearchAllTest, FindsAllOccurrences) {
  EXPECT_EQ(SearchAll("abcabcabc", "abc"), (std::vector<size_t>{0, 3, 6}));
  EXPECT_EQ(SearchAll("aaaa", "aa"), (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(SearchAll("abc", "abcd").empty());
  EXPECT_TRUE(SearchAll("abc", "").empty());
  EXPECT_EQ(SearchAll("xneedle", "needle"), (std::vector<size_t>{1}));
}

TEST(GrepAppTest, PatternWithNewlineIsRejected) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f.txt", "one\ntwo\n");
  GrepOptions plain;
  EXPECT_EQ(GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "one\ntwo", plain).error(), Err::kInval);
  GrepOptions sleds;
  sleds.use_sleds = true;
  EXPECT_EQ(GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "\n", sleds).error(), Err::kInval);
  GrepOptions program;
  program.quiet_first_match = true;
  program.kernel_program = true;
  EXPECT_EQ(GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "one\ntwo", program).error(),
            Err::kInval);
}

// Reference grep: split the file into lines and search each one on its own.
GrepResult NaiveGrep(std::string_view data, std::string_view pattern,
                     const GrepOptions& options) {
  std::vector<std::pair<int64_t, std::string_view>> lines;  // offset, text
  for (size_t start = 0; start < data.size();) {
    const size_t end = std::min(data.find('\n', start), data.size());
    lines.emplace_back(static_cast<int64_t>(start), data.substr(start, end - start));
    start = end + 1;
  }
  GrepResult r;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].second.find(pattern) == std::string_view::npos) {
      continue;
    }
    r.found = true;
    if (options.quiet_first_match) {
      return r;
    }
    GrepMatch m;
    m.line_offset = lines[i].first;
    m.line_number = options.line_numbers ? static_cast<int64_t>(i) + 1 : 0;
    m.line = std::string(lines[i].second);
    const size_t before = std::min(i, static_cast<size_t>(options.before_context));
    for (size_t j = i - before; j < i; ++j) {
      m.before.emplace_back(lines[j].second);
    }
    for (size_t j = i + 1; j < lines.size() && j <= i + static_cast<size_t>(options.after_context);
         ++j) {
      m.after.emplace_back(lines[j].second);
    }
    r.matches.push_back(std::move(m));
  }
  return r;
}

// Differential: grep in every mode against NaiveGrep on seeded random text
// where the patterns hit often, across buffer sizes that put line and match
// boundaries on chunk seams. Lines run from empty to longer than a 4 KiB
// buffer, and the file may end without a newline.
class GrepDifferentialTest : public ::testing::TestWithParam<std::tuple<int64_t, uint64_t>> {};

TEST_P(GrepDifferentialTest, AllModesMatchNaive) {
  const auto [buffer, seed] = GetParam();
  World w = MakeWorld();
  Rng rng(seed);
  // Tiny buffers cost one syscall per few bytes; give them a smaller file.
  const int64_t target = buffer < 64 ? 6 * kKiB : 80 * kKiB;
  std::string data;
  while (static_cast<int64_t>(data.size()) < target) {
    const int64_t len = rng.Bernoulli(0.002) ? rng.Uniform(4200, 5000) : rng.Uniform(0, 90);
    for (int64_t i = 0; i < len; ++i) {
      data.push_back("aaabbc  "[rng.Uniform(0, 7)]);
    }
    data.push_back('\n');
  }
  if (rng.Bernoulli(0.5)) {
    data += "ab abab";  // unterminated last line
  }
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);
  w.kernel->DropCaches();
  // Cache a stripe so the SLEDs plan has several runs.
  const int64_t pages = (static_cast<int64_t>(data.size()) + kPageSize - 1) / kPageSize;
  const int fd = w.kernel->Open(*w.proc, "/f.txt").value();
  char b;
  for (int64_t page = pages / 3; page < pages * 2 / 3; ++page) {
    ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, page * kPageSize, Whence::kSet).ok());
    ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&b, 1)).ok());
  }
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());

  // Single letters, a self-overlapping pair, a pattern that repeats its own
  // prefix, and a rare one.
  for (const std::string_view pattern : {"a", "c", "aa", "abab", "cccc"}) {
    SCOPED_TRACE(std::string("pattern ") + std::string(pattern));
    for (const bool use_sleds : {false, true}) {
      SCOPED_TRACE(use_sleds ? "sleds" : "plain");
      GrepOptions base;
      base.buffer_bytes = buffer;
      base.use_sleds = use_sleds;
      GrepOptions numbered = base;
      numbered.line_numbers = true;
      GrepOptions quiet = base;
      quiet.quiet_first_match = true;
      GrepOptions program = quiet;
      program.kernel_program = true;
      for (const GrepOptions& options : {base, numbered, quiet, program}) {
        const GrepResult expected = NaiveGrep(data, pattern, options);
        const GrepResult got = GrepApp::Run(*w.kernel, *w.proc, "/f.txt", pattern, options).value();
        EXPECT_EQ(got.found, expected.found);
        EXPECT_EQ(got.matches, expected.matches);
      }

      GrepOptions context = numbered;
      context.before_context = 2;
      context.after_context = 3;
      const GrepResult expected = NaiveGrep(data, pattern, context);
      const GrepResult got = GrepApp::Run(*w.kernel, *w.proc, "/f.txt", pattern, context).value();
      EXPECT_EQ(got.found, expected.found);
      if (!use_sleds) {
        EXPECT_EQ(got.matches, expected.matches);
        continue;
      }
      // SLEDs context stops at a SLED seam, so it can only lose the lines
      // farthest from the match: before is a suffix and after a prefix of the
      // full context.
      ASSERT_EQ(got.matches.size(), expected.matches.size());
      for (size_t i = 0; i < got.matches.size(); ++i) {
        const GrepMatch& g = got.matches[i];
        const GrepMatch& e = expected.matches[i];
        EXPECT_EQ(g.line_offset, e.line_offset);
        EXPECT_EQ(g.line_number, e.line_number);
        EXPECT_EQ(g.line, e.line);
        ASSERT_LE(g.before.size(), e.before.size());
        EXPECT_TRUE(std::equal(g.before.begin(), g.before.end(),
                               e.before.end() - static_cast<ptrdiff_t>(g.before.size())));
        ASSERT_LE(g.after.size(), e.after.size());
        EXPECT_TRUE(std::equal(g.after.begin(), g.after.end(), e.after.begin()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GrepDifferentialTest,
                         ::testing::Combine(::testing::Values(1, 7, 4096, 65536),
                                            ::testing::Values(3u, 21u)));

TEST(FindAppTest, WalksTreeAndFilters) {
  World w = MakeWorld();
  ASSERT_TRUE(w.kernel->vfs().CreateDir("/src").ok());
  ASSERT_TRUE(w.kernel->vfs().CreateDir("/src/sub").ok());
  WriteFile(*w.kernel, *w.proc, "/src/main.c", "int main() {}\n");
  WriteFile(*w.kernel, *w.proc, "/src/util.h", "#pragma once\n");
  WriteFile(*w.kernel, *w.proc, "/src/sub/deep.c", "void f();\n");
  FindOptions options;
  options.name_contains = ".c";
  const FindResult r = FindApp::Run(*w.kernel, *w.proc, "/src", options).value();
  ASSERT_EQ(r.paths.size(), 2u);
  EXPECT_EQ(r.paths[0], "/src/main.c");
  EXPECT_EQ(r.paths[1], "/src/sub/deep.c");
  EXPECT_EQ(r.files_examined, 3);
}

TEST(FindAppTest, LatencyPredicatePrunesColdFiles) {
  World w = MakeWorld(/*cache_pages=*/8192);
  WriteFile(*w.kernel, *w.proc, "/hot.dat", std::string(MiB(4), 'h'));
  WriteFile(*w.kernel, *w.proc, "/cold.dat", std::string(MiB(4), 'c'));
  w.kernel->DropCaches();
  // Re-read hot.dat so it is cached.
  const int fd = w.kernel->Open(*w.proc, "/hot.dat").value();
  std::vector<char> buf(static_cast<size_t>(MiB(1)));
  while (w.kernel->Read(*w.proc, fd, std::span<char>(buf.data(), buf.size())).value() > 0) {
  }
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());

  // hot.dat delivers in ~0.1 s from memory; cold.dat needs ~0.5 s from disk.
  FindOptions fast;
  fast.latency = ParseLatencyPredicate("-m200").value();
  const FindResult r_fast = FindApp::Run(*w.kernel, *w.proc, "/", fast).value();
  ASSERT_EQ(r_fast.paths.size(), 1u);
  EXPECT_EQ(r_fast.paths[0], "/hot.dat");
  EXPECT_EQ(r_fast.files_pruned_by_latency, 1);

  FindOptions slow;
  slow.latency = ParseLatencyPredicate("+m200").value();
  const FindResult r_slow = FindApp::Run(*w.kernel, *w.proc, "/", slow).value();
  ASSERT_EQ(r_slow.paths.size(), 1u);
  EXPECT_EQ(r_slow.paths[0], "/cold.dat");
}

TEST(LatencyPredicateTest, ParsesPaperSyntax) {
  auto p = ParseLatencyPredicate("+5").value();
  EXPECT_EQ(p.cmp, LatencyCmp::kGreater);
  EXPECT_EQ(p.threshold, Seconds(5));
  p = ParseLatencyPredicate("-3").value();
  EXPECT_EQ(p.cmp, LatencyCmp::kLess);
  EXPECT_EQ(p.threshold, Seconds(3));
  p = ParseLatencyPredicate("7").value();
  EXPECT_EQ(p.cmp, LatencyCmp::kEqual);
  EXPECT_EQ(p.threshold, Seconds(7));
  p = ParseLatencyPredicate("m200").value();
  EXPECT_EQ(p.threshold, Milliseconds(200));
  p = ParseLatencyPredicate("+M15").value();
  EXPECT_EQ(p.cmp, LatencyCmp::kGreater);
  EXPECT_EQ(p.threshold, Milliseconds(15));
  p = ParseLatencyPredicate("-u10").value();
  EXPECT_EQ(p.threshold, Microseconds(10));
  p = ParseLatencyPredicate("U2").value();
  EXPECT_EQ(p.threshold, Microseconds(2));

  EXPECT_FALSE(ParseLatencyPredicate("").ok());
  EXPECT_FALSE(ParseLatencyPredicate("+").ok());
  EXPECT_FALSE(ParseLatencyPredicate("m").ok());
  EXPECT_FALSE(ParseLatencyPredicate("abc").ok());
  EXPECT_FALSE(ParseLatencyPredicate("5x").ok());
  EXPECT_FALSE(ParseLatencyPredicate("--5").ok());
}

TEST(FileInfoAppTest, PanelReportsSledsAndTotal) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f.dat", std::string(8 * kPageSize, 'a'));
  const FileInfoReport report = FileInfoApp::Run(*w.kernel, *w.proc, "/f.dat").value();
  EXPECT_EQ(report.size_bytes, 8 * kPageSize);
  EXPECT_FALSE(report.sleds.empty());
  EXPECT_GT(report.estimated_delivery.nanos(), 0);
  EXPECT_NE(report.panel_text.find("estimated total delivery time"), std::string::npos);
  EXPECT_NE(report.panel_text.find("/f.dat"), std::string::npos);
  EXPECT_EQ(FileInfoApp::Run(*w.kernel, *w.proc, "/missing").error(), Err::kNoEnt);
}

// The headline behaviour: with a warm cache holding the file's tail, wc with
// SLEDs does far less device I/O than wc without.
TEST(AppsIntegrationTest, WcWithSledsUsesCachedTail) {
  Testbed tb = MakeUnixTestbed(StorageKind::kDisk, 42);
  Process& gen = tb.kernel->CreateProcess("gen");
  Rng rng(42);
  // 60 MiB file through a 40 MiB cache.
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, gen, "/data/big.txt", MiB(60), rng).ok());

  auto run_wc = [&](bool use_sleds) {
    Process& p = tb.kernel->CreateProcess(use_sleds ? "wc-sleds" : "wc");
    WcOptions options;
    options.use_sleds = use_sleds;
    EXPECT_TRUE(WcApp::Run(*tb.kernel, p, "/data/big.txt", options).ok());
    return p.stats().major_faults;
  };
  (void)run_wc(false);  // warm
  const int64_t faults_plain = run_wc(false);
  // Reset to the same warm state the plain run leaves behind, then measure
  // the SLEDs run against it.
  const int64_t faults_sleds = run_wc(true);
  // Plain: the LRU pathology refetches everything (~15360 pages). SLEDs:
  // only the non-resident portion (~5120 pages).
  EXPECT_GT(faults_plain, 14000);
  EXPECT_LT(faults_sleds, faults_plain / 2);
}

}  // namespace
}  // namespace sled

namespace sled {
namespace {

TEST(GrepContextTest, BeforeAndAfterContextLines) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f.txt",
            "one\ntwo\nthree needle here\nfour\nfive\nsix\nneedle again\neight\n");
  GrepOptions options;
  options.before_context = 2;
  options.after_context = 1;
  const GrepResult r = GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "needle", options).value();
  ASSERT_EQ(r.matches.size(), 2u);
  EXPECT_EQ(r.matches[0].line, "three needle here");
  EXPECT_EQ(r.matches[0].before, (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(r.matches[0].after, (std::vector<std::string>{"four"}));
  EXPECT_EQ(r.matches[1].line, "needle again");
  EXPECT_EQ(r.matches[1].before, (std::vector<std::string>{"five", "six"}));
  EXPECT_EQ(r.matches[1].after, (std::vector<std::string>{"eight"}));
}

TEST(GrepContextTest, ContextClampedAtFileEdges) {
  World w = MakeWorld();
  WriteFile(*w.kernel, *w.proc, "/f.txt", "needle first\nmid\nneedle last");
  GrepOptions options;
  options.before_context = 3;
  options.after_context = 3;
  const GrepResult r = GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "needle", options).value();
  ASSERT_EQ(r.matches.size(), 2u);
  EXPECT_TRUE(r.matches[0].before.empty());
  // The after-context of the first match includes the second match's line.
  EXPECT_EQ(r.matches[0].after, (std::vector<std::string>{"mid", "needle last"}));
  EXPECT_EQ(r.matches[1].before, (std::vector<std::string>{"needle first", "mid"}));
  EXPECT_TRUE(r.matches[1].after.empty());
}

TEST(GrepContextTest, SledsModeMatchesPlainContext) {
  World w = MakeWorld();
  Rng rng(33);
  std::string data;
  for (int i = 0; i < 4000; ++i) {
    if (i % 271 == 0) {
      data += "needle line " + std::to_string(i) + "\n";
    } else {
      for (int j = 0; j < 30; ++j) {
        data.push_back(static_cast<char>('a' + rng.Uniform(0, 25)));
      }
      data.push_back('\n');
    }
  }
  WriteFile(*w.kernel, *w.proc, "/f.txt", data);
  w.kernel->DropCaches();
  const int fd = w.kernel->Open(*w.proc, "/f.txt").value();
  char b;
  for (int64_t page = 8; page < 20; ++page) {
    ASSERT_TRUE(w.kernel->Lseek(*w.proc, fd, page * kPageSize, Whence::kSet).ok());
    ASSERT_TRUE(w.kernel->Read(*w.proc, fd, std::span<char>(&b, 1)).ok());
  }
  ASSERT_TRUE(w.kernel->Close(*w.proc, fd).ok());

  GrepOptions plain;
  plain.before_context = 1;
  plain.after_context = 1;
  GrepOptions sleds = plain;
  sleds.use_sleds = true;
  const GrepResult a = GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "needle", plain).value();
  const GrepResult c = GrepApp::Run(*w.kernel, *w.proc, "/f.txt", "needle", sleds).value();
  ASSERT_EQ(a.matches.size(), c.matches.size());
  // Matched lines and offsets agree everywhere; context agrees except where
  // a SLED seam cut it off (documented restriction), which can only shorten.
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].line, c.matches[i].line);
    EXPECT_EQ(a.matches[i].line_offset, c.matches[i].line_offset);
    EXPECT_LE(c.matches[i].before.size(), a.matches[i].before.size());
    EXPECT_LE(c.matches[i].after.size(), a.matches[i].after.size());
  }
}

}  // namespace
}  // namespace sled

namespace sled {
namespace {

TEST(FindAppTest, XdevSkipsOtherMounts) {
  Testbed tb = MakeUnixTestbed(StorageKind::kNfs, 55);
  Process& p = tb.kernel->CreateProcess("find");
  Rng rng(55);
  ASSERT_TRUE(tb.kernel->vfs().CreateDir("/local").ok());
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, p, "/local/here.txt", kGenLineLen * 4, rng).ok());
  ASSERT_TRUE(GenerateTextFile(*tb.kernel, p, "/data/remote.txt", kGenLineLen * 4, rng).ok());

  FindOptions everything;
  const FindResult all = FindApp::Run(*tb.kernel, p, "/", everything).value();
  EXPECT_EQ(all.files_examined, 2);

  FindOptions xdev;
  xdev.same_fs_only = true;
  const FindResult local_only = FindApp::Run(*tb.kernel, p, "/", xdev).value();
  ASSERT_EQ(local_only.paths.size(), 1u);
  EXPECT_EQ(local_only.paths[0], "/local/here.txt");
  EXPECT_EQ(local_only.mounts_skipped, 1);
}

}  // namespace
}  // namespace sled
