// Property and statistical tests for the open-loop traffic engine and its
// event scheduler.
//
// The (deadline, sequence) heap scheduler is driven through a randomized op
// mix — near and far deadlines, deltas past 2^48 ns, and past deadlines that
// must clamp — and checked against its contract after every advance: fire
// order, FIFO among ties, exactly-once firing and clamping. The arrival
// processes get statistical sanity checks at fixed seeds (empirical rates
// against configured rates), and the engine itself is checked for run-to-run
// determinism and shard-count invariance through the ObsAccumulator merge
// path.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "src/openload/arrival.h"
#include "src/openload/engine.h"
#include "src/openload/heap_sched.h"
#include "src/workload/trace.h"

namespace sled {
namespace {

struct Fired {
  uint64_t deadline;
  int32_t payload;
  bool operator==(const Fired&) const = default;
};

// Schedule and advance at random, and after every advance require the
// scheduler's contract: fired deadlines never decrease, equal deadlines fire
// in schedule order, each timer fires exactly once at its clamped deadline
// and not before, nothing due is left behind, and size()/empty() track the
// pending set.
TEST(HeapScheduler, RandomizedInvariants) {
  for (const uint64_t seed : {1ull, 7ull, 0xdeadbeefull}) {
    uint64_t rng = seed;
    HeapScheduler<int32_t> sched;
    uint64_t now = 0;
    int32_t next_id = 0;
    std::map<int32_t, uint64_t> pending;  // id -> clamped deadline
    Fired last{0, -1};
    auto expire = [&](uint64_t t) {
      sched.ExpireUpTo(t, [&](uint64_t d, int32_t p) {
        auto it = pending.find(p);
        ASSERT_NE(it, pending.end()) << "seed " << seed << ": id " << p << " fired twice";
        ASSERT_EQ(d, it->second) << "seed " << seed << ": id " << p;
        ASSERT_LE(d, t);
        ASSERT_TRUE(d > last.deadline || (d == last.deadline && p > last.payload))
            << "seed " << seed << ": (" << d << ", " << p << ") after (" << last.deadline
            << ", " << last.payload << ")";
        last = {d, p};
        pending.erase(it);
      });
      ASSERT_EQ(sched.now(), t);
      for (const auto& [id, deadline] : pending) {
        ASSERT_GT(deadline, t) << "seed " << seed << ": id " << id << " left due";
      }
    };

    for (int step = 0; step < 30000; ++step) {
      const uint64_t roll = OpenLoadRandom(&rng) % 100;
      if (roll < 55) {
        uint64_t deadline;
        const uint64_t kind = OpenLoadRandom(&rng) % 12;
        if (kind < 4) {
          deadline = now + OpenLoadRandom(&rng) % 256;
        } else if (kind < 7) {
          deadline = now + OpenLoadRandom(&rng) % (uint64_t{1} << 16);
        } else if (kind < 9) {
          deadline = now + OpenLoadRandom(&rng) % (uint64_t{1} << 26);
        } else if (kind < 10) {
          // Far future: beyond 2^48 ns.
          deadline = now + (uint64_t{1} << 48) + OpenLoadRandom(&rng) % (uint64_t{1} << 49);
        } else {
          // The past: clamped to the scheduler's current time.
          deadline = now - (now > 0 ? OpenLoadRandom(&rng) % now : 0);
        }
        sched.Schedule(deadline, next_id);
        pending[next_id] = deadline < now ? now : deadline;
        ++next_id;
      } else {
        const int shift = static_cast<int>(OpenLoadRandom(&rng) % 30);
        now += OpenLoadRandom(&rng) % (uint64_t{1} << shift) + 1;
        expire(now);
      }
      ASSERT_EQ(sched.size(), pending.size());
      ASSERT_EQ(sched.empty(), pending.empty());
    }
    // Drain everything, including the far-future timers.
    now += uint64_t{1} << 50;
    expire(now);
    ASSERT_TRUE(sched.empty());
    ASSERT_TRUE(pending.empty());
  }
}

// Equal deadlines fire in schedule order, near and far.
TEST(HeapScheduler, FifoAmongEqualDeadlines) {
  for (const uint64_t delta : {uint64_t{5}, uint64_t{70000}, uint64_t{1} << 30}) {
    HeapScheduler<int32_t> sched;
    const uint64_t deadline = 1000 + delta;
    std::vector<Fired> expect;
    for (int32_t i = 0; i < 100; ++i) {
      sched.Schedule(deadline, i);
      expect.push_back({deadline, i});
    }
    std::vector<Fired> fired;
    sched.ExpireUpTo(deadline + 1, [&](uint64_t d, int32_t p) { fired.push_back({d, p}); });
    EXPECT_EQ(fired, expect) << "delta " << delta;
  }
}

// A callback scheduling for the current instant joins the same sweep, after
// the timers already due at that instant; one scheduled for a later instant
// within the sweep fires in the same sweep too.
TEST(HeapScheduler, CallbackScheduleJoinsSweep) {
  HeapScheduler<int32_t> sched;
  std::vector<Fired> fired;
  sched.Schedule(100, 0);
  sched.ExpireUpTo(300, [&](uint64_t d, int32_t p) {
    fired.push_back({d, p});
    if (p < 4) {
      sched.Schedule(d, p + 10);      // same instant
      sched.Schedule(d + 50, p + 1);  // later instant, still within the sweep
    }
  });
  const std::vector<Fired> expect = {{100, 0},  {100, 10}, {150, 1},  {150, 11}, {200, 2},
                                     {200, 12}, {250, 3},  {250, 13}, {300, 4}};
  EXPECT_EQ(fired, expect);
  EXPECT_TRUE(sched.empty());
}

// ---- arrival process statistics (fixed seeds, deterministic) ----

double MeanGap(ArrivalPattern pattern, double mean_gap_ns, int n, uint64_t seed,
               double* cv2 = nullptr) {
  ArrivalParams p;
  p.pattern = pattern;
  p.mean_gap_ns = mean_gap_ns;
  ArrivalState s;
  s.rng = seed;
  uint64_t t = 0;
  double sum = 0;
  double sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const uint64_t next = NextArrivalNs(p, &s, t);
    EXPECT_GT(next, t);  // strictly advancing
    const double gap = static_cast<double>(next - t);
    sum += gap;
    sum_sq += gap * gap;
    t = next;
  }
  const double mean = sum / n;
  if (cv2 != nullptr) {
    *cv2 = (sum_sq / n - mean * mean) / (mean * mean);
  }
  return mean;
}

// The per-client stream is the splitmix64 sequence: each draw is SplitMix64
// of the state before the golden-ratio increment.
TEST(ArrivalProcess, OpenLoadRandomIsSplitMix64Sequence) {
  uint64_t state = 0;
  EXPECT_EQ(OpenLoadRandom(&state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(OpenLoadRandom(&state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(OpenLoadRandom(&state), 0x06c45d188009454full);
}

TEST(ArrivalProcess, PoissonEmpiricalRate) {
  double cv2 = 0;
  const double mean = MeanGap(ArrivalPattern::kPoisson, 1e6, 200000, 42, &cv2);
  EXPECT_NEAR(mean, 1e6, 0.02 * 1e6);
  EXPECT_NEAR(cv2, 1.0, 0.05);  // exponential: squared CV = 1
}

TEST(ArrivalProcess, BurstKeepsLongRunRateButClumps) {
  double cv2 = 0;
  const double mean = MeanGap(ArrivalPattern::kBurst, 1e6, 400000, 7, &cv2);
  EXPECT_NEAR(mean, 1e6, 0.10 * 1e6);  // duty-preserving long-run rate
  EXPECT_GT(cv2, 1.5);                 // burstier than Poisson
}

TEST(ArrivalProcess, DiurnalThinningPreservesMeanRate) {
  const double mean = MeanGap(ArrivalPattern::kDiurnal, 1e6, 200000, 11);
  EXPECT_NEAR(mean, 1e6, 0.05 * 1e6);
}

// ---- engine-level differentials ----

TEST(OpenLoadEngine, DeterministicAcrossRuns) {
  for (const ArrivalPattern pattern :
       {ArrivalPattern::kPoisson, ArrivalPattern::kBurst, ArrivalPattern::kDiurnal}) {
    OpenLoadConfig c;
    c.clients = 5000;
    c.worlds = 2;
    c.service = ServiceModel::kSynthetic;
    c.pattern = pattern;
    c.per_client_rps = 20;
    c.horizon_s = 0.5;
    for (int64_t w = 0; w < c.worlds; ++w) {
      const OpenLoadWorldResult a = RunOpenLoadWorld(c, w, nullptr);
      EXPECT_GT(a.arrivals, 0) << ArrivalPatternName(pattern) << " world " << w;
      EXPECT_EQ(a.arrivals, a.completions) << ArrivalPatternName(pattern) << " world " << w;
      EXPECT_EQ(a, RunOpenLoadWorld(c, w, nullptr)) << ArrivalPatternName(pattern) << " world "
                                                    << w;
    }
  }
}

// N-shard scenario == single-shard oracle, through the full kernel service
// path and the ObsAccumulator histogram merge.
TEST(OpenLoadEngine, ShardCountInvariance) {
  OpenLoadConfig c;
  c.clients = 200;
  c.worlds = 4;
  c.file_mb = 4;
  c.cache_pages = 512;
  c.per_client_rps = 10;
  c.horizon_s = 1.0;
  c.shards = 1;
  const ScenarioResult oracle = RunOpenLoadScenario(c);
  c.shards = 2;
  const ScenarioResult sharded = RunOpenLoadScenario(c);
  ASSERT_EQ(oracle.worlds.size(), sharded.worlds.size());
  for (size_t w = 0; w < oracle.worlds.size(); ++w) {
    EXPECT_EQ(oracle.worlds[w], sharded.worlds[w]) << "world " << w;
  }
  EXPECT_EQ(oracle.checksum, sharded.checksum);
  EXPECT_TRUE(oracle.latency == sharded.latency);
  EXPECT_TRUE(oracle.queue_wait == sharded.queue_wait);
  EXPECT_GT(oracle.completions, 0);
  EXPECT_EQ(oracle.latency.count(), oracle.completions);
  EXPECT_EQ(ScenarioJson(oracle), ScenarioJson(sharded));
}

TEST(OpenLoadEngine, ExtractReadOpsFollowsCursors) {
  Trace t;
  t.push_back({TraceOp::kOpen, 3, "/data/f", 0, 0});
  t.push_back({TraceOp::kRead, 3, "", 0, 4096});           // [0, 4096)
  t.push_back({TraceOp::kRead, 3, "", 0, 8192});           // [4096, 12288)
  t.push_back({TraceOp::kLseek, 3, "", 65536, 0});
  t.push_back({TraceOp::kRead, 3, "", 0, 4096});           // [65536, 69632)
  t.push_back({TraceOp::kWrite, 3, "", 0, 1024});          // advances cursor
  t.push_back({TraceOp::kRead, 3, "", 0, 512});            // [70656, 71168)
  t.push_back({TraceOp::kMmapRead, 3, "", 131072, 16384});  // explicit offset
  t.push_back({TraceOp::kClose, 3, "", 0, 0});
  const std::vector<ReadOp> ops = ExtractReadOps(t);
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0].offset, 0);
  EXPECT_EQ(ops[1].offset, 4096);
  EXPECT_EQ(ops[2].offset, 65536);
  EXPECT_EQ(ops[3].offset, 70656);
  EXPECT_EQ(ops[3].length, 512);
  EXPECT_EQ(ops[4].offset, 131072);
  EXPECT_EQ(ops[4].length, 16384);
}

TEST(OpenLoadEngine, TraceArrivalPatternReplays) {
  const std::vector<ReadOp> ops = {{0, 4096}, {16384, 8192}, {65536, 16384}};
  OpenLoadConfig c;
  c.clients = 50;
  c.worlds = 1;
  c.file_mb = 2;
  c.cache_pages = 256;
  c.pattern = ArrivalPattern::kTrace;
  c.trace_ops = &ops;
  c.per_client_rps = 20;
  c.horizon_s = 0.5;
  const OpenLoadWorldResult r = RunOpenLoadWorld(c, 0, nullptr);
  EXPECT_GT(r.arrivals, 0);
  EXPECT_EQ(r.arrivals, r.completions);
  EXPECT_EQ(r.errors, 0);
  EXPECT_EQ(r, RunOpenLoadWorld(c, 0, nullptr));
}

}  // namespace
}  // namespace sled
