// Differential and statistical tests for the open-loop traffic engine
// (cache_diff_test playbook, applied to the timing wheel).
//
// The hierarchical timing wheel's semantics are pinned against a
// (deadline, sequence)-ordered binary-heap oracle under a randomized op mix
// that exercises every structural regime: level-0 wraparound, multi-level
// cascades, far-future overflow parking and past-deadline clamping. The
// arrival processes get statistical sanity checks at fixed seeds (empirical
// rates against configured rates), and the engine itself is
// checked for scheduler-independence (wheel == heap), run-to-run determinism,
// and shard-count invariance through the ObsAccumulator merge path.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/openload/arrival.h"
#include "src/openload/engine.h"
#include "src/openload/heap_sched.h"
#include "src/openload/timing_wheel.h"
#include "src/workload/trace.h"

namespace sled {
namespace {

struct Fired {
  uint64_t deadline;
  int32_t payload;
  bool operator==(const Fired&) const = default;
};

// Drive the wheel and the heap oracle through an identical randomized op mix
// and require identical fire sequences after every advance. Deltas are drawn
// from all structural regimes of the wheel.
TEST(TimingWheelDiff, RandomizedAgainstHeapOracle) {
  for (const uint64_t seed : {1ull, 7ull, 0xdeadbeefull}) {
    uint64_t rng = seed;
    TimingWheel<int32_t> wheel;
    HeapScheduler<int32_t> heap;
    uint64_t now = 0;
    int32_t next_id = 0;
    std::vector<Fired> wheel_fired;
    std::vector<Fired> heap_fired;
    auto expire_both = [&](uint64_t t) {
      wheel.ExpireUpTo(t, [&](uint64_t d, int32_t p) { wheel_fired.push_back({d, p}); });
      heap.ExpireUpTo(t, [&](uint64_t d, int32_t p) { heap_fired.push_back({d, p}); });
      ASSERT_EQ(wheel_fired.size(), heap_fired.size());
      for (size_t i = 0; i < wheel_fired.size(); ++i) {
        ASSERT_EQ(wheel_fired[i], heap_fired[i]) << "seed " << seed << " at fire " << i;
        if (i > 0) {
          ASSERT_GE(wheel_fired[i].deadline, wheel_fired[i - 1].deadline);
        }
      }
      wheel_fired.clear();
      heap_fired.clear();
    };

    for (int step = 0; step < 30000; ++step) {
      const uint64_t roll = OpenLoadRandom(&rng) % 100;
      if (roll < 55) {
        uint64_t deadline;
        const uint64_t kind = OpenLoadRandom(&rng) % 12;
        if (kind < 4) {
          deadline = now + OpenLoadRandom(&rng) % 256;  // level 0, incl. wrap
        } else if (kind < 7) {
          deadline = now + OpenLoadRandom(&rng) % (uint64_t{1} << 16);  // level 1
        } else if (kind < 9) {
          deadline = now + OpenLoadRandom(&rng) % (uint64_t{1} << 26);  // cascades
        } else if (kind < 10) {
          // Far future: beyond the 2^48 direct horizon (overflow parking).
          deadline = now + (uint64_t{1} << 48) + OpenLoadRandom(&rng) % (uint64_t{1} << 49);
        } else {
          // The past: both schedulers clamp to their current time.
          deadline = now - (now > 0 ? OpenLoadRandom(&rng) % now : 0);
        }
        wheel.Schedule(deadline, next_id);
        heap.Schedule(deadline, next_id);
        ++next_id;
      } else {
        const int shift = static_cast<int>(OpenLoadRandom(&rng) % 30);
        now += OpenLoadRandom(&rng) % (uint64_t{1} << shift) + 1;
        expire_both(now);
      }
      ASSERT_EQ(wheel.size(), heap.size());
    }
    // Drain everything, including the overflow parkers (forces repeated
    // top-level re-cascades until their true deadlines come into range).
    now += uint64_t{1} << 50;
    expire_both(now);
    ASSERT_TRUE(wheel.empty());
    ASSERT_TRUE(heap.empty());
  }
}

// Equal deadlines fire in schedule order, both when they stay on level 0 and
// when they reach their slot through multi-level cascades.
TEST(TimingWheelDiff, FifoAmongEqualDeadlines) {
  for (const uint64_t delta : {uint64_t{5}, uint64_t{70000}, uint64_t{1} << 30}) {
    TimingWheel<int32_t> wheel;
    const uint64_t deadline = 1000 + delta;
    for (int32_t i = 0; i < 100; ++i) {
      wheel.Schedule(deadline, i);
    }
    int32_t expect = 0;
    wheel.ExpireUpTo(deadline + 1, [&](uint64_t d, int32_t p) {
      EXPECT_EQ(d, deadline);
      EXPECT_EQ(p, expect++);
    });
    EXPECT_EQ(expect, 100);
  }
}

// A callback scheduling for the current instant joins the same sweep, after
// the batch it was scheduled from — on both schedulers, identically.
TEST(TimingWheelDiff, CallbackScheduleJoinsSweep) {
  TimingWheel<int32_t> wheel;
  HeapScheduler<int32_t> heap;
  std::vector<Fired> wf;
  std::vector<Fired> hf;
  wheel.Schedule(100, 0);
  heap.Schedule(100, 0);
  wheel.ExpireUpTo(300, [&](uint64_t d, int32_t p) {
    wf.push_back({d, p});
    if (p < 4) {
      wheel.Schedule(d, p + 10);       // same instant: fires this sweep
      wheel.Schedule(d + 50, p + 1);   // later instant: also within the sweep
    }
  });
  heap.ExpireUpTo(300, [&](uint64_t d, int32_t p) {
    hf.push_back({d, p});
    if (p < 4) {
      heap.Schedule(d, p + 10);
      heap.Schedule(d + 50, p + 1);
    }
  });
  EXPECT_EQ(wf, hf);
  EXPECT_EQ(wf.size(), 9u);
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

TEST(OpenLoadEngine, WheelMatchesHeapOnEveryPattern) {
  for (const ArrivalPattern pattern :
       {ArrivalPattern::kPoisson, ArrivalPattern::kBurst, ArrivalPattern::kDiurnal}) {
    OpenLoadConfig c;
    c.clients = 5000;
    c.worlds = 2;
    c.service = ServiceModel::kSynthetic;
    c.pattern = pattern;
    c.per_client_rps = 20;
    c.horizon_s = 0.5;
    OpenLoadConfig heap_c = c;
    heap_c.scheduler = SchedulerKind::kHeap;
    for (int64_t w = 0; w < c.worlds; ++w) {
      const OpenLoadWorldResult a = RunOpenLoadWorld(c, w, nullptr);
      const OpenLoadWorldResult b = RunOpenLoadWorld(heap_c, w, nullptr);
      EXPECT_EQ(a, b) << ArrivalPatternName(pattern) << " world " << w;
      EXPECT_GT(a.arrivals, 0);
      EXPECT_EQ(a.arrivals, a.completions);
    }
  }
}

TEST(OpenLoadEngine, DeterministicAcrossRuns) {
  OpenLoadConfig c;
  c.clients = 3000;
  c.worlds = 3;
  c.service = ServiceModel::kSynthetic;
  c.pattern = ArrivalPattern::kBurst;
  c.per_client_rps = 40;
  c.horizon_s = 0.25;
  EXPECT_EQ(RunOpenLoadWorld(c, 1, nullptr), RunOpenLoadWorld(c, 1, nullptr));
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
