// Million-client open-loop benchmark (DESIGN.md §12).
//
// Phase A — scheduler: one world, synthetic service, a full million-client
// population (one pending arrival per client, always) driven through the
// engine's (deadline, sequence) heap scheduler. Before any timing, two runs'
// world results — every counter, the order-sensitive completion checksum, and
// the full latency histogram — are asserted identical, and every timed run
// must reproduce them. It reports the best wall time and events per
// microsecond; it is not gated.
//
// Phase B — scenarios: open-loop traffic against real SimKernel worlds on
// the shard runtime, one scenario per arrival pattern (plus an NFS device
// contrast), each emitting offered-vs-achieved throughput, p50/p95/p99/p999,
// and the full latency CDF into the BENCH_openloop.json block.
//
// Environment knobs:
//   SLEDS_OPENLOAD_CLIENTS           phase-A population        (1000000)
//   SLEDS_OPENLOAD_RATE              per-client arrivals/s     (4)
//   SLEDS_OPENLOAD_PATTERN           restrict phase B to one of
//                                    poisson|burst|diurnal     (all)
//   SLEDS_OPENLOAD_SCENARIO_CLIENTS  phase-B population        (40000)
//   SLEDS_OPENLOAD_HORIZON           phase-B horizon, sim s    (5)
//   SLEDS_OPENLOAD_REPEATS           best-of-N timing repeats  (2)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/log.h"
#include "src/openload/engine.h"

namespace sled {
namespace {

struct LoopBenchConfig {
  int64_t clients = 1'000'000;
  double rate = 4.0;
  int64_t scenario_clients = 40000;
  double horizon_s = 5.0;
  int repeats = 2;
  const char* only_pattern = nullptr;

  static LoopBenchConfig FromEnv() {
    LoopBenchConfig c;
    if (const char* env = std::getenv("SLEDS_OPENLOAD_CLIENTS")) {
      c.clients = std::max<int64_t>(1000, atoll(env));
    }
    if (const char* env = std::getenv("SLEDS_OPENLOAD_RATE")) {
      c.rate = std::max(0.1, atof(env));
    }
    if (const char* env = std::getenv("SLEDS_OPENLOAD_SCENARIO_CLIENTS")) {
      c.scenario_clients = std::max<int64_t>(100, atoll(env));
    }
    if (const char* env = std::getenv("SLEDS_OPENLOAD_HORIZON")) {
      c.horizon_s = std::max(0.5, atof(env));
    }
    if (const char* env = std::getenv("SLEDS_OPENLOAD_REPEATS")) {
      c.repeats = std::max(1, atoi(env));
    }
    if (const char* env = std::getenv("SLEDS_OPENLOAD_PATTERN")) {
      c.only_pattern = env;
    }
    return c;
  }
};

OpenLoadConfig SchedulerConfig(const LoopBenchConfig& bench) {
  OpenLoadConfig c;
  c.clients = bench.clients;
  c.worlds = 1;
  c.shards = 1;
  c.service = ServiceModel::kSynthetic;
  c.pattern = ArrivalPattern::kPoisson;
  c.per_client_rps = bench.rate;
  // Phase A measures the scheduler, not simulated queueing: ~rate arrivals
  // per client over one simulated second keeps every client's timer cycling
  // through schedule -> expire while the population stays at exactly
  // `clients` pending timers throughout.
  c.horizon_s = 1.0;
  c.seed = 4242;
  return c;
}

std::string SchedulerPhase(const LoopBenchConfig& bench) {
  const OpenLoadConfig c = SchedulerConfig(bench);

  // Identity first: two runs must agree bucket for bucket before the wall
  // clock means anything.
  const OpenLoadWorldResult expect = RunOpenLoadWorld(c, 0, nullptr);
  SLED_CHECK(RunOpenLoadWorld(c, 0, nullptr) == expect,
             "phase A is not deterministic at %lld clients",
             static_cast<long long>(bench.clients));
  SLED_CHECK(expect.clients == bench.clients && expect.arrivals > bench.clients,
             "phase A underran its population");
  std::fprintf(stderr, "  identity ok: %lld clients, %lld arrivals, checksum %016llx\n",
               static_cast<long long>(expect.clients), static_cast<long long>(expect.arrivals),
               static_cast<unsigned long long>(expect.checksum));

  double wall_us = std::numeric_limits<double>::infinity();
  for (int i = 0; i < bench.repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const OpenLoadWorldResult r = RunOpenLoadWorld(c, 0, nullptr);
    const auto t1 = std::chrono::steady_clock::now();
    SLED_CHECK(r == expect, "timed run diverged from the asserted result");
    wall_us = std::min(wall_us, std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  const double events_per_us = static_cast<double>(expect.arrivals) / wall_us;
  std::fprintf(stderr, "  scheduler %.0f us (%.1f M events/s)\n", wall_us, events_per_us);

  char block[320];
  std::snprintf(block, sizeof(block),
                "  \"sched_1m\": {\"clients\": %lld, \"concurrent_timers\": %lld, "
                "\"events\": %lld, \"wall_us\": %.1f, \"events_per_us\": %.2f, "
                "\"identical\": 1},\n",
                static_cast<long long>(bench.clients), static_cast<long long>(bench.clients),
                static_cast<long long>(expect.arrivals), wall_us, events_per_us);
  return block;
}

struct Scenario {
  const char* name;
  ArrivalPattern pattern;
  StorageKind kind;
};

std::string ScenarioPhase(const LoopBenchConfig& bench) {
  const std::vector<Scenario> all = {
      {"poisson", ArrivalPattern::kPoisson, StorageKind::kDisk},
      {"burst", ArrivalPattern::kBurst, StorageKind::kDisk},
      {"diurnal", ArrivalPattern::kDiurnal, StorageKind::kDisk},
      {"poisson_nfs", ArrivalPattern::kPoisson, StorageKind::kNfs},
  };
  std::string json = "  \"scenarios\": {";
  bool first = true;
  for (const Scenario& s : all) {
    if (bench.only_pattern != nullptr && std::strcmp(bench.only_pattern, s.name) != 0) {
      continue;
    }
    OpenLoadConfig c;
    c.clients = bench.scenario_clients;
    c.worlds = 8;
    c.pattern = s.pattern;
    c.kind = s.kind;
    c.horizon_s = bench.horizon_s;
    c.seed = 99;
    const ScenarioResult r = RunOpenLoadScenario(c);
    SLED_CHECK(r.completions > 0, "scenario %s produced no completions", s.name);
    std::fprintf(stderr,
                 "  %-12s offered %.0f rps, achieved %.0f rps, p50 %.2f ms, p99 %.2f ms, "
                 "p999 %.2f ms\n",
                 s.name, r.offered_rps, r.achieved_rps,
                 static_cast<double>(r.latency.Quantile(0.50).nanos()) * 1e-6,
                 static_cast<double>(r.latency.Quantile(0.99).nanos()) * 1e-6,
                 static_cast<double>(r.latency.Quantile(0.999).nanos()) * 1e-6);
    json += first ? "\n    \"" : ",\n    \"";
    first = false;
    json += s.name;
    json += "\": {";
    json += ScenarioJson(r);
    json += "}";
  }
  json += "\n  }\n";
  return json;
}

void RunOpenLoopSuite() {
  const LoopBenchConfig bench = LoopBenchConfig::FromEnv();
  std::fprintf(stderr,
               "bench_openloop: %lld clients (phase A), %lld scenario clients, "
               "horizon %.1f s, best of %d\n",
               static_cast<long long>(bench.clients),
               static_cast<long long>(bench.scenario_clients), bench.horizon_s, bench.repeats);

  std::string json = "{\n";
  json += "  \"config\": {\"clients\": " + std::to_string(bench.clients) +
          ", \"scenario_clients\": " + std::to_string(bench.scenario_clients) +
          ", \"repeats\": " + std::to_string(bench.repeats) + "},\n";
  json += SchedulerPhase(bench);
  json += ScenarioPhase(bench);
  json += "}";
  PrintBenchMetrics("openloop", json);
}

}  // namespace
}  // namespace sled

int main() {
  sled::RunOpenLoopSuite();
  return 0;
}
