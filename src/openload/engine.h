// The open-loop traffic engine (DESIGN.md §12): drives millions of
// concurrent simulated clients against SimKernel worlds.
//
// Closed-loop workloads (everything in src/apps) issue the next I/O only
// after the previous one completes, so they can never overload the system —
// offered load collapses to completion rate. This engine decouples the two:
// clients arrive on their own clock (src/openload/arrival.h), requests queue
// FIFO in front of each world's kernel, and the interesting output is the
// latency *distribution* — p50/p99/p999 and the offered-vs-achieved gap —
// not a mean.
//
// Two timelines cooperate per world:
//   * the engine timeline (uint64 ns since scenario start): arrivals live
//     here, on the (deadline, sequence) heap of src/openload/heap_sched.h;
//     one pending arrival per client, so a million clients means a million
//     concurrent timers.
//   * the kernel's simulated clock: the service-time oracle. A request's
//     service time is the kernel-clock delta of actually issuing its reads
//     against the world's storage stack (cache state, readahead, device
//     model, faults included). Requests are serviced in arrival order, so
//     completion = max(arrival, previous completion) + service, and latency
//     = completion - arrival includes the queueing the closed-loop harness
//     could never produce.
//
// Worlds are ShardRuntime units: everything a world does is a pure function
// of (config, world_id), per-world latency histograms are log-bucketed
// obs::LatencyHistograms, and cross-shard aggregation reuses the
// ObsAccumulator merge layer — so an N-shard run's merged CDF is
// byte-identical to the single-shard oracle's.
#ifndef SLEDS_SRC_OPENLOAD_ENGINE_H_
#define SLEDS_SRC_OPENLOAD_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/merge.h"
#include "src/openload/arrival.h"
#include "src/workload/testbed.h"
#include "src/workload/trace.h"

namespace sled {

// How a request's service time is produced.
//   kKernel    — issue real Lseek+Read syscalls on the world's SimKernel and
//                charge the kernel-clock delta (the scenario mode).
//   kSynthetic — a deterministic per-client draw, no kernel at all (the
//                scheduler-benchmark mode: the wall time is the scheduler and
//                the arrival generators, not the page cache).
enum class ServiceModel { kKernel, kSynthetic };

// One replayable read: the (offset, length) stream ExtractReadOps distills
// from a recorded Trace for the kTrace arrival pattern.
struct ReadOp {
  int64_t offset = 0;
  int64_t length = 0;
};

struct OpenLoadConfig {
  // Total client population, split evenly across worlds.
  int64_t clients = 1'000'000;
  int64_t worlds = 8;
  int shards = 0;  // <= 0: ResolveShardCount($SLEDS_SHARDS or hw threads)

  ArrivalPattern pattern = ArrivalPattern::kPoisson;
  // Mean arrivals per client per simulated second. <= 0 selects calibration:
  // each world probes its own mean service time and offers
  // `utilization` * capacity.
  double per_client_rps = 0.0;
  double utilization = 0.85;
  double horizon_s = 20.0;  // arrivals occur in [0, horizon)

  // Request shape (kKernel service): bytes per read, and the probability a
  // request targets the hot eighth of the file (the cache-resident region).
  int64_t request_bytes = 16 * 1024;
  double hot_fraction = 0.9;

  // World shape (kKernel service).
  StorageKind kind = StorageKind::kDisk;
  int64_t file_mb = 24;
  int64_t cache_pages = 3072;

  uint64_t seed = 1;
  ServiceModel service = ServiceModel::kKernel;

  // kSynthetic service: base + (draw & jitter_mask) nanoseconds.
  uint64_t synthetic_base_ns = 800;
  uint64_t synthetic_jitter_mask = 1023;

  // kTrace pattern: the read stream to replay (required; clients start at
  // staggered cursors). Must outlive the run.
  const std::vector<ReadOp>* trace_ops = nullptr;
};

// Integer outcome of one world; operator== is what the run-to-run and
// shard-count identity assertions compare (the histogram compares bucket-wise
// through LatencyHistogram::operator==).
struct OpenLoadWorldResult {
  int64_t world_id = 0;
  int64_t clients = 0;
  int64_t arrivals = 0;
  int64_t completions = 0;
  int64_t errors = 0;            // requests whose syscalls failed (faults)
  int64_t latency_sum_ns = 0;
  int64_t queue_sum_ns = 0;      // waiting for the server, pre-service
  int64_t service_sum_ns = 0;
  int64_t max_latency_ns = 0;
  int64_t last_completion_ns = 0;
  uint64_t checksum = 0;  // order-sensitive fold of every completion
  LatencyHistogram latency;
  LatencyHistogram queue_wait;

  bool operator==(const OpenLoadWorldResult&) const = default;
};

struct ScenarioResult {
  std::vector<OpenLoadWorldResult> worlds;
  int64_t clients = 0;
  int64_t arrivals = 0;
  int64_t completions = 0;
  int64_t errors = 0;
  double horizon_s = 0;
  double offered_rps = 0;   // arrivals / horizon
  double achieved_rps = 0;  // completions / max(horizon, last completion)
  LatencyHistogram latency;      // merged across worlds
  LatencyHistogram queue_wait;   // merged across worlds
  uint64_t checksum = 0;         // xor-fold of world checksums
};

// Distill the kRead/kMmapRead byte ranges (with kLseek bookkeeping) from a
// recorded trace into a replayable stream for ArrivalPattern::kTrace.
std::vector<ReadOp> ExtractReadOps(const Trace& trace);

// Run one world. Pure function of (config, world_id); `acc`, when non-null,
// receives the world's latency/queue histograms and (kKernel) the kernel's
// Observer export, keyed under "openload.*" — the ObsAccumulator merge path
// the shard runtime aggregates through.
OpenLoadWorldResult RunOpenLoadWorld(const OpenLoadConfig& config, int64_t world_id,
                                     ObsAccumulator* acc);

// Run the full scenario on the shard runtime and merge. Deterministic for a
// fixed config: independent of shard count, thread schedule, and wall clock.
ScenarioResult RunOpenLoadScenario(const OpenLoadConfig& config);

// Render the scenario as a BENCH_*.json block body: counts, offered vs
// achieved throughput, p50/p95/p99/p999, and the latency CDF as
// [bucket upper bound ns, cumulative count] pairs over occupied buckets.
std::string ScenarioJson(const ScenarioResult& result);

}  // namespace sled

#endif  // SLEDS_SRC_OPENLOAD_ENGINE_H_
