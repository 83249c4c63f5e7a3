// The benchmark harness: run-loop, host-time spans, metric maps and the
// result line every workload shares.
//
// A workload is a deterministic *unit* of work: a pure function of the seed
// that builds its testbeds (set-up), runs the measured phase and checks every
// output. The harness repeats the unit until the run's time budget is spent
// and reports the lower decile of the host times. Simulated values must come out
// bit-identical on every repetition; a repetition that differs counts as a
// failed check. That repetition is the identity oracle later optimisations
// lean on.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace sled {
class SimKernel;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  double value = 0.0;
  std::string unit;

  bool operator==(const Metric&) const = default;
};
using MetricMap = std::map<std::string, Metric>;

// Layers the benchmark times from its own files, around calls into each
// module's public functions.
enum class Layer : int {
  kGen,         // GenerateTextFile
  kMarkerMove,  // MoveMarkerScrubbed
  kWc,          // WcApp::Run
  kGrep,        // GrepApp::Run
  kOpen,
  kClose,
  kRead,
  kWrite,
  kLseek,
  kFsync,
  kFstat,
  kReaddir,
  kSledsGet,
  kFlushAll,   // SimKernel::FlushAllDirty at the end of a world
  kObsExport,  // Observer/ObsAccumulator export, absorb and merge
  kDriver,     // the benchmark's own op choice and output checks
  kCount
};

// The syscalls the benchmark reports, in Layer order from kOpen, with the
// name the kernel's observer records them under.
struct SyscallName {
  Layer layer;
  const char* metric;  // kernel.<metric>_s / kernel.<metric>_calls
  const char* kernel;  // syscall.<kernel> histogram
};
inline constexpr std::array<SyscallName, 9> kSyscalls = {{
    {Layer::kOpen, "open", "open"},
    {Layer::kClose, "close", "close"},
    {Layer::kRead, "read", "read"},
    {Layer::kWrite, "write", "write"},
    {Layer::kLseek, "lseek", "lseek"},
    {Layer::kFsync, "fsync", "fsync"},
    {Layer::kFstat, "fstat", "fstat"},
    {Layer::kReaddir, "readdir", "readdir"},
    {Layer::kSledsGet, "sleds_get", "ioctl_sleds_get"},
}};

// Host-time accumulator. Off, Time() is a plain call: no clock reads, so an
// untraced run pays nothing for the instrumentation.
class Spans {
 public:
  explicit Spans(bool on = false) : on_(on) {}

  // Lap-style attribution: charge now - `since` to `layer` and return now, so
  // consecutive laps tile a stretch of time without gaps. Off: no clock read.
  Clock::time_point Start() const { return on_ ? Clock::now() : Clock::time_point(); }
  Clock::time_point Lap(Layer layer, Clock::time_point since) {
    if (!on_) {
      return since;
    }
    const Clock::time_point now = Clock::now();
    ns_[static_cast<size_t>(layer)] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - since).count();
    return now;
  }

  // Run `f`, charging its duration to `layer`.
  template <typename F>
  std::invoke_result_t<F> Time(Layer layer, F&& f) {
    const Clock::time_point t0 = Start();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      Lap(layer, t0);
    } else {
      auto result = f();
      Lap(layer, t0);
      return result;
    }
  }

  void Merge(const Spans& other) {
    for (size_t i = 0; i < ns_.size(); ++i) {
      ns_[i] += other.ns_[i];
    }
  }
  double seconds(Layer layer) const { return ns_[static_cast<size_t>(layer)] * 1e-9; }
  double total_seconds() const {
    int64_t sum = 0;
    for (int64_t v : ns_) {
      sum += v;
    }
    return sum * 1e-9;
  }

 private:
  bool on_;
  std::array<int64_t, static_cast<size_t>(Layer::kCount)> ns_{};
};

// Output checks of one unit. Each failed check counts toward failed_frac and
// the result line's `failed`; the run continues.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }
  void Merge(const Checks& other);

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;  // the first few failures
};

// What one repetition of a workload's unit returns.
struct Unit {
  double setup_s = 0.0;  // host: testbed build plus data generation / population
  double wall_s = 0.0;   // host: the measured phase
  MetricMap sim;         // simulated end-to-end values (exact)
  MetricMap sim_layers;  // simulated per-layer values and counts (exact)
  MetricMap host_layers;  // host per-layer values (traced units only)
  uint64_t checksum = 0;  // fold of the unit's outputs; differs across seeds
  Checks checks;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

using UnitFn = std::function<Unit(uint64_t seed, bool traced)>;

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  int units = 0;
  MetricMap end_to_end;
  MetricMap per_layer;
  uint64_t checksum = 0;
  MetricMap sim_all;  // every exact simulated value (self-test comparisons)
  std::vector<std::string> messages;
};

// Repeat `unit` until `options.seconds` of host time have passed (at least
// twice; five times when tracing). The first unit is a warm-up left out of the
// host-time estimates. With options.trace, later units alternate
// traced/untraced so the traced run can report its own overhead
// (bench.trace_overhead).
RunResult RunUnits(const RunOptions& options, const UnitFn& unit);

// The q-quantile of a sample, interpolated linearly between order
// statistics; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

// The host time a run reports for a measure sampled once per unit: its lower
// decile over the units. Every unit does the same work, and a shared host only
// ever adds time to it: on a 4-vCPU VM the neighbours slow the shard threads
// by up to half for seconds to minutes at a time. Across such a shift the
// median of a run moved by a third, the lower decile by a tenth.
inline double HostEstimate(std::vector<double> v) { return Quantile(std::move(v), 0.1); }
// Nearest-rank percentile of exact integer samples; 0 for an empty sample.
int64_t Percentile(std::vector<int64_t>* sorted_in_place, double q);

// The q-quantile of log-bucketed latency counts (LatencyHistogram layout),
// interpolated linearly by rank inside the bucket that holds it. The
// histogram's own Quantile() returns the bucket's upper bound, which moves in
// 25% steps; interpolation keeps a quantile near a bucket edge from jumping
// a whole step when the samples barely change. 0 for an empty histogram.
double InterpolatedQuantileNs(
    const std::array<int64_t, sled::LatencyHistogram::kNumBuckets>& buckets, double q);

// Peak resident set, in MB, of one untraced unit run in a forked child with
// glibc's stock allocator settings: the memory one pass of the workload needs
// in a fresh process. Call it before any thread starts and before the
// allocator is tuned for timing (see main.cc). Negative when the child fails.
double UnitPeakRssMb(const UnitFn& unit, uint64_t seed);

// Counters and histogram counts/sums of a registry, flattened into one map
// ("name", "name#count", "name#sum_ns"), so a measured phase can be taken as
// the difference of two snapshots.
using Flat = std::map<std::string, int64_t, std::less<>>;
Flat Flatten(const sled::MetricRegistry& registry);
// a - b, key by key; `into` accumulates (sums over worlds).
void AddDelta(const Flat& after, const Flat& before, Flat* into);
int64_t Get(const Flat& flat, std::string_view key);
// Flatten(kernel.obs().metrics()) plus the KernelStats counters the observer
// does not record ("kstats.<field>").
Flat FlattenKernel(const sled::SimKernel& kernel);

// Fills every simulated per-layer metric the kernel's observer provides from
// a measured-phase delta (kernel.*, cache.*, io.*, dev.*, sleds, progs, vfs).
void KernelLayerMetrics(const Flat& delta, MetricMap* out);

// The layer names a run must report with --trace 1, in output order.
const std::vector<std::pair<std::string, std::string>>& PerLayerSchema();
// The end-to-end metric names a run must report with --trace 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndSchema();

// Refuse to run when any SLEDS_* variable is set: the simulator caches them
// once per process and they would silently change the program under test.
// Returns the offending names (empty when clean).
std::vector<std::string> SledsEnvironment();

// One-line JSON result (the last line of stdout).
std::string ResultLine(const RunResult& result, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
