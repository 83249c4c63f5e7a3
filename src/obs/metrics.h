// Metrics registry for the observability subsystem: named monotonic counters
// and log-bucketed latency histograms (p50/p95/p99 accessors), keyed by
// device / file system / storage level. This is the "reporting latency to
// users" leg of the paper (§3, fimhisto/fimgbin): the simulator itself needs
// the same per-layer attribution to explain where simulated time goes.
//
// Everything here is harness instrumentation: recording a sample never
// touches the simulated clock, and all exported values are integers so two
// identical runs produce byte-identical exports.
#ifndef SLEDS_SRC_OBS_METRICS_H_
#define SLEDS_SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/common/sim_time.h"

namespace sled {

// Log-bucketed latency histogram over nanosecond durations. Buckets are
// powers of two refined into 4 sub-buckets each (relative error <= 25%), a
// fixed 256-entry array — no allocation on the record path. Quantiles are
// deterministic: the upper bound of the bucket holding the target rank,
// clamped to the observed min/max.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 2;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kNumBuckets = 256;

  void Record(Duration d);

  // Bucket-wise merge for shard aggregation. Commutative and associative
  // (integer adds, min/max), so a merged histogram is identical however the
  // samples were partitioned across shards.
  void MergeFrom(const LatencyHistogram& other);

  int64_t count() const { return count_; }
  Duration sum() const { return sum_; }
  Duration min() const { return count_ == 0 ? Duration() : min_; }
  Duration max() const { return max_; }
  Duration mean() const { return count_ == 0 ? Duration() : sum_ / count_; }

  // The q-quantile (q in (0, 1]); p50 is Quantile(0.50).
  Duration Quantile(double q) const;

  static int BucketIndex(int64_t nanos);
  // Largest nanosecond value mapping to `index`.
  static int64_t BucketUpperBound(int index);

  // Raw bucket counts (CDF export walks the occupied buckets directly).
  const std::array<int64_t, kNumBuckets>& buckets() const { return buckets_; }

  // Bucket-wise equality: what the open-loop engine's run-to-run and
  // shard-count identity assertions compare.
  bool operator==(const LatencyHistogram&) const = default;

 private:
  std::array<int64_t, kNumBuckets> buckets_{};
  int64_t count_ = 0;
  Duration sum_;
  Duration min_;
  Duration max_;
};

// Named counters + histograms. Keys are stable strings ("kernel.pages_paged_in",
// "syscall.read", "level.1.pagein_time", "dev.disk.read_time"); storage is an
// ordered map so exports list keys in sorted order, deterministically.
class MetricRegistry {
 public:
  void Add(std::string_view counter, int64_t delta = 1);
  void Observe(std::string_view histogram, Duration d);
  // Fold a whole recorded histogram in at once (per-world histograms merging
  // into a shard accumulator without replaying every sample).
  void MergeHistogram(std::string_view histogram, const LatencyHistogram& h);
  // Last-value gauge ("io.disk.depth"). Exported in a separate JSON section
  // that is omitted entirely while no gauge exists, so subsystems that never
  // set one keep their exports byte-identical.
  void SetGauge(std::string_view gauge, int64_t value);

  // Merge another registry into this one: counters and gauges add, histograms
  // merge bucket-wise. All operations commute, so merging per-shard
  // registries yields the same result for any shard count and merge order —
  // the property the shard differential test pins down.
  void MergeFrom(const MetricRegistry& other);

  // 0 / nullptr when the key was never recorded.
  int64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;
  const LatencyHistogram* histogram(std::string_view name) const;

  const std::map<std::string, int64_t, std::less<>>& counters() const { return counters_; }
  const std::map<std::string, int64_t, std::less<>>& gauges() const { return gauges_; }
  const std::map<std::string, LatencyHistogram, std::less<>>& histograms() const {
    return histograms_;
  }

  // {"counters": {...}, "histograms": {name: {count, sum_ns, min_ns, max_ns,
  // p50_ns, p95_ns, p99_ns}, ...}} — integers only, keys sorted.
  std::string ToJson() const;

  void Reset();

 private:
  std::map<std::string, int64_t, std::less<>> counters_;
  std::map<std::string, int64_t, std::less<>> gauges_;
  std::map<std::string, LatencyHistogram, std::less<>> histograms_;
};

}  // namespace sled

#endif  // SLEDS_SRC_OBS_METRICS_H_
