#include "perfbench/src/harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "src/kernel/sim_kernel.h"

extern char** environ;

namespace perfbench {

void Checks::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (messages_.size() < 8) {
      messages_.push_back(what);
    }
  }
}

void Checks::Merge(const Checks& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() < 8) {
      messages_.push_back(m);
    }
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

int64_t Percentile(std::vector<int64_t>* v, double q) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(q * static_cast<double>(v->size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

double InterpolatedQuantileNs(
    const std::array<int64_t, sled::LatencyHistogram::kNumBuckets>& buckets, double q) {
  int64_t total = 0;
  for (int64_t n : buckets) {
    total += n;
  }
  if (total == 0) {
    return 0.0;
  }
  const double rank = std::max(1.0, q * static_cast<double>(total));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    if (static_cast<double>(seen + buckets[i]) >= rank) {
      const int index = static_cast<int>(i);
      const double hi = static_cast<double>(sled::LatencyHistogram::BucketUpperBound(index));
      const double lo =
          index == 0 ? 0.0
                     : static_cast<double>(sled::LatencyHistogram::BucketUpperBound(index - 1));
      return lo + (hi - lo) * (rank - static_cast<double>(seen)) / static_cast<double>(buckets[i]);
    }
    seen += buckets[i];
  }
  return static_cast<double>(
      sled::LatencyHistogram::BucketUpperBound(sled::LatencyHistogram::kNumBuckets - 1));
}

double UnitPeakRssMb(const UnitFn& unit, uint64_t seed) {
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    return -1.0;
  }
  if (pid == 0) {
    // Die with the parent, so a killed run leaves no child behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(1);
    }
    unit(seed, false);
    _exit(0);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      return -1.0;
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

Flat Flatten(const sled::MetricRegistry& registry) {
  Flat out;
  for (const auto& [name, value] : registry.counters()) {
    out.emplace(name, value);
  }
  for (const auto& [name, h] : registry.histograms()) {
    out.emplace(name + "#count", h.count());
    out.emplace(name + "#sum_ns", h.sum().nanos());
  }
  return out;
}

Flat FlattenKernel(const sled::SimKernel& kernel) {
  Flat out = Flatten(kernel.obs().metrics());
  const sled::KernelStats& ks = kernel.stats();
  out["kstats.writeback_retries"] = ks.writeback_retries;
  out["kstats.io_errors"] = ks.io_errors;
  out["kstats.pages_written_back"] = ks.pages_written_back;
  return out;
}

void AddDelta(const Flat& after, const Flat& before, Flat* into) {
  for (const auto& [name, value] : after) {
    const int64_t d = value - Get(before, name);
    if (d != 0) {
      (*into)[name] += d;
    }
  }
}

int64_t Get(const Flat& flat, std::string_view key) {
  auto it = flat.find(key);
  return it == flat.end() ? 0 : it->second;
}

namespace {

int64_t SumMatching(const Flat& flat, std::string_view prefix, std::string_view suffix) {
  int64_t sum = 0;
  for (const auto& [name, value] : flat) {
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      sum += value;
    }
  }
  return sum;
}

void Set(MetricMap* out, const std::string& name, double value, const char* unit) {
  (*out)[name] = Metric{value, unit};
}

}  // namespace

void KernelLayerMetrics(const Flat& d, MetricMap* out) {
  for (const SyscallName& sc : kSyscalls) {
    Set(out, std::string("kernel.") + sc.metric + "_calls",
        static_cast<double>(Get(d, std::string("syscall.") + sc.kernel + "#count")), "count");
  }
  Set(out, "kernel.syscalls", static_cast<double>(SumMatching(d, "syscall.", "#count")), "count");
  // Pages written back by every path (sync flushes, engine writeback, fsync);
  // the observer's kernel.writeback_pages sees only synchronous flushes and
  // stands in where the kernel itself is out of reach (the open-loop engine).
  Set(out, "kernel.writeback_pages",
      static_cast<double>(d.contains("kstats.pages_written_back")
                              ? Get(d, "kstats.pages_written_back")
                              : Get(d, "kernel.writeback_pages")),
      "count");
  for (const char* c : {"kernel.pages_paged_in", "kernel.readahead_pages",
                        "kernel.writeback_flushes", "vfs.resolves", "kernel.io_waits",
                        "kernel.io_retries", "kernel.writeback_lost", "kernel.sled_scans",
                        "kernel.sled_scan_pages", "kernel.sled_scan_runs", "progs.runs",
                        "progs.invocations", "progs.bytes_examined"}) {
    Set(out, c, static_cast<double>(Get(d, c)), "count");
  }
  // Re-queued writeback runs are a KernelStats counter, not an observer one.
  Set(out, "kernel.writeback_retries", static_cast<double>(Get(d, "kstats.writeback_retries")),
      "count");
  Set(out, "writeback.flush_time_s", Get(d, "writeback.flush_time#sum_ns") * 1e-9, "s");
  Set(out, "io.dispatches", static_cast<double>(SumMatching(d, "io.", ".dispatches")), "count");
  Set(out, "io.merged", static_cast<double>(SumMatching(d, "io.", ".merged")), "count");
  Set(out, "io.wait_s", Get(d, "io.wait_time#sum_ns") * 1e-9, "s");
  for (const char* dev : {"disk", "ssd", "nfs"}) {
    const std::string base = std::string("dev.") + dev;
    Set(out, base + ".busy_s",
        (Get(d, base + ".read_time#sum_ns") + Get(d, base + ".write_time#sum_ns")) * 1e-9, "s");
    Set(out, base + ".repositions", static_cast<double>(Get(d, base + ".repositions")), "count");
    Set(out, base + ".bytes",
        static_cast<double>(Get(d, base + ".bytes_read") + Get(d, base + ".bytes_written")),
        "bytes");
    Set(out, base + ".read_errors", static_cast<double>(Get(d, base + ".read_errors")), "count");
  }
}

const std::vector<std::pair<std::string, std::string>>& EndToEndSchema() {
  static const std::vector<std::pair<std::string, std::string>> schema = {
      {"setup_s", "s"},        {"wall_s", "s"},        {"peak_rss_mb", "MB"},
      {"sim_elapsed_s", "s"},  {"sled_speedup", "x"},  {"sim_p50_ms", "ms"},
      {"sim_p99_ms", "ms"},    {"sim_rps_at_slo", "req/s"},
  };
  return schema;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerSchema() {
  static const std::vector<std::pair<std::string, std::string>> schema = [] {
    std::vector<std::pair<std::string, std::string>> s = {
        {"workload.gen_s", "s"},
        {"workload.gen_mb_per_s", "MB/s"},
        {"workload.marker_move_s", "s"},
        {"apps.wc_s", "s"},
        {"apps.grep_s", "s"},
        {"apps.host_ns_per_byte", "ns"},
    };
    for (const SyscallName& sc : kSyscalls) {
      s.emplace_back(std::string("kernel.") + sc.metric + "_s", "s");
      s.emplace_back(std::string("kernel.") + sc.metric + "_calls", "count");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"kernel.host_ns_per_syscall", "ns"},
        {"kernel.flush_all_s", "s"},
        {"kernel.sim_cpu_s", "s"},
        {"kernel.sim_io_s", "s"},
        {"kernel.syscalls", "count"},
        {"cache.hit_ratio", "ratio"},
        {"kernel.pages_paged_in", "count"},
        {"kernel.readahead_pages", "count"},
        {"kernel.writeback_pages", "count"},
        {"kernel.writeback_flushes", "count"},
        {"writeback.flush_time_s", "s"},
        {"vfs.resolves", "count"},
        {"io.dispatches", "count"},
        {"io.merged", "count"},
        {"io.wait_s", "s"},
        {"io.depth_p99", "count"},
        {"kernel.io_waits", "count"},
        {"dev.disk.busy_s", "s"},
        {"dev.disk.repositions", "count"},
        {"dev.disk.bytes", "bytes"},
        {"dev.ssd.busy_s", "s"},
        {"dev.ssd.repositions", "count"},
        {"dev.ssd.bytes", "bytes"},
        {"dev.nfs.busy_s", "s"},
        {"dev.nfs.repositions", "count"},
        {"dev.nfs.bytes", "bytes"},
        {"kernel.io_retries", "count"},
        {"kernel.writeback_retries", "count"},
        {"kernel.writeback_lost", "count"},
        {"dev.disk.read_errors", "count"},
        {"dev.ssd.read_errors", "count"},
        {"dev.nfs.read_errors", "count"},
        {"kernel.sled_scans", "count"},
        {"kernel.sled_scan_pages", "count"},
        {"kernel.sled_scan_runs", "count"},
        {"progs.runs", "count"},
        {"progs.invocations", "count"},
        {"progs.bytes_examined", "count"},
        {"obs.trace_events", "count"},
        {"obs.metric_series", "count"},
        {"obs.export_s", "s"},
        {"shard.0.busy_s", "s"},
        {"shard.1.busy_s", "s"},
        {"shard.imbalance", "ratio"},
        {"shard.overhead_s", "s"},
        {"shard.acquire_waits", "count"},
        {"openload.host_ns_per_arrival", "ns"},
        {"openload.sched_ns_per_arrival", "ns"},
        {"openload.queue_wait_p99_ms", "ms"},
        {"openload.service_mean_ms", "ms"},
        {"failed_frac", "ratio"},
        {"bench.driver_s", "s"},
        {"bench.closure_gap", "ratio"},
        {"bench.trace_overhead", "ratio"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return schema;
}

RunResult RunUnits(const RunOptions& options, const UnitFn& unit) {
  // Unit 0 is a warm-up: its simulated results are the reference every later
  // unit must reproduce, but its host times (first-touch page faults, cold
  // instruction caches) are left out of the estimates.
  const size_t min_units = options.trace ? 5 : 2;
  const auto traced_unit = [&](size_t i) { return options.trace && i % 2 == 1; };
  const Clock::time_point start = Clock::now();
  std::vector<Unit> units;
  for (size_t i = 0;; ++i) {
    const bool traced = traced_unit(i);
    units.push_back(unit(options.seed, traced));
    if (units.size() >= min_units && SecondsSince(start) >= options.seconds) {
      break;
    }
  }

  RunResult r;
  r.units = static_cast<int>(units.size());
  const Unit& first = units.front();
  std::vector<double> setups;
  std::vector<double> walls_untraced;
  std::vector<double> walls_traced;
  std::map<std::string, std::vector<double>> host_samples;
  std::map<std::string, std::string> host_units;
  for (size_t i = 0; i < units.size(); ++i) {
    const Unit& u = units[i];
    r.attempted += u.checks.attempted();
    r.failed += u.checks.failed();
    for (const std::string& m : u.checks.messages()) {
      if (r.messages.size() < 8) {
        r.messages.push_back(m);
      }
    }
    // Determinism: every repetition of a unit reproduces the first exactly.
    ++r.attempted;
    if (u.sim != first.sim || u.sim_layers != first.sim_layers || u.checksum != first.checksum) {
      ++r.failed;
      if (r.messages.size() < 8) {
        r.messages.push_back("repetition " + std::to_string(i) +
                             " changed the simulated results");
      }
    }
    if (i == 0) {
      continue;
    }
    setups.push_back(u.setup_s);
    const bool traced = traced_unit(i);
    (traced ? walls_traced : walls_untraced).push_back(u.wall_s);
    if (traced) {
      for (const auto& [name, m] : u.host_layers) {
        host_samples[name].push_back(m.value);
        host_units[name] = m.unit;
      }
    }
  }
  r.correct = r.failed == 0;
  r.checksum = first.checksum;

  r.end_to_end = first.sim;
  r.end_to_end["setup_s"] = Metric{HostEstimate(setups), "s"};
  r.end_to_end["wall_s"] = Metric{HostEstimate(walls_untraced), "s"};

  r.per_layer = first.sim_layers;
  for (const auto& [name, samples] : host_samples) {
    r.per_layer[name] = Metric{HostEstimate(samples), host_units[name]};
  }
  if (options.trace) {
    r.per_layer["bench.trace_overhead"] =
        Metric{HostEstimate(walls_traced) / HostEstimate(walls_untraced), "ratio"};
  }
  r.sim_all = first.sim;
  for (const auto& [name, m] : first.sim_layers) {
    r.sim_all[name] = m;
  }
  return r;
}

std::vector<std::string> SledsEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "SLEDS_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? static_cast<size_t>(eq - *e) : std::strlen(*e));
    }
  }
  return names;
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultLine(const RunResult& result, bool trace) {
  const MetricMap& source = trace ? result.per_layer : result.end_to_end;
  const auto& schema = trace ? PerLayerSchema() : EndToEndSchema();
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : schema) {
    auto it = source.find(name);
    const double value = it == source.end() ? 0.0 : it->second.value;
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Number(value) + ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
