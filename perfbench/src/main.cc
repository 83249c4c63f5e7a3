// The benchmark binary:
//
//   perfbench --workload <paper_apps|shard_mixed|openloop_hot_reads>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints the build stamp and the run's simulated values, then, as the last
// line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones from a traced run.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_apps|shard_mixed|openloop_hot_reads> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

std::string SimJson(const RunResult& r, const std::string& workload, uint64_t seed) {
  std::string out = "{\n  \"workload\": \"" + workload + "\",\n  \"seed\": " +
                    std::to_string(seed) + ",\n  \"units\": " + std::to_string(r.units) +
                    ",\n  \"checksum\": \"" + std::to_string(r.checksum) + "\",\n  \"sim\": {";
  bool first = true;
  for (const auto& [name, m] : r.sim_all) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "\"" + name + "\": " + value;
  }
  out += "\n  }\n}\n";
  return out;
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to run a non-optimised build\n");
  return 2;
#endif
  std::string workload;
  RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (argc % 2 != 1 || w == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  const std::vector<std::string> env = SledsEnvironment();
  if (!env.empty()) {
    for (const std::string& name : env) {
      std::fprintf(stderr, "perfbench: %s is set; unset every SLEDS_* variable\n", name.c_str());
    }
    return 2;
  }

  // Memory is measured first, in a child with the stock allocator settings;
  // the settings below are for timing and would inflate it.
  double peak_rss_mb = 0.0;
  if (!options.trace) {
    peak_rss_mb = UnitPeakRssMb(w->unit, options.seed);
    if (peak_rss_mb < 0) {
      std::fprintf(stderr, "perfbench: the unit measuring peak memory failed\n");
      return 2;
    }
  }

  // Keep the memory of every unit for the next one. With glibc's defaults,
  // large blocks (the simulated files' contents) are mapped with mmap, the
  // heap is trimmed, and a thread arena's extra heaps are unmapped once they
  // empty, so every repetition would fault its memory in afresh: up to half
  // of a unit's host time would be the OS zeroing pages, which on a shared
  // VM varies with the neighbours far more than the simulator's own work
  // does. With no mmap blocks and no trimming, the warm-up unit grows the
  // heaps and later units reuse them. A thread arena's heap holds at most
  // 64 MiB, so a workload whose shard threads hold larger blocks uses the
  // main arena alone, which grows without that limit.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  if (w->one_arena) {
    mallopt(M_ARENA_MAX, 1);
  }
  RunResult r = RunUnits(options, w->unit);
  if (!options.trace) {
    r.end_to_end["peak_rss_mb"] = Metric{peak_rss_mb, "MB"};
  }
  for (const std::string& m : r.messages) {
    std::printf("check failed: %s\n", m.c_str());
  }
  sled::PrintBenchMetrics(std::string("perfbench_") + w->name, SimJson(r, w->name, options.seed));
  std::printf("%s\n", ResultLine(r, options.trace).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
