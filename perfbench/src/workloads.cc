#include "perfbench/src/workloads.h"

#include <array>

namespace perfbench {

const Workload* FindWorkload(const std::string& name) {
  static const std::array<Workload, 3> kWorkloads = {{
      {"paper_apps", PaperAppsUnit, false},
      {"shard_mixed", ShardMixedUnit, false},
      // Each world's 24 MiB file lives in a 32 MiB string on a shard thread.
      {"openloop_hot_reads", OpenloopHotReadsUnit, true},
  }};
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace perfbench
