// The benchmark's three workloads. Each is a deterministic unit of work (see
// harness.h) built from the seed alone; the I/O mode of every kernel is
// pinned here, never taken from the environment.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/harness.h"

namespace perfbench {

// Closed loop, one process on one thread: wc and grep -q with and without
// SLEDs on the Table 2 NFS testbed, file 1.5x the cache, kFifoSync.
Unit PaperAppsUnit(uint64_t seed, bool traced);

// Closed loop: ext2 disk + flash worlds on ShardRuntime (2 shards), three
// processes per world running the mixed op stream, kElevator, with a light
// disk fault plan and an SSD GC window.
Unit ShardMixedUnit(uint64_t seed, bool traced);

// Open loop: Poisson arrivals of 16 KiB hot-skewed reads over disk worlds
// (ServiceModel::kKernel, 2 shards), run over a fixed ladder of offered rates.
Unit OpenloopHotReadsUnit(uint64_t seed, bool traced);

struct Workload {
  const char* name;
  UnitFn unit;
  // Serve every thread's allocations from glibc's main arena (see main.cc).
  // Needed where the shard threads hold blocks too large for a thread arena;
  // elsewhere the threads keep their own arenas, which share no allocator
  // state across cores.
  bool one_arena;
};

// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
