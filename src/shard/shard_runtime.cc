#include "src/shard/shard_runtime.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/common/log.h"
#include "src/common/rng.h"

namespace sled {

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ResolveShardCount(int requested) {
  if (requested > 0) {
    return std::min(requested, 256);
  }
  // One env read for the whole process (thread-safe magic static): kernels
  // and runtimes constructed concurrently on shard threads must not each
  // re-enter libc's environment.
  static const int env_shards = [] {
    const char* env = std::getenv("SLEDS_SHARDS");
    if (env == nullptr) {
      return 0;
    }
    return std::clamp(std::atoi(env), 0, 256);
  }();
  if (env_shards > 0) {
    return env_shards;
  }
  return HardwareThreads();
}

ShardRuntime::ShardRuntime(ShardConfig config) : shards_(ResolveShardCount(config.shards)) {
  SLED_CHECK(shards_ >= 1, "shard count must be >= 1");
}

// splitmix64 is the partition hash: stable across platforms, so world
// placement never depends on the std::hash implementation.
int ShardRuntime::ShardOf(int64_t world_id) const {
  return static_cast<int>(SplitMix64(static_cast<uint64_t>(world_id)) %
                          static_cast<uint64_t>(shards_));
}

void WorldContext::Progress(int64_t sim_ns, int64_t syscalls, int64_t pages) {
  ++tally_->progress_messages;
  tally_->sim_ns_sum += sim_ns;
  tally_->syscalls_sum += syscalls;
  tally_->pages_sum += pages;
}

RuntimeReport ShardRuntime::Run(int64_t worlds,
                                const std::function<void(WorldContext&)>& body) {
  SLED_CHECK(worlds >= 0, "negative world count");
  // One tally per shard, written only by the thread that runs the shard and
  // read only after the join.
  std::vector<RuntimeReport> tallies(static_cast<size_t>(shards_));
  auto run_shard = [&](int shard) {
    RuntimeReport& tally = tallies[static_cast<size_t>(shard)];
    for (int64_t w = 0; w < worlds; ++w) {
      if (ShardOf(w) == shard) {
        WorldContext ctx(&tally, w, shard);
        body(ctx);
        ++tally.worlds;
      }
    }
  };
  {
    // Joined at the end of this scope, also when shard 0's body throws.
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<size_t>(shards_ - 1));
    for (int s = 1; s < shards_; ++s) {
      workers.emplace_back(run_shard, s);
    }
    run_shard(0);
  }

  RuntimeReport report;
  report.shards = shards_;
  for (const RuntimeReport& t : tallies) {
    report.worlds += t.worlds;
    report.progress_messages += t.progress_messages;
    report.sim_ns_sum += t.sim_ns_sum;
    report.syscalls_sum += t.syscalls_sum;
    report.pages_sum += t.pages_sum;
  }
  SLED_CHECK(report.worlds == worlds, "worlds run: %lld of %lld",
             static_cast<long long>(report.worlds), static_cast<long long>(worlds));
  return report;
}

}  // namespace sled
