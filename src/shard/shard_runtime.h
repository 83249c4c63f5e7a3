// ShardRuntime: the shard-per-core parallel simulation driver.
//
// The simulation scales out as independent *worlds* — each world is a full
// SimKernel with its own clock, page cache, I/O engine, Observer, and RNG
// stream, so worlds never share mutable state. The runtime hash-partitions
// worlds onto N shards. The calling thread runs shard 0 and spawns one worker
// thread for each other shard; every thread runs its shard's worlds in
// ascending world-id order and tallies their progress into its own
// RuntimeReport slot, which Run sums after the join. Nothing crosses threads
// while the worlds run, so the join is the only synchronisation.
//
// Determinism contract:
//   * A world's simulated behavior depends only on its own configuration and
//     seed — never on the shard it ran on, the number of shards, or the wall
//     clock. Hence every per-world result (simulated time, fault counts,
//     metric values) is identical across repeated runs and across shard
//     counts.
//   * Every report field is a commutative sum of per-world values, so the
//     report is independent of shard count and thread timing.
//   * shards == 1 starts no thread: the calling thread runs every world in
//     order, byte-identical to driving the kernels directly. This is the
//     oracle the differential test compares N-shard runs against, and it is
//     the same loop the N-shard runs use.
#ifndef SLEDS_SRC_SHARD_SHARD_RUNTIME_H_
#define SLEDS_SRC_SHARD_SHARD_RUNTIME_H_

#include <cstdint>
#include <functional>

namespace sled {

// Number of hardware threads, never less than 1.
int HardwareThreads();

// Shard-count resolution: a positive `requested` wins; otherwise $SLEDS_SHARDS
// (cached on first read, like $SLEDS_IO_MODE); otherwise the hardware thread
// count. Always >= 1.
int ResolveShardCount(int requested);

struct ShardConfig {
  // <= 0 resolves via ResolveShardCount.
  int shards = 0;
};

// Summed over every shard's tally. All fields are deterministic.
struct RuntimeReport {
  int shards = 0;
  int64_t worlds = 0;             // world bodies that returned
  int64_t progress_messages = 0;  // Progress calls
  int64_t sim_ns_sum = 0;         // sum of reported sim_ns
  int64_t syscalls_sum = 0;       // sum of reported syscalls
  int64_t pages_sum = 0;          // sum of reported pages
  // Always 0: nothing in the runtime waits. Kept because perfbench's
  // per-layer `shard.acquire_waits` metric reads it.
  int64_t acquire_waits = 0;
};

// Handed to the world body: identity plus the progress-reporting hook.
class WorldContext {
 public:
  int64_t world_id() const { return world_id_; }
  int shard_id() const { return shard_id_; }

  // Report a completed unit of work: adds into this shard's tally.
  void Progress(int64_t sim_ns, int64_t syscalls, int64_t pages);

 private:
  friend class ShardRuntime;
  WorldContext(RuntimeReport* tally, int64_t world_id, int shard_id)
      : tally_(tally), world_id_(world_id), shard_id_(shard_id) {}

  RuntimeReport* tally_;
  int64_t world_id_;
  int shard_id_;
};

class ShardRuntime {
 public:
  explicit ShardRuntime(ShardConfig config = {});

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  int shards() const { return shards_; }

  // The partition rule: splitmix64(world_id) % shards. A pure function of
  // (world_id, shards) so testbed setup, the benches, and the diff test all
  // agree on placement.
  int ShardOf(int64_t world_id) const;

  // Run `body` once per world in [0, worlds). The calling thread runs shard
  // 0's worlds and spawns shards - 1 worker threads for the rest; each thread
  // runs its assigned worlds in ascending world-id order. The body must
  // confine its mutable state to the world (or to per-shard slots indexed by
  // ctx.shard_id()); results should be written to caller-owned per-world
  // slots, which is race-free because each world id runs exactly once.
  RuntimeReport Run(int64_t worlds, const std::function<void(WorldContext&)>& body);

 private:
  int shards_;
};

}  // namespace sled

#endif  // SLEDS_SRC_SHARD_SHARD_RUNTIME_H_
