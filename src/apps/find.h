// find — directory-tree walk with predicates, including the paper's new
// `-latency` predicate (§4.3/§5.2):
//
//   find -latency +n   files whose total estimated delivery time > n seconds
//   find -latency  n   ... == n seconds (rounded)
//   find -latency -n   ... < n seconds
//
// `mn`/`Mn` select milliseconds and `un`/`Un` microseconds, as in the paper.
// The predicate prunes expensive I/O: on an HSM it can restrict a search to
// data that is staged on disk or on an already-mounted tape.
#ifndef SLEDS_SRC_APPS_FIND_H_
#define SLEDS_SRC_APPS_FIND_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/app_costs.h"
#include "src/common/result.h"
#include "src/common/units.h"
#include "src/kernel/sim_kernel.h"

namespace sled {

enum class LatencyCmp { kLess, kEqual, kGreater };

struct LatencyPredicate {
  LatencyCmp cmp = LatencyCmp::kEqual;
  Duration threshold;
};

// Parse the paper's predicate syntax: "+5", "-5", "5", "m200", "+u10", ...
// Sign first (optional), then unit letter (optional m/M or u/U), then the
// number. Fails on anything else.
Result<LatencyPredicate> ParseLatencyPredicate(std::string_view text);

struct FindOptions {
  // Substring filter on the file name (empty = all). (Real find uses globs;
  // a substring is enough for the experiments.)
  std::string name_contains;
  std::optional<LatencyPredicate> latency;
  // -xdev: do not descend into other mounted file systems. The paper pairs
  // this classic switch with -latency: "useful to, for example, prevent find
  // from running on NFS-mounted partitions" (§5.2).
  bool same_fs_only = false;
};

struct FindResult {
  std::vector<std::string> paths;      // matches, in walk order
  int64_t files_examined = 0;
  int64_t files_pruned_by_latency = 0;
  int64_t mounts_skipped = 0;          // entries skipped by -xdev
};

// ---- directory-chain walk (completion-program showcase) ----
//
// A chain file is find's worst I/O shape distilled: fixed-size blocks, each
// holding the offset of the next block plus a name, visited strictly one
// dependent hop at a time (see workload/chain_gen.h for the block layout).
// The userspace oracle pays two syscalls (lseek + read) and one user-space
// copy per hop; the kernel_program variant walks the same chain from the
// I/O completion path — one syscall total.
struct ChainOptions {
  // Substring filter on block names; matched block offsets are recorded (up
  // to kProgMaxRecorded, the shared reporting cap).
  std::string name_contains;
  int64_t block_bytes = kPageSize;
  // Hop budget: the oracle stops after this many blocks; the program's
  // resubmit bound enforces the same limit in-kernel.
  int64_t max_hops = 1 << 20;
  bool kernel_program = false;
  AppCpuCosts costs;
};

struct ChainResult {
  int64_t blocks_visited = 0;
  int64_t names_matched = 0;
  // Order-sensitive FNV-1a over every visited block's name: equal hashes
  // prove the two paths visited the same blocks in the same order.
  uint64_t chain_hash = 0;
  std::vector<int64_t> matched_offsets;  // first kProgMaxRecorded matches

  friend bool operator==(const ChainResult&, const ChainResult&) = default;
};

class FindApp {
 public:
  static Result<FindResult> Run(SimKernel& kernel, Process& process, std::string_view root,
                                const FindOptions& options);
  static Result<ChainResult> RunChain(SimKernel& kernel, Process& process, std::string_view path,
                                      const ChainOptions& options);
};

}  // namespace sled

#endif  // SLEDS_SRC_APPS_FIND_H_
