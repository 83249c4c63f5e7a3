// shard_mixed: many simulated machines on ShardRuntime (2 shards). Each world
// is a full SimKernel with an ext2 disk at /data and flash at /ssd, in
// kElevator mode, with a cache that holds the world's working set. Three
// processes per world take turns running the mixed op stream — sequential and
// point reads, 8 KiB overwrites, ranged FSLEDS_GET, fsync, fstat and readdir —
// and every syscall result is checked against a model of the file contents.
// The disk carries a seeded light fault plan (transient errors, a few of which
// escape the kernel's retries); the SSD carries a GC window. Host time here is
// the syscall path, obs hooks, page cache, I/O engine and shard runtime.
#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/device/fault.h"
#include "src/device/ssd_device.h"
#include "src/fs/extent_file_system.h"
#include "src/obs/merge.h"
#include "src/shard/shard_runtime.h"
#include "src/workload/testbed.h"

namespace perfbench {
namespace {

using sled::Err;
using sled::Process;
using sled::SimKernel;
using sled::kKiB;
using sled::kPageSize;

constexpr int kShards = 2;
constexpr int64_t kWorlds = 32;
constexpr int kProcs = 3;
constexpr int kFilesPerProc = 3;  // alternating /data and /ssd
constexpr int64_t kFileBytes = 192 * kKiB;
constexpr int64_t kOpsPerProc = 1500;
constexpr int64_t kCachePages = 1024;  // holds the world's ~430-page working set
constexpr int64_t kSeqReadBytes = 48 * kKiB;  // longest sequential read
constexpr int64_t kWriteBytes = 8 * kKiB;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Derive(uint64_t base, uint64_t salt) { return SplitMix64(base ^ SplitMix64(salt)); }

// What the file should hold: 'x' from population, 'y' on every page an
// overwrite has touched (writes are page-aligned, whole pages).
struct FileModel {
  std::string path;
  bool on_ssd = false;
  int64_t size = kFileBytes;
  std::vector<bool> written;  // per page
};

// One world's machine, model and measured-phase outcome. Touched only by the
// shard thread that runs the world; read by the caller after Run joins.
struct World {
  sled::Testbed tb;
  std::vector<Process*> procs;
  std::vector<FileModel> files;  // kProcs * kFilesPerProc, process-major
  size_t data_entries = 0;       // readdir sizes after population
  size_t ssd_entries = 0;
  Flat before;
  sled::TimePoint clock_before;
  int64_t trace_before = 0;

  Checks checks;
  std::vector<int64_t> op_ns;      // simulated latency of every op
  std::vector<int64_t> read_ns;    // ... of every read op
  std::vector<int64_t> depth;      // I/O queue depth after every op
  int64_t sim_errors = 0;          // ops the fault plan made fail (kIo / kTimedOut)
  int64_t cpu_ns = 0;              // these four: summed over processes, gained in the phase
  int64_t io_ns = 0;
  int64_t minor = 0;
  int64_t major = 0;
  int64_t sim_ns = 0;              // world clock gained in the phase
  int64_t trace_events = 0;
  uint64_t checksum = 0;
  Flat delta;
};

std::string FilePath(int64_t world, int p, int f) {
  return std::string(f % 2 == 0 ? "/data/w" : "/ssd/w") + std::to_string(world) + "p" +
         std::to_string(p) + "f" + std::to_string(f);
}

bool IsFaultError(Err e) { return e == Err::kIo || e == Err::kTimedOut; }

void SetUpWorld(World& w, uint64_t seed, int64_t world_id, Checks& checks) {
  const uint64_t world_seed = Derive(seed, static_cast<uint64_t>(world_id));
  sled::TestbedConfig tc;
  tc.kind = sled::StorageKind::kDisk;
  tc.cache_pages = kCachePages;
  tc.io.mode = sled::IoMode::kElevator;
  tc.seed = world_seed | 1;
  tc.world_id = world_id;
  w.tb = sled::MakeTestbed(tc);
  SimKernel& k = *w.tb.kernel;

  sled::SsdDeviceConfig ssd_cfg;
  ssd_cfg.capacity_bytes = 64LL * 1024 * 1024;
  ssd_cfg.seed = Derive(world_seed, 0x55d);
  auto ssd = std::make_unique<sled::SsdDevice>(ssd_cfg);
  sled::SsdDevice* ssd_dev = ssd.get();
  auto ssd_id = k.Mount("/ssd", std::make_unique<sled::ExtFs>("ssd", std::move(ssd)));
  checks.Expect(ssd_id.ok(), "shard_mixed: mounting /ssd failed");

  const std::string chunk(16 * kKiB, 'x');
  for (int p = 0; p < kProcs; ++p) {
    // (Built with += : GCC 12 reports a false -Wrestrict on chained string +.)
    std::string name = "w";
    name += std::to_string(world_id);
    name += "p";
    name += std::to_string(p);
    Process& proc = k.CreateProcess(name);
    w.procs.push_back(&proc);
    for (int f = 0; f < kFilesPerProc; ++f) {
      FileModel m;
      m.path = FilePath(world_id, p, f);
      m.on_ssd = f % 2 == 1;
      m.written.assign(static_cast<size_t>(kFileBytes / kPageSize), false);
      auto fd = k.Create(proc, m.path);
      checks.Expect(fd.ok(), "shard_mixed: create failed");
      if (!fd.ok()) {
        continue;
      }
      for (int64_t done = 0; done < kFileBytes;) {
        auto n = k.Write(proc, fd.value(), std::span<const char>(chunk.data(), chunk.size()));
        checks.Expect(n.ok(), "shard_mixed: populate write failed");
        if (!n.ok()) {
          break;
        }
        done += n.value();
      }
      checks.Expect(k.Close(proc, fd.value()).ok(), "shard_mixed: populate close failed");
      w.files.push_back(std::move(m));
    }
  }
  k.DropCaches();  // the working set fits the cache, but starts cold
  auto data = k.vfs().List("/data");
  auto flash = k.vfs().List("/ssd");
  w.data_entries = data.ok() ? data->size() : 0;
  w.ssd_entries = flash.ok() ? flash->size() : 0;

  // Faults start with the measured phase, so population always succeeds.
  sled::FaultPlanConfig fc;
  fc.seed = Derive(world_seed, 0xfa17);
  fc.read_fault_prob = 0.12;
  fc.write_fault_prob = 0.08;
  fc.controller_retries = 0;
  auto* disk = k.vfs().FsById(w.tb.data_fs_id)->PrimaryDevice();
  disk->InjectFaults(std::make_shared<sled::FaultPlan>(fc));
  sled::FaultPlanConfig gc_cfg;
  gc_cfg.seed = Derive(world_seed, 0x6c);
  auto gc = std::make_shared<sled::FaultPlan>(gc_cfg);
  const sled::TimePoint now = k.clock().Now();
  gc->AddGcWindow(now, now + sled::Seconds(3600), sled::Milliseconds(4), 0.15);
  ssd_dev->InjectFaults(gc);

  w.before = FlattenKernel(k);
  w.clock_before = k.clock().Now();
  w.trace_before = k.obs().trace().total();
}

// The expected bytes of [offset, offset+n) of `m`, compared page by page.
bool ContentMatches(const FileModel& m, int64_t offset, const char* data, int64_t n) {
  static const std::string xs(kPageSize, 'x');
  static const std::string ys(kPageSize, 'y');
  for (int64_t at = offset; at < offset + n;) {
    const int64_t page = at / kPageSize;
    const int64_t end = std::min(offset + n, (page + 1) * kPageSize);
    const bool y =
        page < static_cast<int64_t>(m.written.size()) && m.written[static_cast<size_t>(page)];
    const std::string& expect = y ? ys : xs;
    if (std::memcmp(data + (at - offset), expect.data(), static_cast<size_t>(end - at)) != 0) {
      return false;
    }
    at = end;
  }
  return true;
}

// The measured phase of one world: kProcs processes take turns, one op each.
void RunWorld(World& w, uint64_t seed, int64_t world_id, Spans& spans) {
  SimKernel& k = *w.tb.kernel;
  Checks& checks = w.checks;
  const uint64_t world_seed = Derive(seed, static_cast<uint64_t>(world_id));
  std::vector<sled::Rng> rngs;
  std::vector<sled::ProcessStats> proc_before;
  for (int p = 0; p < kProcs; ++p) {
    rngs.emplace_back(Derive(world_seed, 0x1000 + static_cast<uint64_t>(p)));
    proc_before.push_back(w.procs[static_cast<size_t>(p)]->stats());
  }
  std::vector<char> buf(static_cast<size_t>(kSeqReadBytes));
  const std::string wbuf(static_cast<size_t>(kWriteBytes), 'y');
  w.op_ns.reserve(static_cast<size_t>(kProcs * kOpsPerProc));
  w.depth.reserve(static_cast<size_t>(kProcs * kOpsPerProc));

  Clock::time_point t = spans.Start();
  for (int64_t op = 0; op < kOpsPerProc; ++op) {
    for (int p = 0; p < kProcs; ++p) {
      Process& proc = *w.procs[static_cast<size_t>(p)];
      sled::Rng& rng = rngs[static_cast<size_t>(p)];
      const int f = static_cast<int>(rng.Uniform(0, kFilesPerProc - 1));
      FileModel& m = w.files[static_cast<size_t>(p * kFilesPerProc + f)];
      const int64_t offset = rng.Uniform(0, kFileBytes / kPageSize - 1) * kPageSize;
      const int roll = static_cast<int>(rng.Uniform(0, 99));
      // Byte-granular lengths: a cached read's simulated cost is linear in
      // its length, so the latency distribution has no single dominant value.
      const int64_t seq_len = rng.Uniform(kKiB, kSeqReadBytes);
      const int64_t start_ns = proc.stats().elapsed().nanos();
      bool fault = false;
      t = spans.Lap(Layer::kDriver, t);

      auto fd = k.Open(proc, m.path);
      t = spans.Lap(Layer::kOpen, t);
      checks.Expect(fd.ok(), "shard_mixed: open failed");
      if (!fd.ok()) {
        continue;
      }
      if (roll < 65) {
        // Sequential chunk (45%) or point read (20%) from an aligned start.
        const int64_t want = roll < 45 ? seq_len : kPageSize;
        t = spans.Lap(Layer::kDriver, t);
        auto pos = k.Lseek(proc, fd.value(), offset, sled::Whence::kSet);
        t = spans.Lap(Layer::kLseek, t);
        auto n = k.Read(proc, fd.value(), std::span<char>(buf.data(), static_cast<size_t>(want)));
        t = spans.Lap(Layer::kRead, t);
        checks.Expect(pos.ok() && pos.value() == offset, "shard_mixed: lseek result");
        if (n.ok()) {
          const int64_t expect = std::clamp<int64_t>(m.size - offset, 0, want);
          checks.Expect(n.value() == expect && ContentMatches(m, offset, buf.data(), n.value()),
                        "shard_mixed: read returned wrong bytes");
        } else {
          fault = IsFaultError(n.error());
          checks.Expect(fault, "shard_mixed: read failed with a non-fault error");
        }
      } else if (roll < 85) {
        // Dirtying overwrite; pages reach the device through writeback.
        t = spans.Lap(Layer::kDriver, t);
        auto pos = k.Lseek(proc, fd.value(), offset, sled::Whence::kSet);
        t = spans.Lap(Layer::kLseek, t);
        auto n = k.Write(proc, fd.value(), std::span<const char>(wbuf.data(), wbuf.size()));
        t = spans.Lap(Layer::kWrite, t);
        checks.Expect(pos.ok() && pos.value() == offset, "shard_mixed: lseek result");
        if (n.ok()) {
          checks.Expect(n.value() == kWriteBytes, "shard_mixed: short write");
          m.size = std::max(m.size, offset + kWriteBytes);
          m.written.resize(static_cast<size_t>((m.size + kPageSize - 1) / kPageSize), false);
          for (int64_t pg = offset / kPageSize; pg < (offset + kWriteBytes) / kPageSize; ++pg) {
            m.written[static_cast<size_t>(pg)] = true;
          }
        } else {
          fault = IsFaultError(n.error());
          checks.Expect(fault, "shard_mixed: write failed with a non-fault error");
        }
      } else if (roll < 92) {
        // Ranged SLED scan over the tail from the chosen offset.
        t = spans.Lap(Layer::kDriver, t);
        auto sleds = k.IoctlSledsGet(proc, fd.value(), offset, kFileBytes - offset);
        t = spans.Lap(Layer::kSledsGet, t);
        checks.Expect(sleds.ok(), "shard_mixed: FSLEDS_GET failed");
        if (sleds.ok()) {
          int64_t covered = 0;
          for (const sled::Sled& s : sleds.value()) {
            covered += s.length;
          }
          checks.Expect(covered == std::min(kFileBytes, m.size) - offset,
                        "shard_mixed: SLEDs do not cover the requested range");
        }
      } else if (roll < 97) {
        t = spans.Lap(Layer::kDriver, t);
        auto r = k.Fsync(proc, fd.value());
        t = spans.Lap(Layer::kFsync, t);
        if (!r.ok()) {
          fault = IsFaultError(r.error());
          checks.Expect(fault, "shard_mixed: fsync failed with a non-fault error");
        }
      } else {
        t = spans.Lap(Layer::kDriver, t);
        auto st = k.Fstat(proc, fd.value());
        t = spans.Lap(Layer::kFstat, t);
        auto dir = k.ReadDir(proc, m.on_ssd ? "/ssd" : "/data");
        t = spans.Lap(Layer::kReaddir, t);
        checks.Expect(st.ok() && st->size == m.size, "shard_mixed: fstat size");
        checks.Expect(dir.ok() && dir->size() == (m.on_ssd ? w.ssd_entries : w.data_entries),
                      "shard_mixed: readdir entries");
      }
      // Queue depth as the op leaves the kernel: async readahead and
      // writeback still pending on the device queues.
      int64_t depth = 0;
      k.io_scheduler().ForEachQueue(
          [&](uint32_t, const sled::DeviceQueue& q) { depth += q.depth(); });
      w.depth.push_back(depth);
      t = spans.Lap(Layer::kDriver, t);
      auto closed = k.Close(proc, fd.value());
      t = spans.Lap(Layer::kClose, t);
      checks.Expect(closed.ok(), "shard_mixed: close failed");
      w.sim_errors += fault ? 1 : 0;
      w.op_ns.push_back(proc.stats().elapsed().nanos() - start_ns);
      if (roll < 65) {
        w.read_ns.push_back(w.op_ns.back());
      }
    }
  }
  t = spans.Lap(Layer::kDriver, t);
  k.FlushAllDirty();
  spans.Lap(Layer::kFlushAll, t);

  for (int p = 0; p < kProcs; ++p) {
    const sled::ProcessStats& s = w.procs[static_cast<size_t>(p)]->stats();
    const sled::ProcessStats& b = proc_before[static_cast<size_t>(p)];
    w.cpu_ns += (s.cpu_time - b.cpu_time).nanos();
    w.io_ns += (s.io_time - b.io_time).nanos();
    w.minor += s.minor_faults - b.minor_faults;
    w.major += s.major_faults - b.major_faults;
  }
  w.sim_ns = (k.clock().Now() - w.clock_before).nanos();
  w.trace_events = k.obs().trace().total() - w.trace_before;
  AddDelta(FlattenKernel(k), w.before, &w.delta);
  uint64_t h = SplitMix64(static_cast<uint64_t>(w.sim_ns));
  for (int64_t v : w.op_ns) {
    h = SplitMix64(h ^ static_cast<uint64_t>(v));
  }
  w.checksum = h;
}

}  // namespace

Unit ShardMixedUnit(uint64_t seed, bool traced) {
  Unit u;
  std::vector<World> worlds(static_cast<size_t>(kWorlds));
  std::vector<Checks> setup_checks(static_cast<size_t>(kWorlds));

  // ---- set-up: every world's testbed and files, on the shards ----
  const Clock::time_point setup_start = Clock::now();
  sled::ShardRuntime rt(sled::ShardConfig{.shards = kShards});
  rt.Run(kWorlds, [&](sled::WorldContext& ctx) {
    const size_t i = static_cast<size_t>(ctx.world_id());
    SetUpWorld(worlds[i], seed, ctx.world_id(), setup_checks[i]);
  });
  u.setup_s = SecondsSince(setup_start);

  // ---- measured phase ----
  std::vector<Spans> shard_spans(kShards, Spans(traced));
  std::vector<double> shard_busy(kShards, 0.0);
  std::vector<sled::ObsAccumulator> accs(kShards);
  const Clock::time_point wall_start = Clock::now();
  const sled::RuntimeReport report = rt.Run(kWorlds, [&](sled::WorldContext& ctx) {
    const size_t shard = static_cast<size_t>(ctx.shard_id());
    World& w = worlds[static_cast<size_t>(ctx.world_id())];
    const Clock::time_point world_start = Clock::now();
    RunWorld(w, seed, ctx.world_id(), shard_spans[shard]);
    shard_spans[shard].Time(Layer::kObsExport, [&] { accs[shard].Absorb(w.tb.kernel->obs()); });
    shard_busy[shard] += SecondsSince(world_start);
    ctx.Progress(w.sim_ns, static_cast<int64_t>(w.op_ns.size()), w.major);
  });
  Spans main_spans(traced);
  size_t metric_series = 0;
  const size_t export_bytes = main_spans.Time(Layer::kObsExport, [&] {
    sled::ObsAccumulator merged;
    for (const sled::ObsAccumulator& a : accs) {
      merged.Absorb(a);
    }
    const sled::MetricRegistry& reg = merged.metrics;
    metric_series = reg.counters().size() + reg.histograms().size() + reg.gauges().size();
    return merged.MetricsJson().size();
  });
  u.wall_s = SecondsSince(wall_start);

  // ---- checks and simulated results (exact) ----
  Flat delta;
  std::vector<int64_t> op_ns;
  std::vector<int64_t> read_ns;
  std::vector<int64_t> depth;
  int64_t sim_errors = 0;
  int64_t sim_ns = 0;
  int64_t cpu_ns = 0;
  int64_t io_ns = 0;
  int64_t minor = 0;
  int64_t major = 0;
  int64_t trace_events = 0;
  uint64_t checksum = static_cast<uint64_t>(export_bytes);
  for (size_t i = 0; i < worlds.size(); ++i) {
    World& w = worlds[i];
    u.checks.Merge(setup_checks[i]);
    u.checks.Merge(w.checks);
    for (const auto& [name, v] : w.delta) {
      delta[name] += v;
    }
    op_ns.insert(op_ns.end(), w.op_ns.begin(), w.op_ns.end());
    read_ns.insert(read_ns.end(), w.read_ns.begin(), w.read_ns.end());
    depth.insert(depth.end(), w.depth.begin(), w.depth.end());
    sim_errors += w.sim_errors;
    sim_ns += w.sim_ns;
    cpu_ns += w.cpu_ns;
    io_ns += w.io_ns;
    minor += w.minor;
    major += w.major;
    trace_events += w.trace_events;
    checksum = SplitMix64(checksum ^ w.checksum);
  }
  int64_t op_sum = 0;
  for (int64_t v : op_ns) {
    op_sum += v;
  }
  const int64_t ops = static_cast<int64_t>(op_ns.size());
  u.checks.Expect(ops == kWorlds * kProcs * kOpsPerProc, "shard_mixed: ops went missing");
  u.checks.Expect(report.worlds == kWorlds, "shard_mixed: runtime lost a world");
  // Simulated closure: every op's latency is charged to its process, so the
  // ops' latencies add up exactly to the CPU plus I/O time the phase charged.
  u.checks.Expect(op_sum == cpu_ns + io_ns, "shard_mixed: op latencies do not sum to cpu+io");

  u.sim["sim_elapsed_s"] = {sim_ns * 1e-9, "s"};
  u.sim["sled_speedup"] = {1.0, "x"};  // no with/without-SLEDs arms here
  // Latency percentiles are per read op. Every 8 KiB overwrite of a cached
  // page costs the same simulated time, and overwrites span the all-op
  // median, so an all-op p50 would be one constant; it is reported per layer.
  u.sim["sim_p50_ms"] = {Percentile(&read_ns, 0.50) * 1e-6, "ms"};
  u.sim["sim_p99_ms"] = {Percentile(&read_ns, 0.99) * 1e-6, "ms"};
  u.sim["sim_rps_at_slo"] = {sim_ns > 0 ? ops / (sim_ns * 1e-9) : 0.0, "req/s"};

  MetricMap& layers = u.sim_layers;
  KernelLayerMetrics(delta, &layers);
  std::vector<int64_t> sorted = op_ns;
  layers["shard.op_p50_ms"] = {Percentile(&sorted, 0.50) * 1e-6, "ms"};
  layers["shard.op_p99_ms"] = {Percentile(&sorted, 0.99) * 1e-6, "ms"};
  layers["shard.read_ops"] = {static_cast<double>(read_ns.size()), "count"};
  layers["kernel.sim_cpu_s"] = {cpu_ns * 1e-9, "s"};
  layers["kernel.sim_io_s"] = {io_ns * 1e-9, "s"};
  layers["cache.hit_ratio"] = {
      minor + major > 0 ? static_cast<double>(minor) / static_cast<double>(minor + major) : 0.0,
      "ratio"};
  layers["io.depth_p99"] = {static_cast<double>(Percentile(&depth, 0.99)), "count"};
  layers["obs.trace_events"] = {static_cast<double>(trace_events), "count"};
  layers["obs.metric_series"] = {static_cast<double>(metric_series), "count"};
  const int64_t failed_ops = sim_errors + u.checks.failed();
  layers["failed_frac"] = {
      ops > 0 ? static_cast<double>(failed_ops) / static_cast<double>(ops) : 0.0, "ratio"};
  u.checksum = checksum;

  if (traced) {
    Spans all = main_spans;
    for (const Spans& s : shard_spans) {
      all.Merge(s);
    }
    MetricMap& host = u.host_layers;
    double syscall_s = 0.0;
    for (const SyscallName& sc : kSyscalls) {
      host[std::string("kernel.") + sc.metric + "_s"] = {all.seconds(sc.layer), "s"};
      syscall_s += all.seconds(sc.layer);
    }
    const double calls = layers["kernel.syscalls"].value;
    host["kernel.host_ns_per_syscall"] = {calls > 0 ? syscall_s * 1e9 / calls : 0.0, "ns"};
    host["kernel.flush_all_s"] = {all.seconds(Layer::kFlushAll), "s"};
    host["obs.export_s"] = {all.seconds(Layer::kObsExport), "s"};
    host["bench.driver_s"] = {all.seconds(Layer::kDriver), "s"};
    double busy_sum = 0.0;
    double busy_max = 0.0;
    for (int s = 0; s < kShards; ++s) {
      host["shard." + std::to_string(s) + ".busy_s"] = {shard_busy[static_cast<size_t>(s)], "s"};
      busy_sum += shard_busy[static_cast<size_t>(s)];
      busy_max = std::max(busy_max, shard_busy[static_cast<size_t>(s)]);
    }
    host["shard.imbalance"] = {busy_sum > 0 ? busy_max / (busy_sum / kShards) : 0.0, "ratio"};
    host["shard.overhead_s"] = {u.wall_s - busy_max, "s"};
    host["shard.acquire_waits"] = {static_cast<double>(report.acquire_waits), "count"};
    // Layer closure: the spans tile each world's busy time, so the syscall,
    // flush, export and bench.driver_s spans must account for the shards'
    // busy time.
    const double spans_s = all.total_seconds() - main_spans.total_seconds();
    const double gap = busy_sum > 0 ? std::abs(busy_sum - spans_s) / busy_sum : 1.0;
    host["bench.closure_gap"] = {gap, "ratio"};
    u.checks.Expect(gap <= 0.02, "shard_mixed: per-layer host times do not account for busy time");
  }
  return u;
}

}  // namespace perfbench
