// paper_apps: the paper's own experiment (§5.2, Figs 7-8 and 11-12) as one
// closed-loop unit. One text file of 1.5x the Table 2 machine's ~40 MB cache
// on its NFS mount, then the warm-cache protocol over five arms — wc and
// grep -q, each without and with SLEDs, and grep -q with SLEDs as a kFindFirst
// completion program. Each arm runs one discarded warm-up and then measured
// runs, each in a fresh process; grep's marker moves before every run, to a
// position stratified over the file. Host time here is the apps' byte loops
// and text generation; the kernel is a small share of it.
#include <array>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/apps/grep.h"
#include "src/apps/wc.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/workload/testbed.h"
#include "src/workload/text_gen.h"

namespace perfbench {
namespace {

using sled::GrepApp;
using sled::GrepOptions;
using sled::Process;
using sled::SimKernel;
using sled::WcApp;
using sled::WcOptions;
using sled::WcResult;

constexpr char kPath[] = "/data/file.txt";
constexpr int64_t kCachePages = 10240;  // Table 2 machine: ~40 MiB of page cache
constexpr int64_t kFileBytes = kCachePages * sled::kPageSize * 3 / 2;
// Runs per arm; the first is the discarded warm-up. wc's simulated time is
// the same every run; grep -q's depends on where the marker lands, so grep
// runs once per marker stratum.
constexpr int kWcRuns = 1 + 1;
constexpr int kGrepRuns = 1 + 6;
// Marker positions sit at the centre of each of kGrepRuns equal strata of
// the file, jittered by the seed by at most 1/kJitterDivisor of a stratum
// (a few KiB). With uniform positions, where the marker lands relative to
// the cached part of the file would dominate every metric of the workload;
// centred strata make every seed scan the same share of the file.
constexpr int64_t kJitterDivisor = 1024;

struct Arm {
  const char* name;
  bool grep;
  bool sleds;
  bool program;
};
constexpr std::array<Arm, 5> kArms = {{
    {"wc", false, false, false},
    {"wc_sleds", false, true, false},
    {"grep_q", true, false, false},
    {"grep_q_sleds", true, true, false},
    {"grep_q_sleds_prog", true, true, true},
}};
enum ArmIndex { kWcPlain, kWcSleds, kGrepPlain, kGrepSleds, kGrepProg };

// The buckets a histogram gained between two snapshots.
std::array<int64_t, sled::LatencyHistogram::kNumBuckets> BucketDelta(
    const sled::LatencyHistogram* after, const sled::LatencyHistogram& before) {
  std::array<int64_t, sled::LatencyHistogram::kNumBuckets> out{};
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = (after != nullptr ? after->buckets()[i] : 0) - before.buckets()[i];
  }
  return out;
}

uint64_t Fold(uint64_t h, int64_t v) {
  h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// PlaceMarker writes the marker 4 bytes into the line starting at `line`.
bool MarkerLineAt(std::string_view content, int64_t line) {
  const size_t at = static_cast<size_t>(line) + 4;
  return line >= 0 && at + sled::kGrepMarker.size() <= content.size() &&
         content.compare(at, sled::kGrepMarker.size(), sled::kGrepMarker) == 0;
}

}  // namespace

Unit PaperAppsUnit(uint64_t seed, bool traced) {
  Unit u;
  Spans spans(traced);
  Checks& checks = u.checks;

  // ---- set-up: the testbed and the text file ----
  const Clock::time_point setup_start = Clock::now();
  sled::TestbedConfig tc;
  tc.kind = sled::StorageKind::kNfs;
  tc.cache_pages = kCachePages;
  tc.io.mode = sled::IoMode::kFifoSync;
  tc.seed = seed;
  sled::Testbed tb = sled::MakeTestbed(tc);
  SimKernel& k = *tb.kernel;
  Process& gen = k.CreateProcess("gen");
  sled::Rng gen_rng(seed * 7919 + 11);
  const Clock::time_point gen_start = Clock::now();
  auto lines = sled::GenerateTextFile(k, gen, kPath, kFileBytes, gen_rng);
  const double gen_s = SecondsSince(gen_start);
  checks.Expect(lines.ok(), "paper_apps: GenerateTextFile failed");
  k.DropCaches();
  auto resolved = k.vfs().Resolve(kPath);
  checks.Expect(resolved.ok(), "paper_apps: generated file does not resolve");
  if (!lines.ok() || !resolved.ok()) {
    return u;
  }
  auto content_of = [&]() -> std::string_view {
    auto view = resolved->fs->ContentView(resolved->ino);
    return view.ok() ? view.value() : std::string_view();
  };
  // Filler is lowercase only, so the marker cannot occur until placed.
  checks.Expect(content_of().find(sled::kGrepMarker) == std::string_view::npos,
                "paper_apps: generated filler contains the marker");

  // Marker positions, one per grep run; the three grep arms reuse them.
  sled::Rng marker_rng(seed * 104729 + 3);
  std::array<int64_t, kGrepRuns> positions{};
  const int64_t span = kFileBytes - sled::kGenLineLen;
  for (int j = 0; j < kGrepRuns; ++j) {
    const int64_t width = span / kGrepRuns;
    const int64_t center = span * j / kGrepRuns + width / 2;
    positions[static_cast<size_t>(j)] =
        center + marker_rng.Uniform(-width / kJitterDivisor, width / kJitterDivisor);
  }
  u.setup_s = SecondsSince(setup_start);

  // ---- measured phase: five arms of the warm-cache protocol ----
  const Clock::time_point wall_start = Clock::now();
  const Flat before = FlattenKernel(k);
  const sled::LatencyHistogram* read_hist = k.obs().metrics().histogram("syscall.read");
  const sled::LatencyHistogram read_before =
      read_hist != nullptr ? *read_hist : sled::LatencyHistogram();
  const int64_t trace_before = k.obs().trace().total();

  std::vector<Process*> app_procs;
  std::vector<Process*> all_procs;
  std::array<int64_t, kArms.size()> arm_ns{};
  WcResult wc_ref;
  bool have_wc_ref = false;
  std::array<bool, kGrepRuns> sleds_found{};
  int64_t marker = -1;
  uint64_t checksum = Fold(0, lines.value());
  for (size_t a = 0; a < kArms.size(); ++a) {
    const Arm& arm = kArms[a];
    for (int j = 0; j < (arm.grep ? kGrepRuns : kWcRuns); ++j) {
      if (arm.grep) {
        Process& mover = k.CreateProcess("marker");
        all_procs.push_back(&mover);
        const int64_t old = marker;
        auto placed = spans.Time(Layer::kMarkerMove, [&] {
          return sled::MoveMarkerScrubbed(k, mover, kPath, old, positions[static_cast<size_t>(j)],
                                          marker_rng);
        });
        checks.Expect(placed.ok(), "paper_apps: MoveMarkerScrubbed failed");
        if (!placed.ok()) {
          continue;
        }
        marker = placed.value();
        const std::string_view content = content_of();
        checks.Expect(MarkerLineAt(content, marker) &&
                          (old < 0 || old == marker || !MarkerLineAt(content, old)),
                      "paper_apps: marker not at its placed offset");
        checksum = Fold(checksum, marker);
      }
      Process& p = k.CreateProcess(arm.name);
      app_procs.push_back(&p);
      all_procs.push_back(&p);
      if (!arm.grep) {
        WcOptions options;
        options.use_sleds = arm.sleds;
        auto r = spans.Time(Layer::kWc, [&] { return WcApp::Run(k, p, kPath, options); });
        checks.Expect(r.ok(), std::string("paper_apps: ") + arm.name + " failed");
        if (r.ok()) {
          if (!have_wc_ref) {
            wc_ref = r.value();
            have_wc_ref = true;
            checksum = Fold(Fold(checksum, wc_ref.words), wc_ref.lines);
          }
          checks.Expect(r.value() == wc_ref && r->bytes == kFileBytes && r->lines == lines.value(),
                        std::string("paper_apps: ") + arm.name + " counts differ");
        }
      } else {
        GrepOptions options;
        options.use_sleds = arm.sleds;
        options.quiet_first_match = true;
        options.kernel_program = arm.program;
        auto r = spans.Time(Layer::kGrep, [&] {
          return GrepApp::Run(k, p, kPath, sled::kGrepMarker, options);
        });
        const bool found = r.ok() && r->found;
        checks.Expect(found, std::string("paper_apps: ") + arm.name + " missed the marker");
        if (a == kGrepSleds) {
          sleds_found[static_cast<size_t>(j)] = found;
        } else if (a == kGrepProg) {
          checks.Expect(found == sleds_found[static_cast<size_t>(j)],
                        "paper_apps: program arm differs from the read arm");
        }
      }
      if (j > 0) {
        arm_ns[a] += p.stats().elapsed().nanos();
      }
    }
    checksum = Fold(checksum, arm_ns[a]);
    u.sim_layers[std::string("arm.") + arm.name + ".sim_s"] = {arm_ns[a] * 1e-9, "s"};
  }
  const size_t export_bytes =
      spans.Time(Layer::kObsExport, [&] { return k.obs().MetricsJson().size(); });
  Flat delta;
  AddDelta(FlattenKernel(k), before, &delta);
  u.wall_s = SecondsSince(wall_start);

  // ---- simulated results (exact) ----
  const int64_t plain_ns = arm_ns[kWcPlain] + arm_ns[kGrepPlain];
  const int64_t sleds_ns = arm_ns[kWcSleds] + arm_ns[kGrepSleds];
  const auto reads = BucketDelta(k.obs().metrics().histogram("syscall.read"), read_before);
  int64_t read_calls = 0;
  for (int64_t n : reads) {
    read_calls += n;
  }
  int64_t app_elapsed_ns = 0;
  int64_t app_bytes = 0;
  for (const Process* p : app_procs) {
    app_elapsed_ns += p->stats().elapsed().nanos();
    app_bytes += p->stats().bytes_read;
  }
  u.sim["sim_elapsed_s"] = {(sleds_ns + arm_ns[kGrepProg]) * 1e-9, "s"};
  u.sim["sled_speedup"] = {sleds_ns > 0 ? static_cast<double>(plain_ns) / sleds_ns : 0.0, "x"};
  u.sim["sim_p50_ms"] = {InterpolatedQuantileNs(reads, 0.50) * 1e-6, "ms"};
  u.sim["sim_p99_ms"] = {InterpolatedQuantileNs(reads, 0.99) * 1e-6, "ms"};
  u.sim["sim_rps_at_slo"] = {app_elapsed_ns > 0 ? read_calls / (app_elapsed_ns * 1e-9) : 0.0,
                             "req/s"};

  MetricMap& layers = u.sim_layers;
  KernelLayerMetrics(delta, &layers);
  int64_t cpu_ns = 0;
  int64_t io_ns = 0;
  int64_t minor = 0;
  int64_t major = 0;
  for (const Process* p : all_procs) {
    cpu_ns += p->stats().cpu_time.nanos();
    io_ns += p->stats().io_time.nanos();
    minor += p->stats().minor_faults;
    major += p->stats().major_faults;
  }
  layers["kernel.sim_cpu_s"] = {cpu_ns * 1e-9, "s"};
  layers["kernel.sim_io_s"] = {io_ns * 1e-9, "s"};
  layers["cache.hit_ratio"] = {
      minor + major > 0 ? static_cast<double>(minor) / static_cast<double>(minor + major) : 0.0,
      "ratio"};
  layers["io.depth_p99"] = {0.0, "count"};  // kFifoSync: no engine queues
  layers["obs.trace_events"] = {static_cast<double>(k.obs().trace().total() - trace_before),
                                "count"};
  const sled::MetricRegistry& reg = k.obs().metrics();
  layers["obs.metric_series"] = {
      static_cast<double>(reg.counters().size() + reg.histograms().size() + reg.gauges().size()),
      "count"};
  layers["failed_frac"] = {checks.attempted() > 0
                               ? static_cast<double>(checks.failed()) / checks.attempted()
                               : 0.0,
                           "ratio"};
  u.checksum = Fold(checksum, static_cast<int64_t>(export_bytes));

  // ---- host per-layer times (traced units) ----
  if (traced) {
    const double processed = static_cast<double>(app_bytes + Get(delta, "progs.bytes_examined"));
    const double app_s = spans.seconds(Layer::kWc) + spans.seconds(Layer::kGrep);
    MetricMap& host = u.host_layers;
    host["workload.gen_s"] = {gen_s, "s"};
    host["workload.gen_mb_per_s"] = {kFileBytes / 1e6 / gen_s, "MB/s"};
    host["workload.marker_move_s"] = {spans.seconds(Layer::kMarkerMove), "s"};
    host["apps.wc_s"] = {spans.seconds(Layer::kWc), "s"};
    host["apps.grep_s"] = {spans.seconds(Layer::kGrep), "s"};
    host["apps.host_ns_per_byte"] = {processed > 0 ? app_s * 1e9 / processed : 0.0, "ns"};
    host["obs.export_s"] = {spans.seconds(Layer::kObsExport), "s"};
    host["bench.driver_s"] = {u.wall_s - spans.total_seconds(), "s"};
  }
  return u;
}

}  // namespace perfbench
