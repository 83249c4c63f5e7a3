// Microbenchmarks for the SLEDs hot paths: cache ops, kernel SLED scans,
// picker stepping, the text kernels behind grep and wc, and FITS pixel
// codecs. These bound the CPU overhead the SLEDs machinery adds per I/O.
//
// Two layers:
//  * A wall-clock suite (std::chrono, real time — NOT the simulated clock)
//    that pits the run-indexed page cache against naive page-at-a-time
//    replicas of the old algorithms and emits a BENCH_micro.json block.
//  * The google-benchmark registrations, run afterwards.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/app_costs.h"
#include "src/cache/page_cache.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/common/text_scan.h"
#include "src/device/disk_device.h"
#include "src/fits/fits.h"
#include "src/fs/extent_file_system.h"
#include "src/kernel/sim_kernel.h"
#include "src/sleds/picker.h"
#include "src/workload/text_gen.h"

namespace sled {
namespace {

void BM_PageCacheTouchHit(benchmark::State& state) {
  PageCache cache({.capacity_pages = 4096});
  for (int64_t p = 0; p < 4096; ++p) {
    cache.Insert({1, p}, false);
  }
  int64_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Touch({1, p}));
    p = (p + 1) & 4095;
  }
}
BENCHMARK(BM_PageCacheTouchHit);

void BM_PageCacheInsertEvict(benchmark::State& state) {
  PageCache cache({.capacity_pages = 1024});
  int64_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Insert({1, p++}, false));
  }
}
BENCHMARK(BM_PageCacheInsertEvict);

struct KernelFixture {
  std::unique_ptr<SimKernel> kernel;
  Process* proc = nullptr;
  int fd = -1;

  explicit KernelFixture(int64_t file_pages, int64_t stripe_period = 16,
                         int64_t stripe_len = 8) {
    KernelConfig config;
    config.cache.capacity_pages = file_pages;
    kernel = std::make_unique<SimKernel>(config);
    auto fs = std::make_unique<ExtFs>("ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{}));
    (void)kernel->Mount("/", std::move(fs));
    proc = &kernel->CreateProcess("bench");
    const int cfd = kernel->Create(*proc, "/f").value();
    const std::string data(static_cast<size_t>(file_pages * kPageSize), 'x');
    (void)kernel->Write(*proc, cfd, std::span<const char>(data.data(), data.size()));
    (void)kernel->Close(*proc, cfd);
    // Cache alternating stripes so scans see many SLED transitions.
    kernel->DropCaches();
    fd = kernel->Open(*proc, "/f").value();
    char b;
    for (int64_t page = 0; page < file_pages; page += stripe_period) {
      for (int64_t q = page; q < std::min(page + stripe_len, file_pages); ++q) {
        (void)kernel->Lseek(*proc, fd, q * kPageSize, Whence::kSet);
        (void)kernel->Read(*proc, fd, std::span<char>(&b, 1));
      }
    }
  }
};

void BM_SledsGetScan(benchmark::State& state) {
  KernelFixture fx(state.range(0));
  for (auto _ : state) {
    auto sleds = fx.kernel->IoctlSledsGet(*fx.proc, fx.fd);
    benchmark::DoNotOptimize(sleds);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SledsGetScan)->Arg(1024)->Arg(8192)->Arg(32768);

void BM_PickerFullWalk(benchmark::State& state) {
  KernelFixture fx(state.range(0));
  for (auto _ : state) {
    auto picker = SledsPicker::Create(*fx.kernel, *fx.proc, fx.fd, PickerOptions{}).value();
    int64_t total = 0;
    while (true) {
      auto pick = picker->NextRead().value();
      if (pick.length == 0) {
        break;
      }
      total += pick.length;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PickerFullWalk)->Arg(1024)->Arg(8192);

// One 64 KiB block of the wc/grep generator's text (GenerateTextFile, no
// marker), read back through the simulated kernel: the unit grep searches and
// wc counts per read() at the default buffer size.
std::string GeneratorBlock() {
  KernelConfig config;
  config.cache.capacity_pages = 64;
  SimKernel kernel(config);
  (void)kernel.Mount("/", std::make_unique<ExtFs>(
                              "ext2", std::make_unique<DiskDevice>(DiskDeviceConfig{})));
  Process& proc = kernel.CreateProcess("gen");
  Rng rng(1);
  (void)GenerateTextFile(kernel, proc, "/t.txt", kDefaultAppBuffer, rng);
  std::string block(static_cast<size_t>(kDefaultAppBuffer), '\0');
  const int fd = kernel.Open(proc, "/t.txt").value();
  block.resize(static_cast<size_t>(
      kernel.Read(proc, fd, std::span<char>(block.data(), block.size())).value()));
  return block;
}

// The searcher grep builds once per run, scanning one block for the marker
// (absent, as in all but one block of a grep -q run).
void BM_HorspoolSearch(benchmark::State& state) {
  const std::string block = GeneratorBlock();
  const TextSearcher searcher(kGrepMarker);
  for (auto _ : state) {
    benchmark::DoNotOptimize(searcher.Find(block));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_HorspoolSearch);

// wc's (and the kCount program's) count kernel over one block.
void BM_TextCount(benchmark::State& state) {
  const std::string block = GeneratorBlock();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountText(block, false));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_TextCount);

void BM_FitsPixelCodec(benchmark::State& state) {
  const int bitpix = static_cast<int>(state.range(0));
  char buf[8];
  double v = 1.5;
  for (auto _ : state) {
    FitsEncodePixel(v, bitpix, buf);
    v = FitsDecodePixel(buf, bitpix) + 1.0;
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_FitsPixelCodec)->Arg(16)->Arg(-32)->Arg(-64);

void BM_KernelCachedRead(benchmark::State& state) {
  KernelFixture fx(256);
  // Warm everything.
  char buf[65536];
  (void)fx.kernel->Lseek(*fx.proc, fx.fd, 0, Whence::kSet);
  while (fx.kernel->Read(*fx.proc, fx.fd, std::span<char>(buf, sizeof(buf))).value() > 0) {
  }
  for (auto _ : state) {
    (void)fx.kernel->Lseek(*fx.proc, fx.fd, 0, Whence::kSet);
    benchmark::DoNotOptimize(
        fx.kernel->Read(*fx.proc, fx.fd, std::span<char>(buf, sizeof(buf))));
  }
  state.SetBytesProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_KernelCachedRead);

// ---------------------------------------------------------------------------
// Wall-clock suite. Everything below measures *host* time with
// std::chrono::steady_clock — the simulated clock plays no part — comparing
// the run-indexed cache paths against faithful replicas of the old
// page-at-a-time algorithms built from the same public API.

// Best-of-N wall time in microseconds (min is robust against scheduler noise).
template <typename F>
double BestWallMicros(int iters, F&& f) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return best;
}

// Replica of the pre-index FSLEDS_GET: probe the cache for every page of the
// file and merge adjacent equal-level pages.
SledVector NaiveSledsGet(SimKernel& k, uint32_t fs_id, InodeNum ino, FileId fid) {
  FileSystem* fs = k.vfs().FsById(fs_id);
  const int64_t size = fs->SizeOf(ino);
  const int64_t npages = PagesFor(size);
  SledVector sleds;
  for (int64_t page = 0; page < npages; ++page) {
    int level = kMemoryLevel;
    if (!k.cache().Contains({fid, page})) {
      level = k.sleds_table().GlobalLevelOf(fs_id, fs->LevelOf(ino, page)).value();
    }
    const int64_t page_bytes = std::min(kPageSize, size - page * kPageSize);
    if (!sleds.empty() && sleds.back().level == level) {
      sleds.back().length += page_bytes;
      continue;
    }
    const SledsTable::Row& row = k.sleds_table().row(level);
    Sled s;
    s.offset = page * kPageSize;
    s.length = page_bytes;
    s.latency = row.chars.latency.ToSeconds();
    s.bandwidth = row.chars.bandwidth_bps;
    s.level = level;
    sleds.push_back(s);
  }
  return sleds;
}

// Replica of the pre-index readahead planner: extend the run one Contains
// probe at a time.
int64_t NaivePlanRun(const PageCache& cache, FileId fid, int64_t page, int64_t window,
                     int64_t file_pages) {
  int64_t run = 1;
  while (run < window && page + run < file_pages && !cache.Contains({fid, page + run})) {
    ++run;
  }
  return run;
}

int64_t IndexedPlanRun(const PageCache& cache, FileId fid, int64_t page, int64_t window,
                       int64_t file_pages) {
  int64_t run = std::min(window, file_pages - page);
  if (const auto next = cache.NextResidentRun(fid, page + 1); next.has_value()) {
    run = std::min(run, next->first - page);
  }
  return std::max<int64_t>(run, 1);
}

struct MicroResult {
  double naive_us = 0;
  double indexed_us = 0;
  double speedup() const { return indexed_us > 0 ? naive_us / indexed_us : 0; }
};

// Sparse-file FSLEDS_GET: 32768 pages (128 MiB), half resident in 128-page
// stripes — a sparsely cached file whose scan is ~256 runs vs 32768 pages.
MicroResult MeasureSledsGet() {
  constexpr int64_t kPages = 32768;
  KernelFixture fx(kPages, /*stripe_period=*/256, /*stripe_len=*/128);
  const OpenFile* of = fx.proc->FindFd(fx.fd);
  const uint32_t fs_id = of->fs_id;
  const InodeNum ino = of->ino;
  const FileId fid = of->fid;
  // Sanity: the two scans must agree before timing them.
  const SledVector naive = NaiveSledsGet(*fx.kernel, fs_id, ino, fid);
  const SledVector indexed = fx.kernel->IoctlSledsGet(*fx.proc, fx.fd).value();
  SLED_CHECK(naive.size() == indexed.size(), "sled count mismatch: %zu vs %zu", naive.size(),
             indexed.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    SLED_CHECK(naive[i].offset == indexed[i].offset && naive[i].length == indexed[i].length &&
                   naive[i].level == indexed[i].level,
               "sled %zu mismatch", i);
  }
  MicroResult r;
  r.naive_us = BestWallMicros(15, [&] {
    benchmark::DoNotOptimize(NaiveSledsGet(*fx.kernel, fs_id, ino, fid));
  });
  r.indexed_us = BestWallMicros(15, [&] {
    benchmark::DoNotOptimize(fx.kernel->IoctlSledsGet(*fx.proc, fx.fd).value());
  });
  return r;
}

// Readahead planning across every miss page of a striped cache.
MicroResult MeasurePlanRun() {
  constexpr int64_t kPages = 1 << 17;
  constexpr int64_t kWindow = 32;
  constexpr FileId kFid = 7;
  PageCache cache({.capacity_pages = kPages});
  for (int64_t page = 0; page < kPages; page += 16) {
    for (int64_t q = page; q < page + 8; ++q) {
      cache.Insert({kFid, q}, false);
    }
  }
  auto sweep = [&](auto&& plan) {
    int64_t total = 0;
    for (int64_t page = 8; page < kPages; page += 16) {
      total += plan(cache, kFid, page, kWindow, kPages);  // pages 8..15 missed
    }
    return total;
  };
  SLED_CHECK(sweep(NaivePlanRun) == sweep(IndexedPlanRun), "plan-run sweep mismatch");
  MicroResult r;
  r.naive_us = BestWallMicros(15, [&] { benchmark::DoNotOptimize(sweep(NaivePlanRun)); });
  r.indexed_us = BestWallMicros(15, [&] { benchmark::DoNotOptimize(sweep(IndexedPlanRun)); });
  return r;
}

// Writeback flush lookup: AllDirtyPages over 100k resident pages with a
// sparse dirty set, vs the old full-cache scan (replicated on a mirror map).
MicroResult MeasureAllDirty() {
  constexpr int64_t kFiles = 10;
  constexpr int64_t kPagesPerFile = 10000;
  PageCache cache({.capacity_pages = kFiles * kPagesPerFile});
  std::unordered_map<PageKey, bool, PageKeyHash> mirror;
  for (int64_t f = 1; f <= kFiles; ++f) {
    for (int64_t page = 0; page < kPagesPerFile; ++page) {
      const bool dirty = page % 64 == 0;
      cache.Insert({static_cast<FileId>(f), page}, dirty);
      mirror[{static_cast<FileId>(f), page}] = dirty;
    }
  }
  auto naive_all_dirty = [&] {
    std::vector<PageKey> out;
    for (const auto& [key, dirty] : mirror) {
      if (dirty) {
        out.push_back(key);
      }
    }
    std::sort(out.begin(), out.end(), [](const PageKey& a, const PageKey& b) {
      return a.file != b.file ? a.file < b.file : a.page < b.page;
    });
    return out;
  };
  SLED_CHECK(naive_all_dirty() == cache.AllDirtyPages(), "dirty-set mismatch");
  MicroResult r;
  r.naive_us = BestWallMicros(15, [&] { benchmark::DoNotOptimize(naive_all_dirty()); });
  r.indexed_us = BestWallMicros(15, [&] { benchmark::DoNotOptimize(cache.AllDirtyPages()); });
  return r;
}

void RunWallClockSuite() {
  const MicroResult sleds = MeasureSledsGet();
  const MicroResult plan = MeasurePlanRun();
  const MicroResult dirty = MeasureAllDirty();
  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"sleds_get_sparse_32768p\": "
      "{\"naive_us\": %.1f, \"indexed_us\": %.1f, \"speedup\": %.2f},\n"
      "  \"readahead_plan_sweep\": "
      "{\"naive_us\": %.1f, \"indexed_us\": %.1f, \"speedup\": %.2f},\n"
      "  \"all_dirty_pages_100k\": "
      "{\"naive_us\": %.1f, \"indexed_us\": %.1f, \"speedup\": %.2f}\n"
      "}",
      sleds.naive_us, sleds.indexed_us, sleds.speedup(), plan.naive_us, plan.indexed_us,
      plan.speedup(), dirty.naive_us, dirty.indexed_us, dirty.speedup());
  PrintBenchMetrics("micro", json);
}

}  // namespace
}  // namespace sled

int main(int argc, char** argv) {
  sled::RunWallClockSuite();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
