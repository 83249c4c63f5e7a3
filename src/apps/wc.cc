#include "src/apps/wc.h"

#include <algorithm>
#include <vector>

#include "src/common/text_scan.h"
#include "src/sleds/picker.h"

namespace sled {
namespace {

// Counts for one contiguous chunk, processed in isolation.
struct ChunkCount {
  int64_t offset = 0;
  int64_t length = 0;
  int64_t lines = 0;
  int64_t words = 0;  // words fully or partially inside the chunk
  bool starts_in_word = false;
  bool ends_in_word = false;
};

ChunkCount CountChunk(int64_t offset, std::string_view data) {
  const TextCount count = CountText(data, /*in_word=*/false);
  return ChunkCount{.offset = offset,
                    .length = static_cast<int64_t>(data.size()),
                    .lines = count.lines,
                    .words = count.words,
                    .starts_in_word = !data.empty() && !IsTextSpace(data.front()),
                    .ends_in_word = count.in_word};
}

// Fetch [offset, offset+length) either by read() into `buf` or through the
// mmap path; returns a view of the bytes.
Result<std::string_view> FetchChunk(SimKernel& kernel, Process& process, int fd, int64_t offset,
                                    int64_t length, bool use_mmap, std::vector<char>* buf) {
  if (use_mmap) {
    return kernel.MmapRead(process, fd, offset, length);
  }
  SLED_RETURN_IF_ERROR(kernel.Lseek(process, fd, offset, Whence::kSet));
  SLED_ASSIGN_OR_RETURN(
      int64_t n,
      kernel.Read(process, fd, std::span<char>(buf->data(), static_cast<size_t>(length))));
  return std::string_view(buf->data(), static_cast<size_t>(n));
}

}  // namespace

Result<WcResult> WcApp::Run(SimKernel& kernel, Process& process, std::string_view path,
                            const WcOptions& options) {
  if (options.kernel_program) {
    // Completion-program variant: the kernel runs the whole count at I/O
    // completion and returns three counters — no per-buffer crossings, no
    // user copies. Plans are sequential, so use_sleds does not apply.
    SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
    ProgSpec spec;
    spec.kind = ProgKind::kCount;
    spec.chunk_bytes = options.buffer_bytes;
    spec.step_cost_ns_per_byte = static_cast<double>(options.costs.wc_per_byte.nanos());
    auto run = [&]() -> Result<ProgResult> {
      SLED_RETURN_IF_ERROR(kernel.InstallProgram(process, fd, spec));
      return kernel.RunProgram(process, fd);
    }();
    if (!run.ok()) {
      // Error path: fd cleanup is best-effort; the original error is the story.
      (void)kernel.Close(process, fd);
      return run.error();
    }
    SLED_RETURN_IF_ERROR(kernel.Close(process, fd));
    if (run->status != ProgStatus::kOk) {
      return Err::kInval;  // program exceeded its sandbox budget
    }
    return WcResult{run->lines, run->words, run->bytes};
  }
  SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
  std::vector<char> buf(static_cast<size_t>(options.buffer_bytes));
  std::vector<ChunkCount> chunks;

  if (!options.use_sleds) {
    // Plain GNU wc: one linear pass.
    SLED_ASSIGN_OR_RETURN(InodeAttr attr, kernel.Fstat(process, fd));
    int64_t offset = 0;
    while (offset < attr.size) {
      const int64_t want = std::min(options.buffer_bytes, attr.size - offset);
      SLED_ASSIGN_OR_RETURN(std::string_view data, FetchChunk(kernel, process, fd, offset, want,
                                                              options.use_mmap, &buf));
      if (data.empty()) {
        break;
      }
      chunks.push_back(CountChunk(offset, data));
      kernel.ChargeAppCpu(process, options.costs.wc_per_byte *
                                       static_cast<int64_t>(data.size()));
      offset += static_cast<int64_t>(data.size());
    }
  } else {
    // SLEDs mode: the Figure 5 loop — ask the library where to read next.
    PickerOptions picker_options;
    picker_options.preferred_chunk_bytes = options.buffer_bytes;
    SLED_ASSIGN_OR_RETURN(std::unique_ptr<SledsPicker> picker,
                          SledsPicker::Create(kernel, process, fd, picker_options));
    while (true) {
      SLED_ASSIGN_OR_RETURN(SledsPicker::Pick pick, picker->NextRead());
      if (pick.length == 0) {
        break;
      }
      SLED_ASSIGN_OR_RETURN(std::string_view data,
                            FetchChunk(kernel, process, fd, pick.offset, pick.length,
                                       options.use_mmap, &buf));
      if (static_cast<int64_t>(data.size()) != pick.length) {
        // Error path: fd cleanup is best-effort; the original error is the story.
        (void)kernel.Close(process, fd);
        return Err::kIo;
      }
      chunks.push_back(CountChunk(pick.offset, data));
      kernel.ChargeAppCpu(process, (options.costs.wc_per_byte +
                                    options.costs.sleds_pick_per_byte) *
                                       static_cast<int64_t>(data.size()));
    }
  }
  SLED_RETURN_IF_ERROR(kernel.Close(process, fd));

  // Merge chunk counts. Words spanning a seam between adjacent chunks were
  // counted twice (once as a trailing fragment, once as a leading one).
  std::sort(chunks.begin(), chunks.end(),
            [](const ChunkCount& a, const ChunkCount& b) { return a.offset < b.offset; });
  WcResult result;
  for (size_t i = 0; i < chunks.size(); ++i) {
    result.lines += chunks[i].lines;
    result.words += chunks[i].words;
    result.bytes += chunks[i].length;
    if (i > 0 && chunks[i - 1].offset + chunks[i - 1].length == chunks[i].offset &&
        chunks[i - 1].ends_in_word && chunks[i].starts_in_word) {
      --result.words;
    }
  }
  return result;
}

}  // namespace sled
