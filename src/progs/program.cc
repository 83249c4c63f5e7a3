#include "src/progs/program.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/text_scan.h"

namespace sled {
namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t GetBe(const char* in, int n) {
  uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v = (v << 8) | static_cast<uint8_t>(in[i]);
  }
  return v;
}

int64_t ReadI64Le(std::string_view data, size_t at) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(data[at + static_cast<size_t>(i)]);
  }
  return static_cast<int64_t>(v);
}

}  // namespace

int64_t ProgElementSize(int bitpix) { return (bitpix < 0 ? -bitpix : bitpix) / 8; }

double ProgDecodeBe(const char* in, int bitpix) {
  switch (bitpix) {
    case 8:
      return static_cast<double>(GetBe(in, 1));
    case 16:
      return static_cast<double>(static_cast<int16_t>(GetBe(in, 2)));
    case 32:
      return static_cast<double>(static_cast<int32_t>(GetBe(in, 4)));
    case -32:
      return static_cast<double>(std::bit_cast<float>(static_cast<uint32_t>(GetBe(in, 4))));
    case -64:
      return std::bit_cast<double>(GetBe(in, 8));
    default:
      return 0.0;  // Create() rejects other widths
  }
}

CompletionProgram::CompletionProgram(const ProgSpec& spec) : spec_(spec) {}

Result<CompletionProgram> CompletionProgram::Create(const ProgSpec& spec) {
  if (spec.pattern.size() > static_cast<size_t>(kProgMaxPattern)) {
    return Err::kInval;
  }
  if (spec.chunk_bytes <= 0 || spec.limits.max_step_bytes <= 0 || spec.limits.max_resubmits < 0) {
    return Err::kInval;
  }
  if (spec.step_cost_ns_per_byte < 0.0) {
    return Err::kInval;
  }
  switch (spec.kind) {
    case ProgKind::kFindFirst:
      if (spec.pattern.empty()) {
        return Err::kInval;
      }
      break;
    case ProgKind::kCount:
      break;
    case ProgKind::kChainWalk:
      if (spec.block_bytes < 16 || spec.start_offset < 0) {
        return Err::kInval;
      }
      break;
    case ProgKind::kHistogram:
      if (spec.num_bins <= 0 || spec.num_bins > kProgMaxBins || spec.element_count < 0 ||
          spec.data_offset < 0) {
        return Err::kInval;
      }
      if (ProgElementSize(spec.bitpix) == 0 ||
          (spec.bitpix != 8 && spec.bitpix != 16 && spec.bitpix != 32 && spec.bitpix != -32 &&
           spec.bitpix != -64)) {
        return Err::kInval;
      }
      break;
  }
  CompletionProgram prog(spec);
  std::memcpy(prog.pattern_.data(), spec.pattern.data(), spec.pattern.size());
  prog.pattern_len_ = static_cast<int32_t>(spec.pattern.size());
  prog.elem_size_ = ProgElementSize(spec.bitpix);
  return prog;
}

CompletionProgram::Action CompletionProgram::Abort(ProgStatus status) {
  result_.status = status;
  return Action{.kind = Action::Kind::kAbort};
}

// Every kSeek is one program-driven chained read — the hop that would have
// been a Lseek+Read round trip through the app. Budgeted.
CompletionProgram::Action CompletionProgram::SeekNext(int64_t offset, int64_t length) {
  if (offset < 0 || length <= 0 || offset + length > file_size_) {
    return Abort(ProgStatus::kFaulted);
  }
  if (result_.resubmits >= spec_.limits.max_resubmits) {
    return Abort(ProgStatus::kAbortedResubmits);
  }
  ++result_.resubmits;
  return Action{.kind = Action::Kind::kSeek, .offset = offset, .length = length};
}

CompletionProgram::Action CompletionProgram::Start(int64_t file_size) {
  file_size_ = file_size;
  switch (spec_.kind) {
    case ProgKind::kFindFirst:
    case ProgKind::kCount:
      return Action{.kind = Action::Kind::kNext};
    case ProgKind::kChainWalk: {
      if (spec_.start_offset + spec_.block_bytes > file_size_) {
        return Abort(ProgStatus::kFaulted);
      }
      // The head block is the installed first read, not a chained one: a
      // resubmit count of N means N completions fed the *next* hop.
      return Action{.kind = Action::Kind::kSeek,
                    .offset = spec_.start_offset,
                    .length = spec_.block_bytes};
    }
    case ProgKind::kHistogram: {
      cursor_ = spec_.data_offset;
      elements_done_ = 0;
      phase_ = 0;
      lo_ = std::numeric_limits<double>::infinity();
      hi_ = -std::numeric_limits<double>::infinity();
      if (spec_.element_count == 0) {
        result_.min_value = 0.0;
        result_.max_value = 0.0;
        return Action{.kind = Action::Kind::kDone};
      }
      if (spec_.data_offset + spec_.element_count * elem_size_ > file_size_) {
        return Abort(ProgStatus::kFaulted);
      }
      return HistogramAdvance();
    }
  }
  return Abort(ProgStatus::kFaulted);
}

CompletionProgram::Action CompletionProgram::OnComplete(int64_t offset, std::string_view data) {
  ++result_.invocations;
  result_.bytes_examined += static_cast<int64_t>(data.size());
  if (result_.bytes_examined > spec_.limits.max_step_bytes) {
    return Abort(ProgStatus::kAbortedSteps);
  }
  switch (spec_.kind) {
    case ProgKind::kFindFirst:
      return FindFirstChunk(offset, data);
    case ProgKind::kCount:
      return CountChunk(data);
    case ProgKind::kChainWalk:
      return ChainWalkBlock(offset, data);
    case ProgKind::kHistogram:
      return HistogramChunk(data);
  }
  return Abort(ProgStatus::kFaulted);
}

CompletionProgram::Action CompletionProgram::OnPlanEnd() {
  return Action{.kind = Action::Kind::kDone};
}

CompletionProgram::Action CompletionProgram::FindFirstChunk(int64_t offset,
                                                            std::string_view data) {
  const std::string_view needle(pattern_.data(), static_cast<size_t>(pattern_len_));
  // Chunks are overlapped by pattern_len-1 bytes by the planner, so a match
  // straddling a nominal chunk boundary is seen by the chunk it starts in.
  const size_t pos = data.find(needle);
  if (pos == std::string_view::npos) {
    return Action{.kind = Action::Kind::kNext};
  }
  result_.found = true;
  result_.match_offset = offset + static_cast<int64_t>(pos);
  return Action{.kind = Action::Kind::kDone, .cancel_pending = true};
}

CompletionProgram::Action CompletionProgram::CountChunk(std::string_view data) {
  // Chunks arrive in file order (the kernel keeps kCount plans sequential),
  // so a single in_word_ carry reproduces wc's seam merge exactly.
  const TextCount count = CountText(data, in_word_);
  result_.lines += count.lines;
  result_.words += count.words;
  in_word_ = count.in_word;
  result_.bytes += static_cast<int64_t>(data.size());
  return Action{.kind = Action::Kind::kNext};
}

CompletionProgram::Action CompletionProgram::ChainWalkBlock(int64_t offset,
                                                            std::string_view data) {
  // Block layout (workload chain_gen): [0,8) next-block byte offset (int64
  // LE, -1 = end of chain); [8,16) name length; [16,16+len) name bytes.
  if (data.size() < 16) {
    return Abort(ProgStatus::kFaulted);
  }
  const int64_t next = ReadI64Le(data, 0);
  const int64_t name_len = ReadI64Le(data, 8);
  if (name_len < 0 || 16 + name_len > static_cast<int64_t>(data.size())) {
    return Abort(ProgStatus::kFaulted);
  }
  const std::string_view name = data.substr(16, static_cast<size_t>(name_len));
  ++result_.blocks_visited;
  for (char c : name) {
    result_.chain_hash = (result_.chain_hash ^ static_cast<uint8_t>(c)) * kFnvPrime;
  }
  const std::string_view filter(pattern_.data(), static_cast<size_t>(pattern_len_));
  if (!filter.empty() && name.find(filter) != std::string_view::npos) {
    if (result_.names_matched < kProgMaxRecorded) {
      result_.matched_offsets[static_cast<size_t>(result_.names_matched)] = offset;
    }
    ++result_.names_matched;
    result_.matched_count = static_cast<int32_t>(
        std::min<int64_t>(result_.names_matched, kProgMaxRecorded));
  }
  if (next < 0) {
    return Action{.kind = Action::Kind::kDone};
  }
  return SeekNext(next, spec_.block_bytes);
}

CompletionProgram::Action CompletionProgram::HistogramAdvance() {
  const int64_t total = spec_.element_count;
  if (elements_done_ >= total) {
    if (phase_ == 0) {
      // Pass flip *inside the completion path*: the last min/max completion
      // directly submits the first binning read (fimhisto's pass chaining).
      if (!std::isfinite(lo_)) {
        lo_ = 0.0;
        hi_ = 0.0;
      }
      result_.min_value = lo_;
      result_.max_value = hi_;
      width_ = hi_ > lo_ ? (hi_ - lo_) / spec_.num_bins : 1.0;
      phase_ = 1;
      elements_done_ = 0;
      cursor_ = spec_.data_offset;
    } else {
      return Action{.kind = Action::Kind::kDone};
    }
  }
  // Whole elements per chunk: round the chunk down to an element multiple so
  // no pixel ever straddles two completions.
  int64_t elems = std::max<int64_t>(spec_.chunk_bytes / elem_size_, 1);
  elems = std::min(elems, total - elements_done_);
  return SeekNext(cursor_, elems * elem_size_);
}

CompletionProgram::Action CompletionProgram::HistogramChunk(std::string_view data) {
  if (data.size() % static_cast<size_t>(elem_size_) != 0) {
    return Abort(ProgStatus::kFaulted);
  }
  const int64_t elems = static_cast<int64_t>(data.size()) / elem_size_;
  const char* in = data.data();
  if (phase_ == 0) {
    for (int64_t i = 0; i < elems; ++i, in += elem_size_) {
      const double v = ProgDecodeBe(in, spec_.bitpix);
      lo_ = std::min(lo_, v);
      hi_ = std::max(hi_, v);
    }
  } else {
    for (int64_t i = 0; i < elems; ++i, in += elem_size_) {
      const double v = ProgDecodeBe(in, spec_.bitpix);
      int bin = static_cast<int>((v - lo_) / width_);
      bin = std::clamp(bin, 0, spec_.num_bins - 1);
      ++result_.bins[static_cast<size_t>(bin)];
    }
  }
  elements_done_ += elems;
  cursor_ += elems * elem_size_;
  return HistogramAdvance();
}

}  // namespace sled
