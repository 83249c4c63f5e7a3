#include "src/apps/grep.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "src/common/text_scan.h"
#include "src/sleds/picker.h"

namespace sled {

std::vector<size_t> SearchAll(std::string_view haystack, std::string_view needle) {
  std::vector<size_t> hits;
  const TextSearcher searcher(needle);
  for (size_t pos = searcher.Find(haystack); pos != std::string_view::npos;
       pos = searcher.Find(haystack, pos + 1)) {
    hits.push_back(pos);
  }
  return hits;
}

namespace {

// Per contiguous-run line scanner: takes chunks that arrive in order, searches
// their complete lines, and records matches with enough local context to
// reconstruct global line numbers later. Chunks are searched in place; only
// the partial line at the end of a chunk is carried over to the next one.
class RunScanner {
 public:
  RunScanner(std::string_view pattern, const GrepOptions& options,
             std::vector<GrepMatch>* matches)
      : searcher_(pattern), options_(options), matches_(matches) {}

  // Begin a new contiguous run at `offset`. Flushes nothing: callers must
  // FinishRun() first.
  void StartRun(int64_t offset) {
    run_start_ = offset;
    next_offset_ = offset;
    pending_.clear();
    pending_start_ = offset;
    newlines_ = 0;
    before_buf_.clear();
    after_pending_.clear();
  }

  int64_t next_offset() const { return next_offset_; }

  // Feed the next chunk of the run; returns true if -q satisfied.
  bool Feed(std::string_view data) {
    next_offset_ += static_cast<int64_t>(data.size());
    const size_t last_nl = data.rfind('\n');
    if (last_nl == std::string_view::npos) {
      pending_ += data;
      return false;
    }
    size_t begin = 0;
    if (!pending_.empty()) {
      // Complete the carried line with this chunk's first line.
      begin = data.find('\n') + 1;
      pending_ += data.substr(0, begin);
      if (ScanPending()) {
        return true;
      }
    }
    const bool done = Scan(data.substr(begin, last_nl + 1 - begin), pending_start_);
    pending_start_ += static_cast<int64_t>(last_nl + 1 - begin);
    pending_.assign(data.substr(last_nl + 1));
    return done;
  }

  // End of run: the remainder (no trailing newline) is still a line.
  bool FinishRun() { return !pending_.empty() && ScanPending(); }

  // (newline count, run info) bookkeeping for -n reconstruction.
  struct RunInfo {
    int64_t start = 0;
    int64_t length = 0;
    int64_t newlines = 0;
  };
  RunInfo TakeRunInfo() const { return {run_start_, next_offset_ - run_start_, newlines_}; }

 private:
  bool ScanPending() {
    const bool done = Scan(pending_, pending_start_);
    pending_start_ += static_cast<int64_t>(pending_.size());
    pending_.clear();
    return done;
  }

  // Scan the whole lines in `text`, which starts at file offset `base`. Every
  // line ends in '\n' except, at the end of a run, the last.
  bool Scan(std::string_view text, int64_t base) {
    if (options_.before_context > 0 || options_.after_context > 0) {
      return ScanLinesWithContext(text, base);
    }
    // Search the block once and jump from hit to hit. The pattern holds no
    // '\n', so each hit lies inside one line. Skipped newlines are counted
    // only for -n, the one output that needs them.
    size_t line_start = 0;  // first line whose newline is not yet counted
    auto count_newlines_to = [&](size_t end) {
      if (options_.line_numbers) {
        newlines_ += CountNewlines(text.substr(line_start, end - line_start));
      }
    };
    for (size_t pos = searcher_.Find(text); pos != std::string_view::npos;
         pos = searcher_.Find(text, line_start)) {
      const size_t nl_before = text.rfind('\n', pos);
      const size_t hit_line = nl_before == std::string_view::npos ? 0 : nl_before + 1;
      count_newlines_to(hit_line);
      const size_t line_end = std::min(text.find('\n', pos), text.size());
      if (Record(text.substr(hit_line, line_end - hit_line),
                 base + static_cast<int64_t>(hit_line))) {
        return true;
      }
      if (line_end == text.size()) {
        return false;
      }
      ++newlines_;
      line_start = line_end + 1;
    }
    count_newlines_to(text.size());
    return false;
  }

  // The exact line-at-a-time path, for -A/-B context.
  bool ScanLinesWithContext(std::string_view text, int64_t base) {
    size_t line_start = 0;
    while (line_start < text.size()) {
      const size_t line_end = std::min(text.find('\n', line_start), text.size());
      const std::string_view line = text.substr(line_start, line_end - line_start);
      // Feed -A context of earlier matches in this run.
      for (auto it = after_pending_.begin(); it != after_pending_.end();) {
        (*matches_)[it->first].after.emplace_back(line);
        if (--it->second == 0) {
          it = after_pending_.erase(it);
        } else {
          ++it;
        }
      }
      if (searcher_.Find(line) != std::string_view::npos) {
        if (Record(line, base + static_cast<int64_t>(line_start))) {
          return true;
        }
        if (options_.after_context > 0) {
          after_pending_.emplace_back(matches_->size() - 1, options_.after_context);
        }
      }
      if (options_.before_context > 0) {
        before_buf_.emplace_back(line);
        while (static_cast<int>(before_buf_.size()) > options_.before_context) {
          before_buf_.pop_front();
        }
      }
      if (line_end < text.size()) {
        ++newlines_;
      }
      line_start = line_end + 1;
    }
    return false;
  }

  // Record a matching line; returns true if -q is satisfied.
  bool Record(std::string_view line, int64_t line_offset) {
    GrepMatch m;
    m.line_offset = line_offset;
    // Local line index within this run; converted to a global number after
    // all runs are merged.
    m.line_number = newlines_;
    m.line = std::string(line);
    m.before.assign(before_buf_.begin(), before_buf_.end());
    matches_->push_back(std::move(m));
    return options_.quiet_first_match;
  }

  const TextSearcher searcher_;  // one per grep run
  const GrepOptions& options_;
  std::vector<GrepMatch>* matches_;
  int64_t run_start_ = 0;
  int64_t next_offset_ = 0;
  std::string pending_;  // the partial last line of the chunks fed so far
  int64_t pending_start_ = 0;
  int64_t newlines_ = 0;  // newlines in the run before the line being scanned
  std::deque<std::string> before_buf_;                    // last -B lines
  std::vector<std::pair<size_t, int>> after_pending_;     // match idx, lines left
};

}  // namespace

Result<GrepResult> GrepApp::Run(SimKernel& kernel, Process& process, std::string_view path,
                                std::string_view pattern, const GrepOptions& options) {
  if (pattern.empty() || pattern.find('\n') != std::string_view::npos) {
    return Err::kInval;
  }
  if (options.kernel_program) {
    // Completion-program variant: -q only (the program returns found/offset,
    // not assembled lines). One install + one run replaces the whole
    // read-a-buffer / scan / repeat loop.
    if (!options.quiet_first_match) {
      return Err::kInval;
    }
    SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
    ProgSpec spec;
    spec.kind = ProgKind::kFindFirst;
    spec.pattern = std::string(pattern);
    spec.chunk_bytes = options.buffer_bytes;
    spec.order_by_sleds = options.use_sleds;
    // Same per-byte compute the userspace scan declares, so the two paths
    // differ only in crossings and copies.
    spec.step_cost_ns_per_byte = static_cast<double>(options.costs.grep_per_byte.nanos());
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
    GrepResult result;
    result.found = run->found;
    kernel.ChargeAppCpu(process, options.costs.grep_per_match * (run->found ? 1 : 0));
    return result;
  }
  SLED_ASSIGN_OR_RETURN(int fd, kernel.Open(process, path));
  std::vector<char> buf(static_cast<size_t>(options.buffer_bytes));
  std::vector<GrepMatch> matches;
  std::vector<RunScanner::RunInfo> runs;
  RunScanner scanner(pattern, options, &matches);
  bool done = false;

  auto charge = [&](int64_t n) {
    Duration per_byte = options.costs.grep_per_byte;
    if (options.use_sleds) {
      per_byte += options.costs.sleds_record_per_byte;
    }
    kernel.ChargeAppCpu(process, per_byte * n);
  };

  if (!options.use_sleds) {
    scanner.StartRun(0);
    while (!done) {
      SLED_ASSIGN_OR_RETURN(int64_t n,
                            kernel.Read(process, fd, std::span<char>(buf.data(), buf.size())));
      if (n == 0) {
        done = scanner.FinishRun();
        break;
      }
      charge(n);
      done = scanner.Feed(std::string_view(buf.data(), static_cast<size_t>(n)));
    }
    runs.push_back(scanner.TakeRunInfo());
  } else {
    PickerOptions picker_options;
    picker_options.preferred_chunk_bytes = options.buffer_bytes;
    picker_options.record_oriented = true;
    picker_options.record_separator = '\n';
    SLED_ASSIGN_OR_RETURN(std::unique_ptr<SledsPicker> picker,
                          SledsPicker::Create(kernel, process, fd, picker_options));
    bool in_run = false;
    while (!done) {
      SLED_ASSIGN_OR_RETURN(SledsPicker::Pick pick, picker->NextRead());
      if (pick.length == 0) {
        if (in_run) {
          done = scanner.FinishRun();
          runs.push_back(scanner.TakeRunInfo());
        }
        break;
      }
      if (!in_run || pick.offset != scanner.next_offset()) {
        if (in_run) {
          done = scanner.FinishRun();
          runs.push_back(scanner.TakeRunInfo());
          if (done) {
            break;
          }
        }
        scanner.StartRun(pick.offset);
        in_run = true;
      }
      SLED_RETURN_IF_ERROR(kernel.Lseek(process, fd, pick.offset, Whence::kSet));
      SLED_ASSIGN_OR_RETURN(
          int64_t n, kernel.Read(process, fd,
                                 std::span<char>(buf.data(), static_cast<size_t>(pick.length))));
      if (n != pick.length) {
        // Error path: fd cleanup is best-effort; the original error is the story.
        (void)kernel.Close(process, fd);
        return Err::kIo;
      }
      charge(n);
      done = scanner.Feed(std::string_view(buf.data(), static_cast<size_t>(n)));
      if (done) {
        runs.push_back(scanner.TakeRunInfo());
      }
    }
  }
  SLED_RETURN_IF_ERROR(kernel.Close(process, fd));

  GrepResult result;
  result.found = !matches.empty();
  if (options.quiet_first_match) {
    // -q reports status only.
    kernel.ChargeAppCpu(process, options.costs.grep_per_match *
                                     static_cast<int64_t>(matches.size()));
    return result;
  }

  // Sort matches into file order (the linked-list sort of §5.2) and resolve
  // line numbers from per-run newline counts.
  kernel.ChargeAppCpu(process,
                      options.costs.grep_per_match * static_cast<int64_t>(matches.size()));
  std::sort(matches.begin(), matches.end(),
            [](const GrepMatch& a, const GrepMatch& b) { return a.line_offset < b.line_offset; });
  if (options.line_numbers) {
    std::sort(runs.begin(), runs.end(),
              [](const RunScanner::RunInfo& a, const RunScanner::RunInfo& b) {
                return a.start < b.start;
              });
    for (GrepMatch& m : matches) {
      int64_t newlines_before = 0;
      for (const RunScanner::RunInfo& run : runs) {
        if (run.start + run.length <= m.line_offset) {
          newlines_before += run.newlines;
        } else if (run.start <= m.line_offset) {
          newlines_before += m.line_number;  // local index within this run
          break;
        }
      }
      m.line_number = newlines_before + 1;
    }
  } else {
    for (GrepMatch& m : matches) {
      m.line_number = 0;
    }
  }
  result.matches = std::move(matches);
  return result;
}

}  // namespace sled
