// Heap-based reference scheduler: the semantic oracle the timing wheel is
// differentially tested against, and the baseline bench_openloop times the
// wheel's O(1) paths over. A std::priority_queue ordered by
// (deadline, schedule sequence) — exactly the wheel's contract: nondecreasing
// deadline, FIFO among ties, past deadlines clamped to the current time.
#ifndef SLEDS_SRC_OPENLOAD_HEAP_SCHED_H_
#define SLEDS_SRC_OPENLOAD_HEAP_SCHED_H_

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

namespace sled {

template <typename T>
class HeapScheduler {
 public:
  void Reserve(size_t timers) { storage_.reserve(timers); }

  uint64_t now() const { return now_; }
  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  void Schedule(uint64_t deadline, T payload) {
    if (deadline < now_) {
      deadline = now_;
    }
    heap_.push(Entry{deadline, next_seq_++, std::move(payload)});
  }

  template <typename Fn>
  void ExpireUpTo(uint64_t t, Fn&& fn) {
    if (t < now_) {
      return;
    }
    while (!heap_.empty() && heap_.top().deadline <= t) {
      Entry e = heap_.top();
      heap_.pop();
      now_ = e.deadline;
      fn(e.deadline, e.payload);
    }
    if (now_ < t) {
      now_ = t;
    }
  }

 private:
  struct Entry {
    uint64_t deadline;
    uint64_t seq;
    T payload;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.deadline != b.deadline ? a.deadline > b.deadline : a.seq > b.seq;
    }
  };

  std::vector<Entry> storage_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_{Later{}, std::move(storage_)};
  uint64_t next_seq_ = 1;
  uint64_t now_ = 0;
};

}  // namespace sled

#endif  // SLEDS_SRC_OPENLOAD_HEAP_SCHED_H_
