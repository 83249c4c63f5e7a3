// The simulator's one event scheduler: a binary heap ordered by
// (deadline, schedule sequence). It carries the open-loop engine's client
// arrivals (DESIGN.md §12) and the SimKernel's pending page arrivals.
//
// Semantics (pinned by tests/openload_diff_test.cc):
//   * ExpireUpTo(t) fires every timer with effective deadline <= t in
//     nondecreasing deadline order; ties fire in schedule order (FIFO).
//   * Deadlines in the past are clamped to the current time: a timer never
//     fires before it is scheduled, and never earlier than a previously
//     fired time (scheduler time is monotone).
//   * Callbacks may Schedule freely; a timer scheduled for the current
//     instant from inside a callback fires in the same sweep, after the
//     timers already due at that instant.
//   * A scheduled timer always fires; there is no cancellation.
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
  uint64_t now() const { return now_; }
  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  void Schedule(uint64_t deadline, T payload) {
    if (deadline < now_) {
      deadline = now_;
    }
    heap_.push(Entry{deadline, next_seq_++, std::move(payload)});
  }

  // Advance scheduler time to `t`, invoking fn(deadline, payload) for every
  // timer with deadline <= t (order documented above). fn may call Schedule.
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

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  uint64_t next_seq_ = 1;
  uint64_t now_ = 0;
};

}  // namespace sled

#endif  // SLEDS_SRC_OPENLOAD_HEAP_SCHED_H_
