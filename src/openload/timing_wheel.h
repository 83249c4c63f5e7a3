// Hierarchical timing wheel: the event scheduler at the core of the
// open-loop traffic engine (DESIGN.md §12), and the replacement for the
// SimKernel's heap-based arrival queue.
//
// Three levels of 65536 slots each over 1 ns ticks give O(1) amortized
// schedule/expire out to 2^48 ns (~3.26 days); deadlines beyond the horizon
// park in the top level and re-cascade. Wide levels are the perf-critical
// choice: a timer scheduled ~10^8 ns ahead (an open-loop client's next
// arrival) lands at level 1 and crosses exactly one cascade before firing —
// three random slab touches per event total (place, cascade, fire) — where
// 256-slot levels would cost five. Timers live in a preallocated slab with
// intrusive int32 doubly-linked list links — steady-state operation
// (schedule, cascade, expire) allocates nothing; the slab grows only
// when the live-timer high-water mark does. Per-level two-tier occupancy
// bitmaps (a summary bit per 64-slot word) let an expiry sweep jump straight
// from one occupied slot start to the next, so advancing across seconds of
// empty simulated time costs a handful of word scans, not millions of empty
// ticks.
//
// Semantics (pinned by tests/openload_diff_test.cc against a
// (deadline, sequence)-ordered std::priority_queue oracle):
//   * ExpireUpTo(t) fires every timer with effective deadline <= t in
//     nondecreasing deadline order; ties fire in schedule order (FIFO).
//   * Deadlines in the past are clamped to the current wheel time: a timer
//     never fires before it is scheduled, and never earlier than a
//     previously fired time (wheel time is monotone).
//   * Callbacks may Schedule freely; a timer scheduled for the current
//     instant from inside a callback fires in the same sweep, after the batch
//     it was scheduled from — exactly where the oracle puts it.
//   * A scheduled timer always fires; there is no cancellation.
#ifndef SLEDS_SRC_OPENLOAD_TIMING_WHEEL_H_
#define SLEDS_SRC_OPENLOAD_TIMING_WHEEL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace sled {

template <typename T>
class TimingWheel {
 public:
  static constexpr int kSlotBits = 16;
  static constexpr int kSlots = 1 << kSlotBits;     // 65536 slots per level
  static constexpr int kLevels = 3;                  // 2^48 ns direct horizon
  static constexpr uint64_t kSlotMask = kSlots - 1;

  TimingWheel() {
    for (int l = 0; l < kLevels; ++l) {
      for (int s = 0; s < kSlots; ++s) {
        slots_[l][s].head = kNil;
        slots_[l][s].tail = kNil;
      }
      for (uint64_t& w : bitmap_[l]) {
        w = 0;
      }
      for (uint64_t& w : summary_[l]) {
        w = 0;
      }
      level_count_[l] = 0;
    }
  }

  // Grow the slab ahead of the first Schedule so a known client population
  // (e.g. one pending arrival per client) never reallocates mid-run.
  void Reserve(size_t timers) {
    slab_.reserve(timers);
    seq_.reserve(timers);
  }

  uint64_t now() const { return now_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Schedule(uint64_t deadline, T payload) {
    if (deadline < now_) {
      deadline = now_;
    }
    const int32_t idx = Alloc();
    Node& n = slab_[static_cast<size_t>(idx)];
    n.deadline = deadline;
    seq_[static_cast<size_t>(idx)] = next_seq_++;
    n.payload = std::move(payload);
    Place(idx);
    ++size_;
  }

  // Advance wheel time to `t`, invoking fn(deadline, payload) for every timer
  // with deadline <= t (order documented above). fn may call Schedule.
  template <typename Fn>
  void ExpireUpTo(uint64_t t, Fn&& fn) {
    if (t < now_) {
      return;
    }
    while (size_ > 0) {
      // Level-0 slots are exact 1 ns ticks within the current 2^16-tick block;
      // everything due in this block is already here (higher levels only hold
      // deadlines at least one full block away).
      const uint64_t block_base = now_ & ~kSlotMask;
      const int cur = static_cast<int>(now_ & kSlotMask);
      const uint64_t block_last = block_base + kSlotMask;
      const uint64_t limit = t < block_last ? t : block_last;
      const int limit_idx = static_cast<int>(limit - block_base);
      const int s = NextOccupied(0, cur, limit_idx);
      if (s >= 0) {
        now_ = block_base + static_cast<uint64_t>(s);
        // Every node in a level-0 slot shares the same exact-tick deadline,
        // but cascades deliver them in slot-insertion order, which is not
        // schedule order when ties were filed into different levels. Snapshot
        // the batch and fire it in schedule-sequence order (the oracle's tie
        // rule); timers the callbacks add to this slot land in the emptied
        // list and form the next batch — after this one, like the oracle's
        // larger sequence numbers. Slot batches are almost always a single
        // node, so the sort is a no-op in the common case.
        int32_t idx;
        while ((idx = slots_[0][s].head) != kNil) {
          if (slab_[static_cast<size_t>(idx)].next == kNil) {
            // Sole node in the slot (the overwhelmingly common case): no tie
            // to order, fire directly.
            Node& n = slab_[static_cast<size_t>(idx)];
            Unlink(idx);
            const uint64_t deadline = n.deadline;
            T payload = std::move(n.payload);
            Free(idx);
            --size_;
            fn(deadline, payload);
            continue;
          }
          batch_.clear();
          for (; idx != kNil; idx = slab_[static_cast<size_t>(idx)].next) {
            batch_.push_back(BatchEntry{seq_[static_cast<size_t>(idx)], idx});
          }
          std::sort(batch_.begin(), batch_.end(),
                    [](const BatchEntry& a, const BatchEntry& b) { return a.seq < b.seq; });
          for (const BatchEntry& e : batch_) {
            Node& n = slab_[static_cast<size_t>(e.idx)];
            Unlink(e.idx);
            const uint64_t deadline = n.deadline;
            T payload = std::move(n.payload);
            Free(e.idx);
            --size_;
            fn(deadline, payload);
          }
        }
        continue;
      }
      // Nothing due in this block: jump to the earliest occupied slot start
      // across all levels, cascade it down, and re-examine. Slots strictly
      // between now_ and that start are empty at every level, so skipping
      // their boundaries is a no-op by construction.
      const uint64_t next_start = NextSlotStart();
      if (next_start > t) {
        break;
      }
      now_ = next_start;
      for (int l = kLevels - 1; l >= 1; --l) {
        const uint64_t gran_mask = (uint64_t{1} << (kSlotBits * l)) - 1;
        if ((now_ & gran_mask) == 0 && level_count_[l] > 0) {
          CascadeSlot(l, static_cast<int>((now_ >> (kSlotBits * l)) & kSlotMask));
        }
      }
    }
    if (now_ < t) {
      now_ = t;
    }
  }

 private:
  static constexpr int32_t kNil = -1;

  // The global schedule sequence (the tie-break rule for fires) lives in the
  // parallel `seq_` array, not here: it is only read on the rare multi-node
  // slot batch, and keeping it cold holds an int32-payload node to 24 bytes —
  // under three nodes per cache line on the cascade walk, the hot loop's one
  // unavoidable pointer chase.
  struct Node {
    uint64_t deadline = 0;
    int32_t prev = kNil;
    int32_t next = kNil;
    uint16_t level = 0;
    uint16_t slot = 0;
    T payload{};
  };

  struct BatchEntry {
    uint64_t seq;
    int32_t idx;
  };

  static constexpr uint64_t SpanOf(int level) {
    return uint64_t{1} << (kSlotBits * (level + 1));
  }

  int32_t Alloc() {
    if (free_head_ != kNil) {
      const int32_t idx = free_head_;
      free_head_ = slab_[static_cast<size_t>(idx)].next;
      return idx;
    }
    slab_.emplace_back();
    seq_.push_back(0);
    return static_cast<int32_t>(slab_.size() - 1);
  }

  void Free(int32_t idx) {
    slab_[static_cast<size_t>(idx)].next = free_head_;
    free_head_ = idx;
  }

  // Append to the tail of (level, slot), preserving schedule order.
  void PushBack(int level, int slot, int32_t idx) {
    Node& n = slab_[static_cast<size_t>(idx)];
    n.level = static_cast<uint16_t>(level);
    n.slot = static_cast<uint16_t>(slot);
    n.next = kNil;
    Slot& sl = slots_[level][slot];
    n.prev = sl.tail;
    if (sl.tail == kNil) {
      sl.head = idx;
      bitmap_[level][slot >> 6] |= uint64_t{1} << (slot & 63);
      summary_[level][slot >> 12] |= uint64_t{1} << ((slot >> 6) & 63);
    } else {
      slab_[static_cast<size_t>(sl.tail)].next = idx;
    }
    sl.tail = idx;
    ++level_count_[level];
  }

  void Unlink(int32_t idx) {
    Node& n = slab_[static_cast<size_t>(idx)];
    const int level = n.level;
    const int slot = n.slot;
    if (n.prev == kNil) {
      slots_[level][slot].head = n.next;
    } else {
      slab_[static_cast<size_t>(n.prev)].next = n.next;
    }
    if (n.next == kNil) {
      slots_[level][slot].tail = n.prev;
    } else {
      slab_[static_cast<size_t>(n.next)].prev = n.prev;
    }
    if (slots_[level][slot].head == kNil) {
      ClearOccupied(level, slot);
    }
    --level_count_[level];
  }

  void ClearOccupied(int level, int slot) {
    const int word = slot >> 6;
    if ((bitmap_[level][word] &= ~(uint64_t{1} << (slot & 63))) == 0) {
      summary_[level][word >> 6] &= ~(uint64_t{1} << (word & 63));
    }
  }

  // File `idx` into the level/slot its deadline belongs to, relative to now_.
  // The level is the delta's bit width divided by the per-level slot bits:
  // delta < 2^(16(l+1)) exactly when its most significant bit is below 16(l+1).
  void Place(int32_t idx) {
    const uint64_t deadline = slab_[static_cast<size_t>(idx)].deadline;
    const uint64_t delta = deadline - now_;
    const int l = delta == 0 ? 0 : (63 - std::countl_zero(delta)) >> 4;
    if (l < kLevels) {
      PushBack(l, static_cast<int>((deadline >> (kSlotBits * l)) & kSlotMask), idx);
      return;
    }
    // Beyond the direct horizon: park in the top-level slot whose start is at
    // most now_ + span (i.e. no later than any overflow deadline), so the
    // timer re-cascades — and re-places by its true deadline — in time.
    const int top = kLevels - 1;
    PushBack(top, static_cast<int>((now_ >> (kSlotBits * top)) & kSlotMask), idx);
  }

  // Detach (level, slot) and re-place its nodes in order against current now_.
  void CascadeSlot(int level, int slot) {
    int32_t idx = slots_[level][slot].head;
    if (idx == kNil) {
      return;
    }
    slots_[level][slot].head = kNil;
    slots_[level][slot].tail = kNil;
    ClearOccupied(level, slot);
    while (idx != kNil) {
      const int32_t next = slab_[static_cast<size_t>(idx)].next;
      if (next != kNil) {
        // The list threads nodes at arbitrary slab offsets; overlap the next
        // node's cache miss with re-placing this one.
        __builtin_prefetch(&slab_[static_cast<size_t>(next)]);
      }
      Place(idx);
      idx = next;
    }
  }

  // First occupied slot of `level` with index in [from, to], else -1. The
  // summary bitmap (one bit per 64-slot word) turns a scan across the 1024
  // bitmap words into at most a 16-word summary scan plus two word reads.
  int NextOccupied(int level, int from, int to) const {
    if (from > to) {
      return -1;
    }
    const int last_word = to >> 6;
    int word = from >> 6;
    uint64_t bits = bitmap_[level][word] & (~uint64_t{0} << (from & 63));
    if (bits == 0) {
      // The starting word is exhausted; jump to the next non-empty word via
      // the summary (a set summary bit guarantees its word has a set bit).
      if (++word > last_word) {
        return -1;
      }
      int sw = word >> 6;
      uint64_t sbits = summary_[level][sw] & (~uint64_t{0} << (word & 63));
      while (sbits == 0) {
        if (++sw > (last_word >> 6)) {
          return -1;
        }
        sbits = summary_[level][sw];
      }
      word = (sw << 6) + std::countr_zero(sbits);
      if (word > last_word) {
        return -1;
      }
      bits = bitmap_[level][word];
    }
    const int s = (word << 6) + std::countr_zero(bits);
    return s <= to ? s : -1;
  }

  // Earliest absolute start time of any occupied slot, across all levels.
  // For level l >= 1, slot indexes at or before the current index wrap into
  // the *next* window of that level (timers are only ever filed ahead of
  // now_), which is what makes the start computable from (level, index, now_).
  uint64_t NextSlotStart() const {
    uint64_t best = std::numeric_limits<uint64_t>::max();
    if (level_count_[0] > 0) {
      const int cur = static_cast<int>(now_ & kSlotMask);
      const int ahead = NextOccupied(0, cur, kSlots - 1);
      if (ahead >= 0) {
        best = (now_ & ~kSlotMask) + static_cast<uint64_t>(ahead);
      } else {
        const int wrapped = NextOccupied(0, 0, cur - 1);
        if (wrapped >= 0) {
          best = (now_ & ~kSlotMask) + static_cast<uint64_t>(wrapped) + kSlots;
        }
      }
    }
    for (int l = 1; l < kLevels; ++l) {
      if (level_count_[l] == 0) {
        continue;
      }
      const uint64_t gran = uint64_t{1} << (kSlotBits * l);
      const uint64_t base = now_ & ~(SpanOf(l) - 1);
      const int cur = static_cast<int>((now_ >> (kSlotBits * l)) & kSlotMask);
      const int ahead = NextOccupied(l, cur + 1, kSlots - 1);
      uint64_t start;
      if (ahead >= 0) {
        start = base + static_cast<uint64_t>(ahead) * gran;
      } else {
        const int wrapped = NextOccupied(l, 0, cur);
        if (wrapped < 0) {
          continue;
        }
        start = base + (static_cast<uint64_t>(wrapped) + kSlots) * gran;
      }
      if (start < best) {
        best = start;
      }
    }
    return best;
  }

  std::vector<Node> slab_;
  std::vector<uint64_t> seq_;      // parallel to slab_; see Node comment
  std::vector<BatchEntry> batch_;  // reused per fired slot; no steady-state allocation
  uint64_t next_seq_ = 1;
  int32_t free_head_ = kNil;
  // head and tail share an 8-byte struct so a push or a fire touches one
  // cache line of slot metadata, not one line in each of two parallel arrays.
  struct Slot {
    int32_t head;
    int32_t tail;
  };
  Slot slots_[kLevels][kSlots];
  uint64_t bitmap_[kLevels][kSlots / 64];
  uint64_t summary_[kLevels][kSlots / 64 / 64];  // bit g = "bitmap word g non-empty"
  int64_t level_count_[kLevels];  // occupancy, to skip empty levels in scans
  uint64_t now_ = 0;
  size_t size_ = 0;
};

}  // namespace sled

#endif  // SLEDS_SRC_OPENLOAD_TIMING_WHEEL_H_
