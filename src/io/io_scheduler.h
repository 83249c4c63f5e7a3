// IoScheduler: the discrete-event engine driving every DeviceQueue on the
// simulated timeline. Each queue models one device that services one request
// batch at a time; `busy_until` is when the device next goes idle.
//
// The engine is *lazy*: nothing happens at future times until somebody needs
// the answer. CatchUp(now) replays, in order, every dispatch decision the
// device would have made up to `now`; ForceDispatch() keeps dispatching one
// queue, ignoring its busy horizon, until a specific request is no longer
// pending (its completion time may be in the caller's future — the kernel
// sleeps the waiting process to it), then catches every queue up to `now`;
// Drain() dispatches everything pending on every queue. Because the
// simulation is single-threaded and submissions arrive in nondecreasing clock
// order, a lazy replay makes exactly the decisions an eager event loop would
// have made — see DESIGN.md §7 for the determinism argument.
//
// Completion delivery: dispatching a batch invokes the queue's dispatch
// callback (which performs the device access and returns its service time),
// then the completion callback once per merged part, carrying the absolute
// completion time. Callbacks may submit new requests (writeback of pages
// evicted by arriving data); the pump guard makes such nested submissions
// queue quietly and be reconsidered by the outer dispatch loop.
#ifndef SLEDS_SRC_IO_IO_SCHEDULER_H_
#define SLEDS_SRC_IO_IO_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/io/device_queue.h"

namespace sled {

// Performs the device access for one merged batch; returns its service time.
// `parts` is how many submitted requests the batch folds together.
using IoDispatchFn = std::function<Result<Duration>(const IoRequest& merged, int parts)>;
// Delivers the completion of one submitted request. `ok` is false when the
// dispatch callback failed (the data never arrives).
using IoCompleteFn = std::function<void(const IoRequest& part, TimePoint done, bool ok)>;

class IoScheduler {
 public:
  IoScheduler() = default;

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  void AttachQueue(uint32_t queue_id, std::string name, DeviceQueueConfig config,
                   IoDispatchFn dispatch, IoCompleteFn complete);
  bool HasQueue(uint32_t queue_id) const { return queues_.contains(queue_id); }
  const DeviceQueue* queue(uint32_t queue_id) const;
  void ForEachQueue(const std::function<void(uint32_t, const DeviceQueue&)>& fn) const;

  // Ids are allocated by the caller *before* Submit so it can index its own
  // bookkeeping first — Submit may dispatch (and complete) the request
  // reentrantly when the device is idle.
  int64_t AllocateId() { return next_id_++; }

  // Enqueue and pump. req.id must come from AllocateId(); req.submit is the
  // current clock time.
  void Submit(uint32_t queue_id, IoRequest req);

  // Replay every dispatch decision with a start time <= now, on all queues.
  void CatchUp(TimePoint now);

  // Dispatch batches from `queue_id` (ignoring the busy horizon) until
  // request `id` is no longer pending. Its completion arrives through the
  // completion callback; no-op if the id is not pending.
  void ForceDispatch(uint32_t queue_id, int64_t id, TimePoint now);

  // Dispatch everything pending on every queue. Returns the latest completion
  // time produced (or `now` when nothing was pending).
  TimePoint Drain(TimePoint now);

  // Remove pending requests matching `pred` from every queue and return them.
  // No completion callbacks fire for canceled requests.
  std::vector<IoRequest> CancelMatching(const std::function<bool(const IoRequest&)>& pred);

  // Pages pending across all queues (in-flight budget accounting).
  int64_t PendingPages(IoOp op) const;

 private:
  struct QueueState {
    DeviceQueue queue;
    IoDispatchFn dispatch;
    IoCompleteFn complete;
    TimePoint busy_until;

    QueueState(std::string name, DeviceQueueConfig config, IoDispatchFn d, IoCompleteFn c)
        : queue(std::move(name), config), dispatch(std::move(d)), complete(std::move(c)) {}
  };

  // Dispatch one batch from `qs` at its natural start time; returns the
  // completion time.
  TimePoint DispatchOne(QueueState& qs);

  std::map<uint32_t, std::unique_ptr<QueueState>> queues_;  // ordered: deterministic pumping
  int64_t next_id_ = 1;
  bool pumping_ = false;  // re-entrancy guard (completions may Submit)
};

}  // namespace sled

#endif  // SLEDS_SRC_IO_IO_SCHEDULER_H_
