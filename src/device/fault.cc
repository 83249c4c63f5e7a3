#include "src/device/fault.h"

#include <cstdlib>
#include <string>

#include "src/common/log.h"

namespace sled {
namespace {

// FNV-1a, so each device derives an independent stream from one env seed.
uint64_t HashName(std::string_view name) {
  uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(config), rng_(config.seed) {
  SLED_CHECK(config_.read_fault_prob >= 0.0 && config_.read_fault_prob <= 1.0 &&
                 config_.write_fault_prob >= 0.0 && config_.write_fault_prob <= 1.0 &&
                 config_.persistent_prob >= 0.0 && config_.persistent_prob <= 1.0,
             "fault probabilities must be in [0, 1]");
  SLED_CHECK(config_.controller_retries >= 0, "bad fault plan config");
}

std::shared_ptr<FaultPlan> FaultPlan::FromEnv(std::string_view device_name) {
  // Env resolution cached once per process (thread-safe magic static):
  // devices are constructed on shard worker threads, and every shard must see
  // the same seed regardless of construction order.
  static const uint64_t env_seed = [] {
    const char* env = std::getenv("SLEDS_FAULT_SEED");
    return env == nullptr ? uint64_t{0} : std::strtoull(env, nullptr, 10);
  }();
  if (env_seed == 0) {
    return nullptr;  // unset or "0" means off
  }
  constexpr double kSmokeFaultProb = 0.002;
  FaultPlanConfig fc;
  fc.seed = env_seed * 1099511628211ull ^ HashName(device_name);
  fc.read_fault_prob = kSmokeFaultProb;
  fc.write_fault_prob = kSmokeFaultProb;
  // Transient-only, controller-masked: the fault rolls run hot on every op
  // but an escape needs (retries+1) consecutive fault rolls, so the tier-1
  // suite passes unchanged under the smoke plan.
  fc.persistent_prob = 0.0;
  fc.controller_retries = 3;
  return std::make_shared<FaultPlan>(fc);
}

void FaultPlan::AddBadRange(int64_t offset, int64_t length) {
  SLED_CHECK(offset >= 0 && length > 0, "bad media range must be non-empty");
  bad_ranges_.emplace_back(offset, offset + length);
}

void FaultPlan::AddDownWindow(TimePoint start, TimePoint end) {
  windows_.push_back(Window{start, end, Window::Kind::kDown});
}

void FaultPlan::AddSlowWindow(TimePoint start, TimePoint end, double factor) {
  SLED_CHECK(factor >= 1.0, "slow window factor must be >= 1");
  windows_.push_back(Window{start, end, Window::Kind::kSlow, factor});
}

void FaultPlan::AddGcWindow(TimePoint start, TimePoint end, Duration stall, double duty) {
  SLED_CHECK(stall.nanos() >= 0 && duty >= 0.0 && duty <= 1.0,
             "GC window needs a non-negative stall and duty in [0, 1]");
  Window w{start, end, Window::Kind::kGc};
  w.gc_stall = stall;
  w.gc_duty = duty;
  windows_.push_back(w);
}

bool FaultPlan::InBadRange(int64_t offset, int64_t nbytes) const {
  const int64_t end = offset + nbytes;
  for (const auto& [lo, hi] : bad_ranges_) {
    if (offset < hi && lo < end) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::WindowActive(const Window& w) const {
  if (clock_ == nullptr) {
    return false;
  }
  const TimePoint now = clock_->Now();
  return !(now < w.start) && now < w.end;
}

Err FaultPlan::Judge(bool write, int64_t offset, int64_t nbytes) {
  // Down window: the whole device is unreachable; no media rolls happen.
  // Any open down window counts, even when a slow/GC window overlaps it.
  // (Slow and GC windows distort time, not success — they judge kOk.)
  for (const Window& w : windows_) {
    if (w.kind == Window::Kind::kDown && WindowActive(w)) {
      ++stats_.unavailable_hits;
      ++stats_.faults_injected;
      return Err::kUnavailable;
    }
  }
  // Scripted failures escape unconditionally.
  int& forced = write ? forced_write_failures_ : forced_read_failures_;
  if (forced > 0) {
    --forced;
    ++stats_.faults_injected;
    return Err::kIo;
  }
  // Persistent media errors: already-marked ranges keep failing.
  if (InBadRange(offset, nbytes)) {
    ++stats_.faults_injected;
    return Err::kIo;
  }
  // Probabilistic faults, with the controller retry budget applied inside the
  // device: only (retries+1) consecutive fault rolls escape.
  const double p = write ? config_.write_fault_prob : config_.read_fault_prob;
  if (p > 0.0) {
    for (int attempt = 0; attempt <= config_.controller_retries; ++attempt) {
      if (!rng_.Bernoulli(p)) {
        if (attempt > 0) {
          stats_.transient_masked += attempt;
        }
        return Err::kOk;
      }
      if (config_.persistent_prob > 0.0 && rng_.Bernoulli(config_.persistent_prob)) {
        AddBadRange(offset, nbytes);
        ++stats_.persistent_marked;
        ++stats_.faults_injected;
        return Err::kIo;  // persistent: no point in controller retries
      }
    }
    stats_.transient_masked += config_.controller_retries;
    ++stats_.faults_injected;
    return Err::kIo;
  }
  return Err::kOk;
}

Duration FaultPlan::AdjustServiceTime(Duration t) {
  // All open windows apply together: the worst slow factor scales the
  // service time once, and every open GC window rolls its own stall (stalls
  // stack — two collectors can both catch the same op). A single open window
  // behaves exactly as before.
  double slow = 1.0;
  Duration gc_stall;
  for (const Window& w : windows_) {
    if (!WindowActive(w)) {
      continue;
    }
    if (w.kind == Window::Kind::kSlow && w.slow_factor > slow) {
      slow = w.slow_factor;
    } else if (w.kind == Window::Kind::kGc && w.gc_duty > 0.0 && rng_.Bernoulli(w.gc_duty)) {
      ++stats_.gc_stalls;
      gc_stall += w.gc_stall;
    }
  }
  if (slow > 1.0) {
    t = SecondsF(t.ToSeconds() * slow);
  }
  t += gc_stall;
  return t;
}

DeviceHealth FaultPlan::Health() const {
  // Compose every open window, not just the first: a slow window overlapping
  // a GC window must report both the slowdown and the tail risk, and a down
  // window anywhere makes the device unavailable.
  DeviceHealth h;
  for (const Window& w : windows_) {
    if (!WindowActive(w)) {
      continue;
    }
    DeviceHealth part;
    switch (w.kind) {
      case Window::Kind::kDown:
        part.unavailable = true;
        break;
      case Window::Kind::kSlow:
        part.latency_factor = w.slow_factor;
        break;
      case Window::Kind::kGc:
        part.gc_stall_s = w.gc_stall.ToSeconds();
        part.gc_duty = w.gc_duty;
        break;
    }
    h = CombineHealth(h, part);
  }
  return h;
}

}  // namespace sled
