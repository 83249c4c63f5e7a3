#include "src/openload/arrival.h"

#include <cmath>

#include "src/common/rng.h"

namespace sled {
namespace {

// Exponential draw with the given mean, in ns, never zero: log1p of a draw in
// (-1, 0] is finite and <= 0, so the result is >= 1 after the floor.
uint64_t ExponentialNs(uint64_t* rng, double mean_ns) {
  const double u = OpenLoadUniform(rng);
  const double draw = -mean_ns * std::log1p(-u);
  return draw < 1.0 ? 1 : static_cast<uint64_t>(draw);
}

uint64_t PoissonNext(const ArrivalParams& p, ArrivalState* s, uint64_t now_ns) {
  return now_ns + ExponentialNs(&s->rng, p.mean_gap_ns);
}

// Two-state Markov-modulated Poisson process. Arrivals only occur in ON
// phases, at mean gap mean_gap_ns * duty, so the long-run rate matches the
// Poisson pattern while arrivals clump. Phase boundaries are resampled
// lazily, from the same per-client stream, whenever a candidate arrival
// overshoots the current phase.
uint64_t BurstNext(const ArrivalParams& p, ArrivalState* s, uint64_t now_ns) {
  const double on_gap_ns = p.mean_gap_ns * p.burst_duty;
  const double off_ns = p.burst_on_ns * (1.0 - p.burst_duty) / p.burst_duty;
  uint64_t t = now_ns;
  for (;;) {
    if (s->on == 0) {
      // In (or starting) an OFF phase: skip to its end, then switch ON.
      if (s->phase_end_ns <= t) {
        s->phase_end_ns = t + ExponentialNs(&s->rng, off_ns);
      }
      t = s->phase_end_ns;
      s->on = 1;
      s->phase_end_ns = t + ExponentialNs(&s->rng, p.burst_on_ns);
    }
    const uint64_t candidate = t + ExponentialNs(&s->rng, on_gap_ns);
    if (candidate <= s->phase_end_ns) {
      return candidate;
    }
    // Burst over before the next arrival: move to the OFF phase and retry.
    t = s->phase_end_ns;
    s->on = 0;
    s->phase_end_ns = 0;
  }
}

// Lewis-Shedler thinning against the curve's peak rate.
uint64_t DiurnalNext(const ArrivalParams& p, ArrivalState* s, uint64_t now_ns) {
  const double peak_factor = 1.0 + p.diurnal_depth;
  const double candidate_gap_ns = p.mean_gap_ns / peak_factor;
  const double two_pi = 6.283185307179586;
  uint64_t t = now_ns;
  for (;;) {
    t += ExponentialNs(&s->rng, candidate_gap_ns);
    const double phase = two_pi * static_cast<double>(t % static_cast<uint64_t>(
                                      p.diurnal_period_ns)) /
                         p.diurnal_period_ns;
    const double relative = (1.0 + p.diurnal_depth * std::sin(phase)) / peak_factor;
    if (OpenLoadUniform(&s->rng) < relative) {
      return t;
    }
  }
}

}  // namespace

const char* ArrivalPatternName(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kPoisson:
      return "poisson";
    case ArrivalPattern::kBurst:
      return "burst";
    case ArrivalPattern::kDiurnal:
      return "diurnal";
    case ArrivalPattern::kTrace:
      return "trace";
  }
  return "unknown";
}

uint64_t OpenLoadRandom(uint64_t* state) {
  const uint64_t draw = SplitMix64(*state);
  *state += 0x9e3779b97f4a7c15ull;
  return draw;
}

double OpenLoadUniform(uint64_t* state) {
  return static_cast<double>(OpenLoadRandom(state) >> 11) * 0x1.0p-53;
}

uint64_t NextArrivalNs(const ArrivalParams& params, ArrivalState* state, uint64_t now_ns) {
  switch (params.pattern) {
    case ArrivalPattern::kBurst:
      return BurstNext(params, state, now_ns);
    case ArrivalPattern::kDiurnal:
      return DiurnalNext(params, state, now_ns);
    case ArrivalPattern::kPoisson:
    case ArrivalPattern::kTrace:
      break;
  }
  return PoissonNext(params, state, now_ns);
}

}  // namespace sled
