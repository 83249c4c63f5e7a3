// Deterministic pseudo-random numbers for workload generation and the small
// stochastic elements of the simulation (background activity jitter, match
// placement). Every experiment seeds its own Rng so runs are reproducible.
#ifndef SLEDS_SRC_COMMON_RNG_H_
#define SLEDS_SRC_COMMON_RNG_H_

#include <cstdint>
#include <random>

namespace sled {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Uniform double in [0, 1).
  double UniformDouble() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Exponential with the given mean (mean = 1/lambda).
  double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  bool Bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace sled

#endif  // SLEDS_SRC_COMMON_RNG_H_
