// Seeded inputs for the load generators: a private random source, the
// open-loop Poisson arrival schedule, and Zipf popularity.
//
// The generator lives in the benchmark rather than reusing mfn::Rng so that
// a library change cannot move the inputs the benchmark feeds it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, seedable, and identical on every platform.
class BenchRng {
 public:
  explicit BenchRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Due times (seconds from the start of the step) of `count` Poisson
/// arrivals at `rate_per_s`: cumulative exponential gaps. A pure function
/// of its arguments.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count);

/// Cumulative Zipf(s) distribution over ranks 0..n-1 (rank 0 most popular).
std::vector<double> zipf_cdf(int n, double s);
/// Rank whose CDF bucket holds u in [0, 1).
int zipf_pick(const std::vector<double>& cdf, double u);

}  // namespace perfbench
