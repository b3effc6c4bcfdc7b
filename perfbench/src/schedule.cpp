#include "schedule.h"

#include <cmath>

namespace perfbench {

std::uint64_t BenchRng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double BenchRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count) {
  BenchRng rng(seed);
  std::vector<double> due(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log1p(-rng.uniform()) / rate_per_s;
    due[i] = t;
  }
  return due;
}

std::vector<double> zipf_cdf(int n, double s) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[static_cast<std::size_t>(k)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int zipf_pick(const std::vector<double>& cdf, double u) {
  for (std::size_t k = 0; k < cdf.size(); ++k)
    if (u < cdf[k]) return static_cast<int>(k);
  return static_cast<int>(cdf.size()) - 1;
}

}  // namespace perfbench
