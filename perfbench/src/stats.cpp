#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::size_t samples_beyond(std::size_t n, double p) {
  // Round before ceil so that e.g. 1000 * 99 / 100 is exactly 990.
  const double at = std::round(static_cast<double>(n) * p * 1e3) / 1e5;
  const auto rank = static_cast<std::size_t>(std::ceil(at));
  return rank >= n ? 0 : n - rank;
}

double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0})
    if (samples_beyond(n, p) >= 10) best = p;
  return best;
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.p50 = percentile(v, 50.0);
  s.tail_p = tail_percentile(v.size());
  s.tail = s.tail_p > 0.0 ? percentile(v, s.tail_p) : 0.0;
  return s;
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

std::vector<std::vector<double>> windows(const std::vector<double>& v,
                                         std::size_t size) {
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; size > 0 && i + size <= v.size(); i += size) {
    const std::size_t end = i + 2 * size > v.size() ? v.size() : i + size;
    out.emplace_back(v.begin() + static_cast<std::ptrdiff_t>(i),
                     v.begin() + static_cast<std::ptrdiff_t>(end));
  }
  if (out.empty()) out.push_back(v);
  return out;
}

double fast_quartile(const std::vector<double>& per_window, Better better) {
  return percentile(per_window, better == Better::kLower ? 25.0 : 75.0);
}

}  // namespace perfbench
