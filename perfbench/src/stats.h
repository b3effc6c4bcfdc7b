// Sample statistics shared by every workload: percentiles and the rule for
// which tail percentile a sample set can support.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentile `p` in [0, 100] of `v` by linear interpolation between the
/// order statistics (numpy's default). Empty input returns 0.
double percentile(std::vector<double> v, double p);

/// Number of samples strictly beyond the p-th percentile of n samples:
/// n - ceil(n * p / 100).
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile of the ladder {50, 90, 99} that has at least ten
/// samples beyond it; 0 when n < 20 (not even the median has). The ladder
/// stops at p99: a p99.9 from one run is too noisy to gate on.
double tail_percentile(std::size_t n);

/// A timing summary: median plus the tail percentile the count supports.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_p = 0.0;  ///< which percentile `tail` is (0 = none)
  double tail = 0.0;
};
Summary summarize(const std::vector<double>& v);

double median(const std::vector<double>& v);

/// Consecutive windows of `size` samples; a short tail joins the last
/// window. Fewer than `size` samples make one window.
std::vector<std::vector<double>> windows(const std::vector<double>& v,
                                         std::size_t size);

enum class Better { kLower, kHigher };

/// The fast quartile of per-window values: their 25th percentile when lower
/// is better, their 75th when higher is better. Interference from other
/// tenants of the host only ever slows a window down, so this follows the
/// program's own speed while up to three quarters of a run's windows are
/// disturbed; a change that slows every window still moves it in full.
double fast_quartile(const std::vector<double>& per_window, Better better);

}  // namespace perfbench
