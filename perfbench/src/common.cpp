#include "common.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

void Result::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (std::find(failed_gates.begin(), failed_gates.end(), what) ==
      failed_gates.end())
    failed_gates.push_back(what);
}

mfn::Tensor random_patch(BenchRng& rng, std::int64_t c, std::int64_t nt,
                         std::int64_t nz, std::int64_t nx) {
  mfn::Tensor t(mfn::Shape{1, c, nt, nz, nx});
  float* p = t.data();
  // Box-Muller from the benchmark's own generator.
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const double u1 = 1.0 - rng.uniform(), u2 = rng.uniform();
    p[i] = static_cast<float>(0.5 * std::sqrt(-2.0 * std::log(u1)) *
                              std::cos(2.0 * M_PI * u2));
  }
  return t;
}

mfn::Tensor random_coords(BenchRng& rng, std::int64_t q, std::int64_t nt,
                          std::int64_t nz, std::int64_t nx) {
  mfn::Tensor t(mfn::Shape{q, 3});
  float* p = t.data();
  for (std::int64_t i = 0; i < q; ++i) {
    p[3 * i + 0] = static_cast<float>(rng.uniform(0.0, double(nt - 1)));
    p[3 * i + 1] = static_cast<float>(rng.uniform(0.0, double(nz - 1)));
    p[3 * i + 2] = static_cast<float>(rng.uniform(0.0, double(nx - 1)));
  }
  return t;
}

double max_abs_diff(const mfn::Tensor& a, const mfn::Tensor& b) {
  if (a.numel() != b.numel()) return INFINITY;
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const double d = std::fabs(double(a.data()[i]) - double(b.data()[i]));
    if (!(d <= m)) m = d;  // NaN propagates as the max
  }
  return m;
}

WindowFigures window_figures(const std::vector<std::vector<double>>& latency_ms,
                             const std::vector<double>& span_s) {
  std::vector<double> per_s, p50, p90;
  for (std::size_t w = 0; w < latency_ms.size(); ++w) {
    if (latency_ms[w].empty() || span_s[w] <= 0.0) continue;
    per_s.push_back(static_cast<double>(latency_ms[w].size()) / span_s[w]);
    p50.push_back(percentile(latency_ms[w], 50.0));
    p90.push_back(percentile(latency_ms[w], 90.0));
  }
  return {fast_quartile(per_s, Better::kHigher),
          fast_quartile(p50, Better::kLower),
          fast_quartile(p90, Better::kLower)};
}

WindowFigures back_to_back_figures(const std::vector<double>& duration_ms,
                                   std::size_t size) {
  const auto win = windows(duration_ms, size);
  std::vector<double> span_s;
  for (const auto& w : win) {
    double sum = 0.0;
    for (const double d : w) sum += d;
    span_s.push_back(sum / 1e3);
  }
  return window_figures(win, span_s);
}

double per_request_self_ms(const std::vector<Span>& spans,
                           const std::vector<double>& self,
                           const std::string& name) {
  std::map<std::uint64_t, double> per;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) per[spans[i].request] += self[i];
  std::vector<double> v;
  v.reserve(per.size());
  for (const auto& [req, ms] : per) v.push_back(ms);
  return median(v);
}

}  // namespace perfbench
