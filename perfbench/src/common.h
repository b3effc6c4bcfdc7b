// Shared plumbing for the workloads: run options, the result every workload
// fills in, and small helpers for inputs and timing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "schedule.h"
#include "spans.h"
#include "stats.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Command-line options. Everything else the workloads use (rates, loss
/// target, deadlines, ...) is a constant in the workload's source: a
/// different value is a different ruler.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Work directory inside the checkout (checkpoints, span dumps).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind the value (0 = a single reading)
};

/// What a workload run produced. `metrics` go into the final JSON line
/// (end-to-end names untraced, per-layer names traced); `report` holds the
/// workload's own named figures, printed for people.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  std::vector<std::string> notes;
  std::vector<std::string> failed_gates;

  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t n = 0) {
    metrics.push_back({name, value, unit, n});
  }
  void info(const std::string& name, double value, const std::string& unit,
            std::size_t n = 0) {
    report.push_back({name, value, unit, n});
  }
  /// A correctness gate: a false `ok` fails the run.
  void gate(bool ok, const std::string& what);
};

using Clock = std::chrono::steady_clock;
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Random LR patch (1, C, nt, nz, nx) with N(0, 0.5^2) entries.
mfn::Tensor random_patch(BenchRng& rng, std::int64_t c, std::int64_t nt,
                         std::int64_t nz, std::int64_t nx);
/// Q random continuous query coordinates (Q, 3) inside an (nt, nz, nx)
/// patch.
mfn::Tensor random_coords(BenchRng& rng, std::int64_t q, std::int64_t nt,
                          std::int64_t nz, std::int64_t nx);
double max_abs_diff(const mfn::Tensor& a, const mfn::Tensor& b);

/// Per-request/per-step sum of each span name's self time, then the median
/// over requests — "how long does this layer take per step".
double per_request_self_ms(const std::vector<Span>& spans,
                           const std::vector<double>& self,
                           const std::string& name);

/// A run's end-to-end figures from its windows, each reduced over windows
/// with fast_quartile: operations per second, p50 and p90 latency (ms).
struct WindowFigures {
  double per_s = 0.0, p50 = 0.0, p90 = 0.0;
};
/// `latency_ms[w]` holds window w's operation latencies, `span_s[w]` its
/// length in seconds.
WindowFigures window_figures(const std::vector<std::vector<double>>& latency_ms,
                             const std::vector<double>& span_s);
/// Windows of `size` back-to-back operations (the window's length is the
/// sum of its durations).
WindowFigures back_to_back_figures(const std::vector<double>& duration_ms,
                                   std::size_t size);

/// Relative change of `traced` over `untraced`, in percent.
inline double overhead_pct(double traced, double untraced) {
  return untraced > 0.0 ? (traced - untraced) / untraced * 100.0 : 0.0;
}

// Workload entry points.
Result run_train_pde(const Options& opt);
Result run_serve_hot(const Options& opt);
Result run_serve_churn(const Options& opt);
Result run_train_dist2(const Options& opt);

}  // namespace perfbench
