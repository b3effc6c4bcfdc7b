// Tests of the benchmark's own arithmetic: the open-loop schedule, span
// self time and the tail-percentile rule. Run: python3 perfbench/run.py
// --self-test (exit code 0 when every check holds).
#include <cmath>
#include <cstdio>
#include <vector>

#include "schedule.h"
#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                 \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
      ++g_failures;                                                 \
    }                                                               \
  } while (0)

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

using perfbench::Span;

void schedule_is_a_pure_function_of_the_seed() {
  const auto a = perfbench::poisson_schedule(7, 2000.0, 5000);
  const auto b = perfbench::poisson_schedule(7, 2000.0, 5000);
  const auto c = perfbench::poisson_schedule(8, 2000.0, 5000);
  CHECK(a == b);
  CHECK(a != c);
  bool increasing = a.front() > 0.0;
  for (std::size_t i = 1; i < a.size(); ++i)
    increasing = increasing && a[i] > a[i - 1];
  CHECK(increasing);
  // 5000 exponential gaps at 2000/s: mean gap within 5% of 0.5 ms.
  CHECK(std::fabs(a.back() / 5000.0 - 1.0 / 2000.0) < 0.05 / 2000.0);
  // Same seed, other rate: the same arrivals stretched in time.
  const auto d = perfbench::poisson_schedule(7, 1000.0, 5000);
  CHECK(near(d[4999], 2.0 * a[4999], 1e-9));
  const auto cdf = perfbench::zipf_cdf(4, 1.1);
  CHECK(near(cdf.back(), 1.0));
  CHECK(perfbench::zipf_pick(cdf, 0.0) == 0);
  CHECK(perfbench::zipf_pick(cdf, 0.999999) == 3);
}

std::vector<double> self_of(const std::vector<Span>& spans) {
  return perfbench::self_times(spans);
}

void self_time_of_nested_and_overlapping_spans() {
  // Nested: parent [0,10] with child [2,5] and grandchild [3,4].
  {
    const std::vector<Span> s = {{"p", 0, 10, -1, 1},
                                 {"c", 2, 5, 0, 1},
                                 {"g", 3, 4, 1, 1}};
    const auto self = self_of(s);
    CHECK(near(self[0], 7.0));  // only direct children count
    CHECK(near(self[1], 2.0));
    CHECK(near(self[2], 1.0));
  }
  // Overlapping children (parallel work under one parent): [2,6] and
  // [4,8] cover 6 units once, not 8.
  {
    const std::vector<Span> s = {{"p", 0, 10, -1, 1},
                                 {"a", 2, 6, 0, 1},
                                 {"b", 4, 8, 0, 1}};
    const auto self = self_of(s);
    CHECK(near(self[0], 4.0));
    CHECK(near(self[1], 4.0));
    CHECK(near(self[2], 4.0));
  }
  // A child that outlives its parent (a request completed on another
  // thread) only covers the parent's own interval; a child nested inside
  // another child counts once.
  {
    const std::vector<Span> s = {{"p", 0, 10, -1, 1},
                                 {"late", 8, 12, 0, 1},
                                 {"a", 1, 3, 0, 1},
                                 {"inner", 1.5, 2.5, 0, 1}};
    const auto self = self_of(s);
    CHECK(near(self[0], 10.0 - 2.0 - 2.0));
  }
  // The recorder links ScopedSpans on one thread as parent and child.
  {
    perfbench::SpanRecorder rec;
    {
      perfbench::ScopedSpan outer(&rec, "outer", 3);
      perfbench::ScopedSpan inner(&rec, "inner", 3);
    }
    const auto spans = rec.spans();
    CHECK(spans.size() == 2);
    CHECK(spans[0].parent == -1);
    CHECK(spans[1].parent == 0);
    CHECK(spans[1].request == 3);
    CHECK(spans[1].start_ms >= spans[0].start_ms);
    CHECK(spans[1].end_ms <= spans[0].end_ms);
  }
}

void percentile_selection() {
  using perfbench::samples_beyond;
  using perfbench::tail_percentile;
  CHECK(samples_beyond(1000, 99.0) == 10);
  CHECK(samples_beyond(999, 99.0) == 9);
  CHECK(samples_beyond(100, 90.0) == 10);
  CHECK(samples_beyond(20, 50.0) == 10);
  CHECK(tail_percentile(19) == 0.0);
  CHECK(tail_percentile(20) == 50.0);
  CHECK(tail_percentile(99) == 50.0);
  CHECK(tail_percentile(100) == 90.0);
  CHECK(tail_percentile(999) == 90.0);
  CHECK(tail_percentile(1000) == 99.0);
  CHECK(tail_percentile(1000000) == 99.0);  // the ladder stops at p99
  const std::vector<double> v = {5, 1, 4, 2, 3};
  CHECK(near(perfbench::percentile(v, 50.0), 3.0));
  CHECK(near(perfbench::percentile(v, 90.0), 4.6));
  CHECK(near(perfbench::percentile(v, 100.0), 5.0));
  const perfbench::Summary s = perfbench::summarize(std::vector<double>(100, 2.0));
  CHECK(s.n == 100 && s.tail_p == 90.0 && near(s.tail, 2.0));
}

}  // namespace

int main() {
  schedule_is_a_pure_function_of_the_seed();
  self_time_of_nested_and_overlapping_spans();
  percentile_selection();
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
