// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer: name, start, end, the span that caused
// it (parent) and the request it belongs to. Spans are kept in memory while
// the workload runs and written out once at exit, so recording costs a
// clock read and a locked push_back per boundary. Self time — a span's
// duration minus the part of it its children cover — is computed after the
// run from the parent links.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0.0;  ///< relative to the recorder's epoch
  double end_ms = 0.0;
  int parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it. Children may overlap each other (parallel work
/// under one parent); the union counts overlapped time once.
std::vector<double> self_times(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  SpanRecorder();

  /// Milliseconds since the recorder was created.
  double now_ms() const;
  /// The same clock for an arbitrary instant (e.g. a request's due time).
  double at_ms(std::chrono::steady_clock::time_point t) const;

  /// Open a span. `parent` < -1 means "the innermost span this thread has
  /// open through ScopedSpan" (or a root if none).
  int open(const std::string& name, std::uint64_t request, int parent = -2);
  /// Open a span with an explicit start (e.g. a request's due time).
  int open_at(const std::string& name, std::uint64_t request, int parent,
              double start_ms);
  void close(int id);
  void close_at(int id, double end_ms);

  std::vector<Span> spans() const;
  /// Write every span as one JSON object per line, with its self time.
  void dump(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread; nested ScopedSpans on one thread become
/// parent and child. A null recorder makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_ = -1;
};

}  // namespace perfbench
