#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {
// Open ScopedSpans of the calling thread, innermost last.
thread_local std::vector<int> t_open;
}  // namespace

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                            s.end_ms);
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms, hi = spans[i].end_ms;
    auto& iv = kids[i];
    for (auto& [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_ms() const {
  return at_ms(std::chrono::steady_clock::now());
}

double SpanRecorder::at_ms(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double, std::milli>(t - epoch_).count();
}

int SpanRecorder::open(const std::string& name, std::uint64_t request,
                       int parent) {
  return open_at(name, request, parent, now_ms());
}

int SpanRecorder::open_at(const std::string& name, std::uint64_t request,
                          int parent, double start_ms) {
  if (parent < -1) parent = t_open.empty() ? -1 : t_open.back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(Span{name, start_ms, start_ms, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int id) { close_at(id, now_ms()); }

void SpanRecorder::close_at(int id, double end_ms) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_ms = end_ms;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

void SpanRecorder::dump(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < all.size(); ++i)
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                 "\"end_ms\":%.6f,\"parent\":%d,\"request\":%llu,"
                 "\"self_ms\":%.6f}\n",
                 i, all[i].name.c_str(), all[i].start_ms, all[i].end_ms,
                 all[i].parent,
                 static_cast<unsigned long long>(all[i].request), self[i]);
  const bool ok = std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("cannot write spans to " + path);
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* name,
                       std::uint64_t request)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  id_ = rec_->open(name, request);
  t_open.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  if (rec_ == nullptr) return;
  t_open.pop_back();
  rec_->close(id_);
}

}  // namespace perfbench
