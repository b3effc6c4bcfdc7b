// Shared-memory parallelism layer: a persistent thread pool and
// parallel_for helpers.
//
// Every compute kernel in the library funnels its parallelism through
// parallel_for / parallel_for_2d, so thread count is controlled in one
// place (MFN_NUM_THREADS env var or the pool size).
// Nested parallel_for calls from inside a worker run serially, which keeps
// kernels composable without deadlock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mfn {

/// Fixed-size pool of worker threads executing fire-and-forget tasks.
class ThreadPool {
 public:
  /// Hard upper bound on pool size; MFN_NUM_THREADS is clamped to this.
  static constexpr int kMaxThreads = 256;

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Process-wide pool. Sized by resolve_thread_count(MFN_NUM_THREADS).
  static ThreadPool& global();

  /// True when called from inside one of this pool's workers.
  static bool in_worker();

  /// Pure sizing policy, exposed for testing. `env_value` is the raw
  /// MFN_NUM_THREADS string (may be null); `hardware` is
  /// std::thread::hardware_concurrency() (may be 0 when unknown).
  /// Malformed (non-integer, trailing junk, out-of-range) and non-positive
  /// values are rejected in favour of the hardware default; valid values are
  /// clamped to [1, kMaxThreads].
  static int resolve_thread_count(const char* env_value, unsigned hardware);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Run fn(begin, end) over a partition of [0, n). Blocks until all chunks
/// complete. Runs serially (one call over [0, n)) when n <= grain, when the
/// pool has a single thread, or when invoked from inside a pool worker.
void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  std::int64_t grain = 1);

/// Tile the 2-D range [0, n0) x [0, n1) into blocks of at most
/// (grain0, grain1) and run fn(i_begin, i_end, j_begin, j_end) over the
/// tiles in parallel. Tiles are disjoint and cover the range exactly once.
void parallel_for_2d(
    std::int64_t n0, std::int64_t n1, std::int64_t grain0, std::int64_t grain1,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t)>& fn);

}  // namespace mfn
