#include "threading/thread_pool.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <memory>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/error.h"

namespace mfn {
namespace {
thread_local bool t_in_worker = false;

/// Keep multi-megabyte tensor buffers on the heap free lists instead of
/// round-tripping through mmap/munmap. Batched training/inference
/// allocates and frees the same large intermediates every step; glibc's
/// default dynamic mmap threshold (<= 32 MiB) hands them back to the
/// kernel on free, so every reallocation pays fresh page faults and
/// page zeroing — measurably slower than the compute on wide minibatch
/// shapes. Runs once, before the first pool (and hence the first kernel).
/// This mutates the process-wide allocator and can raise steady-state RSS
/// by up to the trim threshold; hosts embedding libmfn for light work can
/// opt out with MFN_NO_MALLOC_TUNING=1.
void tune_allocator_for_large_buffers() {
#if defined(__GLIBC__)
  const char* off = std::getenv("MFN_NO_MALLOC_TUNING");
  if (off != nullptr && *off != '\0' && *off != '0') return;
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
}
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  MFN_CHECK(num_threads >= 1, "thread pool needs >= 1 thread");
  MFN_CHECK(num_threads <= kMaxThreads,
            "thread pool size " << num_threads << " exceeds kMaxThreads");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

int ThreadPool::resolve_thread_count(const char* env_value, unsigned hardware) {
  const int hw_default =
      hardware == 0
          ? 1
          : static_cast<int>(std::min<unsigned>(hardware, kMaxThreads));
  if (env_value == nullptr || *env_value == '\0') return hw_default;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(env_value, &end, 10);
  if (end == env_value || *end != '\0' || errno == ERANGE) {
    // Malformed ("abc", "4x", "") — ignore rather than propagate.
    return hw_default;
  }
  if (v < 1) return hw_default;  // non-positive is meaningless for a pool
  if (v > kMaxThreads) return kMaxThreads;
  return static_cast<int>(v);
}

ThreadPool& ThreadPool::global() {
  static const bool allocator_tuned = [] {
    tune_allocator_for_large_buffers();
    return true;
  }();
  (void)allocator_tuned;
  static ThreadPool pool(resolve_thread_count(
      std::getenv("MFN_NUM_THREADS"), std::thread::hardware_concurrency()));
  return pool;
}

bool ThreadPool::in_worker() { return t_in_worker; }

void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  std::int64_t grain) {
  if (n <= 0) return;
  ThreadPool& pool = ThreadPool::global();
  const int nthreads = pool.size();
  if (n <= grain || nthreads <= 1 || ThreadPool::in_worker()) {
    fn(0, n);
    return;
  }

  // Dynamic chunk scheduling: workers and the calling thread all pull chunks
  // from a shared atomic counter, so the caller is never idle.
  std::int64_t nchunks = std::min<std::int64_t>(
      static_cast<std::int64_t>(nthreads) * 4, (n + grain - 1) / grain);
  if (nchunks < 1) nchunks = 1;
  const std::int64_t chunk = (n + nchunks - 1) / nchunks;

  struct State {
    std::atomic<std::int64_t> next{0};
    std::atomic<int> active{0};
    std::mutex mu;
    std::condition_variable done;
  };
  auto state = std::make_shared<State>();

  auto drain = [state, &fn, chunk, n, nchunks] {
    // Mark every participant — including the calling thread — as "in
    // worker" while it drains. A nested parallel_for from the caller's
    // chunk must run serially just like one from a pool worker: if it
    // enqueued helper tasks they would sit behind the other outer chunks
    // in the pool FIFO and the caller would stall waiting on them.
    const bool was_in_worker = t_in_worker;
    t_in_worker = true;
    for (;;) {
      const std::int64_t c = state->next.fetch_add(1);
      if (c >= nchunks) break;
      const std::int64_t begin = c * chunk;
      const std::int64_t end = std::min<std::int64_t>(begin + chunk, n);
      fn(begin, end);
    }
    t_in_worker = was_in_worker;
  };

  const int helpers =
      static_cast<int>(std::min<std::int64_t>(nthreads, nchunks));
  state->active.store(helpers);
  for (int i = 0; i < helpers; ++i) {
    pool.submit([state, drain] {
      drain();
      if (state->active.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lk(state->mu);
        state->done.notify_all();
      }
    });
  }
  drain();  // caller participates
  std::unique_lock<std::mutex> lk(state->mu);
  state->done.wait(lk, [&] { return state->active.load() == 0; });
}

void parallel_for_2d(
    std::int64_t n0, std::int64_t n1, std::int64_t grain0, std::int64_t grain1,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t)>& fn) {
  if (n0 <= 0 || n1 <= 0) return;
  MFN_CHECK(grain0 >= 1 && grain1 >= 1, "parallel_for_2d grain must be >= 1");
  const std::int64_t t0 = (n0 + grain0 - 1) / grain0;
  const std::int64_t t1 = (n1 + grain1 - 1) / grain1;
  parallel_for(t0 * t1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t t = b; t < e; ++t) {
      const std::int64_t i = (t / t1) * grain0;
      const std::int64_t j = (t % t1) * grain1;
      fn(i, std::min(i + grain0, n0), j, std::min(j + grain1, n1));
    }
  });
}

}  // namespace mfn
