// Unit tests for the thread pool and parallel_for, and the run-to-run
// determinism of the conv3d backward's batch reduction on the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "tensor/nn_kernels.h"
#include "threading/thread_pool.h"

namespace mfn {
namespace {

// Real concurrency even on single-core hosts (runs before the first
// ThreadPool::global() touch). An explicit MFN_NUM_THREADS wins.
const bool kForcePool = [] {
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  for (std::int64_t n : {0, 1, 2, 7, 100, 1023, 4096}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    parallel_for(n, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (std::int64_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SumMatchesSerial) {
  const std::int64_t n = 100000;
  std::atomic<long long> total{0};
  parallel_for(n, [&](std::int64_t b, std::int64_t e) {
    long long local = 0;
    for (std::int64_t i = b; i < e; ++i) local += i;
    total += local;
  });
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  // A nested parallel_for from inside a worker must not deadlock.
  std::atomic<int> count{0};
  parallel_for(8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      parallel_for(16, [&](std::int64_t bb, std::int64_t ee) {
        count += static_cast<int>(ee - bb);
      });
    }
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ParallelFor, RespectsGrain) {
  // With grain >= n the body must be invoked exactly once with [0, n).
  std::atomic<int> calls{0};
  parallel_for(
      100,
      [&](std::int64_t b, std::int64_t e) {
        calls++;
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 100);
      },
      /*grain=*/100);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor2d, TilesCoverRangeExactlyOnce) {
  const std::int64_t n0 = 37, n1 = 53;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n0 * n1));
  parallel_for_2d(n0, n1, 8, 16,
                  [&](std::int64_t i0, std::int64_t i1, std::int64_t j0,
                      std::int64_t j1) {
                    EXPECT_LE(i1 - i0, 8);
                    EXPECT_LE(j1 - j0, 16);
                    for (std::int64_t i = i0; i < i1; ++i)
                      for (std::int64_t j = j0; j < j1; ++j)
                        hits[static_cast<std::size_t>(i * n1 + j)]++;
                  });
  for (std::int64_t i = 0; i < n0 * n1; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "cell " << i;
}

TEST(ParallelFor2d, EmptyRangeDoesNothing) {
  int calls = 0;
  parallel_for_2d(0, 10, 4, 4,
                  [&](std::int64_t, std::int64_t, std::int64_t, std::int64_t) {
                    ++calls;
                  });
  parallel_for_2d(10, 0, 4, 4,
                  [&](std::int64_t, std::int64_t, std::int64_t, std::int64_t) {
                    ++calls;
                  });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, GlobalHasAtLeastOneThread) {
  EXPECT_GE(ThreadPool::global().size(), 1);
}

// Regression: MFN_NUM_THREADS sizing must reject malformed and
// non-positive values and clamp absurd ones instead of propagating them
// into the pool constructor.
TEST(ThreadPool, ResolveThreadCountSanitizesEnv) {
  const unsigned hw = 8;
  // Unset / empty -> hardware default.
  EXPECT_EQ(ThreadPool::resolve_thread_count(nullptr, hw), 8);
  EXPECT_EQ(ThreadPool::resolve_thread_count("", hw), 8);
  // Valid values pass through.
  EXPECT_EQ(ThreadPool::resolve_thread_count("1", hw), 1);
  EXPECT_EQ(ThreadPool::resolve_thread_count("4", hw), 4);
  EXPECT_EQ(ThreadPool::resolve_thread_count("17", hw), 17);
  // Non-positive -> hardware default, never a dead or negative pool.
  EXPECT_EQ(ThreadPool::resolve_thread_count("0", hw), 8);
  EXPECT_EQ(ThreadPool::resolve_thread_count("-3", hw), 8);
  // Malformed -> hardware default, not atoi()'s silent prefix parse.
  EXPECT_EQ(ThreadPool::resolve_thread_count("abc", hw), 8);
  EXPECT_EQ(ThreadPool::resolve_thread_count("4x", hw), 8);
  EXPECT_EQ(ThreadPool::resolve_thread_count("3.5", hw), 8);
  // Absurd values clamp to the hard cap instead of spawning them.
  EXPECT_EQ(ThreadPool::resolve_thread_count("1000000", hw),
            ThreadPool::kMaxThreads);
  EXPECT_EQ(
      ThreadPool::resolve_thread_count("99999999999999999999999999", hw), 8);
  // Unknown hardware (0) falls back to a single thread.
  EXPECT_EQ(ThreadPool::resolve_thread_count(nullptr, 0), 1);
  EXPECT_EQ(ThreadPool::resolve_thread_count("bad", 0), 1);
}

// conv3d_backward sums weight/bias gradients over the batch from parallel
// per-range partials; the grouping and summation order must not depend on
// which worker ran which samples, so repeated calls agree to the bit.
TEST(ConvBackwardOnPool, WeightAndBiasGradsBitwiseRepeatable) {
  ASSERT_GE(ThreadPool::global().size(), 2) << "needs a multi-thread pool";
  Rng rng(61);
  // Stride-1 "same" (fast path) and stride-2 (packed seam) geometries, with
  // more samples than workers so ranges hold several samples, and enough
  // work per sample that every pool worker takes part (a worker-indexed
  // reduction fails this on its first repeat).
  for (const std::int64_t stride : {1, 2}) {
    Tensor x = Tensor::randn(Shape{16, 8, 4, 16, 16}, rng);
    Tensor w = Tensor::randn(Shape{8, 8, 3, 3, 3}, rng, 0.3f);
    Conv3dSpec spec;
    spec.stride = {stride, stride, stride};
    Tensor gy =
        Tensor::randn(conv3d_output_shape(x.shape(), w.shape(), spec), rng);
    const Conv3dGrads first = conv3d_backward(x, w, true, spec, gy);
    for (int rep = 0; rep < 20; ++rep) {
      const Conv3dGrads again = conv3d_backward(x, w, true, spec, gy);
      ASSERT_EQ(std::memcmp(first.gweight.data(), again.gweight.data(),
                            sizeof(float) * first.gweight.numel()),
                0)
          << "gweight differs on repeat " << rep << ", stride " << stride;
      ASSERT_EQ(std::memcmp(first.gbias.data(), again.gbias.data(),
                            sizeof(float) * first.gbias.numel()),
                0)
          << "gbias differs on repeat " << rep << ", stride " << stride;
    }
  }
}

TEST(ThreadPool, SubmitRuns) {
  std::atomic<bool> ran{false};
  std::atomic<int> done{0};
  ThreadPool::global().submit([&] {
    ran = true;
    done = 1;
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace mfn
