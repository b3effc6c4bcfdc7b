// Tests for the raw volumetric kernels: conv3d vs the direct-loop oracle,
// pooling/upsampling inverses, batchnorm statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "conv_oracle.h"
#include "tensor/nn_kernels.h"
#include "tensor/tensor_ops.h"

namespace mfn {
namespace {

Tensor rand5d(std::int64_t n, std::int64_t c, std::int64_t d, std::int64_t h,
              std::int64_t w, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(Shape{n, c, d, h, w}, rng);
}

struct ConvCase {
  std::int64_t N, C, F, D, H, W, K;
  bool bias;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, ForwardMatchesReference) {
  const auto p = GetParam();
  Rng rng(10);
  Tensor x = rand5d(p.N, p.C, p.D, p.H, p.W, 21);
  Tensor w = Tensor::randn(Shape{p.F, p.C, p.K, p.K, p.K}, rng, 0.3f);
  Tensor b = p.bias ? Tensor::randn(Shape{p.F}, rng) : Tensor();
  Conv3dSpec spec;
  spec.kernel = {p.K, p.K, p.K};
  spec.stride = {1, 1, 1};
  spec.padding = {p.K / 2, p.K / 2, p.K / 2};
  Tensor y = conv3d_forward(x, w, b, spec);
  Tensor ref = test::conv3d_ref(x, w, b, spec);
  EXPECT_TRUE(allclose(y, ref, 1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 1, 2, 3, 3, 1, false},
                      ConvCase{1, 2, 3, 3, 4, 4, 3, true},
                      ConvCase{2, 3, 2, 4, 5, 6, 3, true},
                      ConvCase{1, 4, 4, 2, 8, 8, 1, true},
                      ConvCase{2, 2, 5, 4, 4, 4, 3, false}));

TEST(Conv3d, BackwardMatchesFiniteDifference) {
  // Small problem: perturb every input/weight/bias entry.
  Rng rng(33);
  Tensor x = rand5d(1, 2, 2, 3, 3, 34);
  Tensor w = Tensor::randn(Shape{2, 2, 3, 3, 3}, rng, 0.4f);
  Tensor b = Tensor::randn(Shape{2}, rng);
  Conv3dSpec spec;  // 3x3x3, stride 1, pad 1
  // Loss = sum(conv(x)) so gy = ones.
  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    return sum(conv3d_forward(xx, ww, bb, spec));
  };
  Tensor gy = Tensor::ones(conv3d_output_shape(x.shape(), w.shape(), spec));
  Conv3dGrads g = conv3d_backward(x, w, true, spec, gy);

  const float eps = 1e-2f;
  auto check = [&](Tensor& t, const Tensor& analytic, const char* name) {
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      const float orig = t.data()[i];
      t.data()[i] = orig + eps;
      const float fp = loss(x, w, b);
      t.data()[i] = orig - eps;
      const float fm = loss(x, w, b);
      t.data()[i] = orig;
      EXPECT_NEAR((fp - fm) / (2 * eps), analytic.data()[i], 5e-2f)
          << name << " elem " << i;
    }
  };
  check(x, g.gx, "gx");
  check(w, g.gweight, "gw");
  check(b, g.gbias, "gb");
}

TEST(MaxPool3d, ForwardPicksMaxAndBackwardRoutes) {
  Tensor x = Tensor::zeros(Shape{1, 1, 2, 2, 2});
  x.at({0, 0, 0, 0, 0}) = 1.0f;
  x.at({0, 0, 1, 1, 1}) = 5.0f;
  auto res = maxpool3d_forward(x, {2, 2, 2});
  ASSERT_EQ(res.out.shape(), (Shape{1, 1, 1, 1, 1}));
  EXPECT_EQ(res.out.at({0, 0, 0, 0, 0}), 5.0f);

  Tensor gy = Tensor::full(Shape{1, 1, 1, 1, 1}, 3.0f);
  Tensor gx = maxpool3d_backward(x.shape(), {2, 2, 2}, res.argmax, gy);
  EXPECT_EQ(gx.at({0, 0, 1, 1, 1}), 3.0f);
  EXPECT_EQ(gx.at({0, 0, 0, 0, 0}), 0.0f);
}

TEST(MaxPool3d, AnisotropicKernel) {
  Tensor x = rand5d(2, 3, 4, 6, 8, 77);
  auto res = maxpool3d_forward(x, {1, 2, 2});
  EXPECT_EQ(res.out.shape(), (Shape{2, 3, 4, 3, 4}));
  // every output >= all 4 pooled inputs
  EXPECT_GE(res.out.at({0, 0, 0, 0, 0}),
            std::max({x.at({0, 0, 0, 0, 0}), x.at({0, 0, 0, 0, 1}),
                      x.at({0, 0, 0, 1, 0}), x.at({0, 0, 0, 1, 1})}));
  EXPECT_THROW(maxpool3d_forward(x, {3, 2, 2}), Error);
}

TEST(Upsample3d, NearestReplicates) {
  Tensor x = Tensor::arange(4).reshape(Shape{1, 1, 1, 2, 2});
  Tensor y = upsample_nearest3d_forward(x, {2, 2, 2});
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 4, 4}));
  EXPECT_EQ(y.at({0, 0, 0, 0, 0}), 0.0f);
  EXPECT_EQ(y.at({0, 0, 1, 0, 1}), 0.0f);
  EXPECT_EQ(y.at({0, 0, 0, 3, 3}), 3.0f);
}

TEST(Upsample3d, BackwardSumsBlocks) {
  Tensor gy = Tensor::ones(Shape{1, 1, 2, 4, 4});
  Tensor gx = upsample_nearest3d_backward(Shape{1, 1, 1, 2, 2}, {2, 2, 2}, gy);
  for (std::int64_t h = 0; h < 2; ++h)
    for (std::int64_t w = 0; w < 2; ++w)
      EXPECT_EQ(gx.at({0, 0, 0, h, w}), 8.0f);  // 2*2*2 block each
}

TEST(Upsample3d, PoolUpsampleAdjoint) {
  // <up(x), y> == <x, up_backward(y)> — adjointness of the pair.
  Rng rng(5);
  Tensor x = rand5d(1, 2, 2, 3, 2, 91);
  Tensor y = rand5d(1, 2, 4, 6, 4, 92);
  Tensor ux = upsample_nearest3d_forward(x, {2, 2, 2});
  Tensor bty = upsample_nearest3d_backward(x.shape(), {2, 2, 2}, y);
  EXPECT_NEAR(sum(mul(ux, y)), sum(mul(x, bty)), 1e-3f);
}

TEST(BatchNorm3d, NormalizesToZeroMeanUnitVar) {
  Tensor x = rand5d(4, 3, 2, 4, 4, 101);
  // shift/scale channel 1 strongly
  for (std::int64_t n = 0; n < 4; ++n)
    for (std::int64_t i = 0; i < 2 * 4 * 4; ++i) {
      float* p = x.data() + ((n * 3 + 1) * 2 * 4 * 4) + i;
      *p = *p * 10.0f + 5.0f;
    }
  Tensor gamma = Tensor::ones(Shape{3});
  Tensor beta = Tensor::zeros(Shape{3});
  auto res = batchnorm3d_forward(x, gamma, beta, 1e-5f);
  // per-channel mean ~0 and var ~1 of output
  const std::int64_t S = 2 * 4 * 4, N = 4;
  for (std::int64_t c = 0; c < 3; ++c) {
    double m = 0.0, v = 0.0;
    for (std::int64_t n = 0; n < N; ++n)
      for (std::int64_t i = 0; i < S; ++i)
        m += res.out.data()[(n * 3 + c) * S + i];
    m /= static_cast<double>(N * S);
    for (std::int64_t n = 0; n < N; ++n)
      for (std::int64_t i = 0; i < S; ++i) {
        const double d = res.out.data()[(n * 3 + c) * S + i] - m;
        v += d * d;
      }
    v /= static_cast<double>(N * S);
    EXPECT_NEAR(m, 0.0, 1e-4);
    EXPECT_NEAR(v, 1.0, 1e-2);
  }
}

TEST(BatchNorm3d, AffineParamsApplied) {
  Tensor x = rand5d(2, 2, 2, 2, 2, 202);
  Tensor gamma = Tensor::from_vector(Shape{2}, {2.0f, 0.5f});
  Tensor beta = Tensor::from_vector(Shape{2}, {1.0f, -1.0f});
  auto res = batchnorm3d_forward(x, gamma, beta, 1e-5f);
  // out = gamma * xhat + beta
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(res.out.data()[i], 2.0f * res.xhat.data()[i] + 1.0f, 1e-5f);
    EXPECT_NEAR(res.out.data()[8 + i], 0.5f * res.xhat.data()[8 + i] - 1.0f,
                1e-5f);
  }
}

TEST(BatchNorm3d, EvalUsesRunningStats) {
  Tensor x = Tensor::full(Shape{1, 1, 1, 1, 2}, 4.0f);
  Tensor gamma = Tensor::ones(Shape{1});
  Tensor beta = Tensor::zeros(Shape{1});
  Tensor rm = Tensor::full(Shape{1}, 2.0f);
  Tensor rv = Tensor::full(Shape{1}, 4.0f);
  Tensor y = batchnorm3d_eval(x, gamma, beta, rm, rv, 0.0f);
  EXPECT_NEAR(y.at({0, 0, 0, 0, 0}), 1.0f, 1e-5f);  // (4-2)/2
}

TEST(BatchNorm3d, BackwardMatchesFiniteDifference) {
  Rng rng(7);
  Tensor x = rand5d(2, 2, 2, 2, 2, 303);
  Tensor gamma = Tensor::randn(Shape{2}, rng);
  Tensor beta = Tensor::randn(Shape{2}, rng);
  // Weighted loss keeps gradients non-degenerate (sum loss would zero gx).
  Tensor wloss = rand5d(2, 2, 2, 2, 2, 304);
  auto loss = [&](const Tensor& xx, const Tensor& gg, const Tensor& bb) {
    auto r = batchnorm3d_forward(xx, gg, bb, 1e-5f);
    return sum(mul(r.out, wloss));
  };
  auto saved = batchnorm3d_forward(x, gamma, beta, 1e-5f);
  auto grads = batchnorm3d_backward(saved, gamma, wloss);

  const float eps = 1e-2f;
  auto check = [&](Tensor& t, const Tensor& analytic, const char* name,
                   float tol) {
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      const float orig = t.data()[i];
      t.data()[i] = orig + eps;
      const float fp = loss(x, gamma, beta);
      t.data()[i] = orig - eps;
      const float fm = loss(x, gamma, beta);
      t.data()[i] = orig;
      EXPECT_NEAR((fp - fm) / (2 * eps), analytic.data()[i], tol)
          << name << " elem " << i;
    }
  };
  check(x, grads.gx, "gx", 8e-2f);
  check(gamma, grads.ggamma, "ggamma", 8e-2f);
  check(beta, grads.gbeta, "gbeta", 8e-2f);
}

}  // namespace
}  // namespace mfn
