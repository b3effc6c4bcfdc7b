// The decoder's derivative jet as one tape node (core/decoder_jet.h): its
// hand-derived reverse pass against finite differences and against the
// tape-op composition in jet_oracle.h, and bitwise thread-count invariance
// of its outputs and gradients.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/gradcheck.h"
#include "common/rng.h"
#include "core/decoder.h"
#include "jet_oracle.h"
#include "threading/thread_pool.h"

namespace mfn::core {
namespace {

// Real concurrency even on single-core hosts (runs before the first
// ThreadPool::global() touch). An explicit MFN_NUM_THREADS wins.
const bool kForcePool = [] {
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// A tiny decoder with random biases too (Linear starts them at zero,
// which would hide how the jet routes them).
std::unique_ptr<ContinuousDecoder> make_decoder(
    nn::Activation act, std::vector<std::int64_t> hidden, Rng& rng) {
  DecoderConfig cfg;
  cfg.latent_channels = 3;
  cfg.out_channels = 4;
  cfg.hidden = std::move(hidden);
  cfg.activation = act;
  auto dec = std::make_unique<ContinuousDecoder>(cfg, rng);
  for (ad::Var* p : dec->parameters())
    if (p->value().ndim() == 1)
      p->value() = Tensor::randn(p->value().shape(), rng, 0.3f);
  return dec;
}

constexpr std::int64_t kLT = 3, kLZ = 4, kLX = 5;

// Queries over the whole grid and beyond it: the first few sit outside or
// on its faces, where the cell index clamps.
Tensor make_coords(Rng& rng, std::int64_t n, std::int64_t q, bool flat) {
  Tensor c = flat ? Tensor(Shape{n * q, 3}) : Tensor(Shape{n, q, 3});
  const float edge[4][3] = {{-0.7f, 0.2f, 4.9f},
                            {2.0f, 3.0f, 4.0f},
                            {0.0f, -1.0f, 2.5f},
                            {2.6f, 1.5f, 0.0f}};
  const std::int64_t size[3] = {kLT, kLZ, kLX};
  for (std::int64_t b = 0; b < n * q; ++b)
    for (int k = 0; k < 3; ++k)
      c.data()[b * 3 + k] =
          b < 4 ? edge[b][k]
                : static_cast<float>(rng.uniform(-0.3, size[k] - 0.7));
  return c;
}

std::array<const ad::Var*, 6> outputs(const DecodeDerivs& d) {
  return {&d.value, &d.d_dt, &d.d_dz, &d.d_dx, &d.d2_dz2, &d.d2_dx2};
}

// A fixed random weighting of all six outputs: sum_s sum(R_s * out_s).
struct Weighting {
  std::array<Tensor, 6> r;
  Weighting(std::int64_t rows, Rng& rng) {
    for (auto& t : r) t = Tensor::randn(Shape{rows, 4}, rng, 1.0f);
  }
  ad::Var operator()(const DecodeDerivs& d) const {
    const auto outs = outputs(d);
    ad::Var sum;
    for (int s = 0; s < 6; ++s) {
      ad::Var term = ad::sum(ad::mul(*outs[s], ad::Var(r[s], false)));
      sum = s == 0 ? term : ad::add(sum, term);
    }
    return sum;
  }
};

double abs_max(const Tensor& t) {
  double m = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i)
    m = std::max(m, std::abs(static_cast<double>(t.data()[i])));
  return m;
}

// |a - b| <= tol * (1 + max|b|), elementwise.
void expect_close(const Tensor& a, const Tensor& b, double tol,
                  const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const double bound = tol * (1.0 + abs_max(b));
  double worst = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(a.data()[i]) -
                                     static_cast<double>(b.data()[i])));
  EXPECT_LE(worst, bound) << what;
}

void expect_bitwise(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what << " differs";
}

// Outputs and gradients (decoder parameters, then the latent) of one
// weighted-loss backward pass.
struct JetRun {
  std::array<Tensor, 6> out;
  std::vector<Tensor> grads;
};

template <class Decode>
JetRun run(ContinuousDecoder& dec, ad::Var& latent, const Weighting& weigh,
        Decode decode) {
  for (ad::Var* p : dec.parameters()) p->zero_grad();
  latent.zero_grad();
  const DecodeDerivs d = decode();
  ad::backward(weigh(d));
  JetRun r;
  const auto outs = outputs(d);
  for (int s = 0; s < 6; ++s)
    r.out[static_cast<std::size_t>(s)] = outs[s]->value().clone();
  for (ad::Var* p : dec.parameters()) r.grads.push_back(p->grad().clone());
  r.grads.push_back(latent.grad().clone());
  return r;
}

// ------------------------------------------------------------ gradcheck

class JetGradcheck : public ::testing::TestWithParam<nn::Activation> {};

TEST_P(JetGradcheck, ParametersAndLatentMatchFiniteDifferences) {
  Rng rng(11);
  auto dec_ptr = make_decoder(GetParam(), {5, 4}, rng);
  ContinuousDecoder& dec = *dec_ptr;
  std::vector<ad::Var> inputs{ad::Var(
      Tensor::randn(Shape{1, 3, kLT, kLZ, kLX}, rng, 0.5f), true)};
  for (ad::Var* p : dec.parameters()) inputs.push_back(*p);
  const Tensor coords = make_coords(rng, 1, 6, /*flat=*/true);
  const Weighting weigh(6, rng);
  auto fn = [&](const std::vector<ad::Var>& in) {
    return weigh(dec.decode_with_derivatives(in[0], coords));
  };
  const ad::GradCheckResult res = ad::gradcheck(fn, inputs, 1e-2f, 2e-2f);
  EXPECT_TRUE(res.ok) << res.detail << " (max err " << res.max_abs_err << ")";
}

INSTANTIATE_TEST_SUITE_P(SmoothActivations, JetGradcheck,
                         ::testing::Values(nn::Activation::kSoftplus,
                                           nn::Activation::kTanh));

// ------------------------------------------------ against the tape oracle

struct OracleCase {
  nn::Activation act;
  std::vector<std::int64_t> hidden;
  bool flat;  // (B, 3) coords on one latent sample, else (N, Q, 3)
};

class JetVsOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(JetVsOracle, OutputsAndGradientsMatch) {
  const OracleCase& c = GetParam();
  Rng rng(21);
  auto dec_ptr = make_decoder(c.act, c.hidden, rng);
  ContinuousDecoder& dec = *dec_ptr;
  const std::int64_t n = c.flat ? 1 : 3, q = 90;  // several jet blocks
  ad::Var latent(Tensor::randn(Shape{n, 3, kLT, kLZ, kLX}, rng, 0.5f), true);
  const Tensor coords = make_coords(rng, n, q, c.flat);
  const Weighting weigh(n * q, rng);

  const JetRun jet = run(dec, latent, weigh, [&] {
    return dec.decode_with_derivatives(latent, coords);
  });
  const JetRun tape = run(dec, latent, weigh, [&] {
    return test::tape_jet(dec, latent, coords).d;
  });
  for (int s = 0; s < 6; ++s)
    expect_close(jet.out[static_cast<std::size_t>(s)],
                 tape.out[static_cast<std::size_t>(s)], 2e-5,
                 "output " + std::to_string(s));
  ASSERT_EQ(jet.grads.size(), tape.grads.size());
  for (std::size_t i = 0; i < jet.grads.size(); ++i)
    expect_close(jet.grads[i], tape.grads[i], 2e-5,
                 "gradient " + std::to_string(i));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, JetVsOracle,
    ::testing::Values(
        OracleCase{nn::Activation::kSoftplus, {5, 4}, false},
        OracleCase{nn::Activation::kSoftplus, {5, 4}, true},
        OracleCase{nn::Activation::kTanh, {6, 5, 4}, false},
        OracleCase{nn::Activation::kTanh, {5}, true},
        OracleCase{nn::Activation::kSoftplus, {}, false}));

TEST(DecoderJet, ReluForwardMatchesOracleWithZeroCurvature) {
  // A ReLU MLP is piecewise linear (f'' = 0): its curvature streams vanish
  // and d2/dm2 is exactly the blend's cross term 2 sum_j dw_m t_m.
  Rng rng(31);
  auto dec_ptr = make_decoder(nn::Activation::kReLU, {6, 5}, rng);
  ContinuousDecoder& dec = *dec_ptr;
  ad::Var latent(Tensor::randn(Shape{2, 3, kLT, kLZ, kLX}, rng, 0.5f), false);
  const Tensor coords = make_coords(rng, 2, 80, /*flat=*/false);
  const DecodeDerivs d = dec.decode_with_derivatives(latent, coords);
  const test::OracleDerivs o = test::tape_jet(dec, latent, coords);
  const auto got = outputs(d), want = outputs(o.d);
  for (int s = 0; s < 6; ++s)
    expect_close(got[s]->value(), want[s]->value(), 2e-5,
                 "output " + std::to_string(s));
  expect_close(d.d2_dz2.value(), o.cross_zz.value(), 2e-5, "d2/dz2");
  expect_close(d.d2_dx2.value(), o.cross_xx.value(), 2e-5, "d2/dx2");
}

TEST(DecoderJet, EmptyQueryBatchGivesEmptyOutputs) {
  Rng rng(35);
  auto dec = make_decoder(nn::Activation::kSoftplus, {5, 4}, rng);
  ad::Var latent(Tensor::randn(Shape{2, 3, kLT, kLZ, kLX}, rng, 0.5f), true);
  const DecodeDerivs d =
      dec->decode_with_derivatives(latent, Tensor(Shape{2, 0, 3}));
  for (const ad::Var* o : outputs(d)) EXPECT_EQ(o->shape(), (Shape{0, 4}));
}

// --------------------------------------------------- thread-count invariance

TEST(DecoderJet, OutputsAndGradientsBitIdenticalAcrossThreadCounts) {
  ASSERT_GE(ThreadPool::global().size(), 2) << "needs a multi-thread pool";
  Rng rng(41);
  auto dec_ptr = make_decoder(nn::Activation::kSoftplus, {16, 16}, rng);
  ContinuousDecoder& dec = *dec_ptr;
  ad::Var latent(Tensor::randn(Shape{3, 3, kLT, kLZ, kLX}, rng, 0.5f), true);
  const Tensor coords = make_coords(rng, 3, 150, /*flat=*/false);
  const Weighting weigh(3 * 150, rng);
  auto decode = [&] { return dec.decode_with_derivatives(latent, coords); };

  // Inside a pool worker every nested parallel_for runs serially; on this
  // thread the jet's blocks fan out across the pool.
  std::promise<JetRun> serial_out;
  std::future<JetRun> fut = serial_out.get_future();
  ThreadPool::global().submit(
      [&] { serial_out.set_value(run(dec, latent, weigh, decode)); });
  const JetRun serial = fut.get();
  const JetRun parallel = run(dec, latent, weigh, decode);
  for (int s = 0; s < 6; ++s)
    expect_bitwise(serial.out[static_cast<std::size_t>(s)],
                   parallel.out[static_cast<std::size_t>(s)],
                   "output " + std::to_string(s));
  ASSERT_EQ(serial.grads.size(), parallel.grads.size());
  for (std::size_t i = 0; i < serial.grads.size(); ++i)
    expect_bitwise(serial.grads[i], parallel.grads[i],
                   "gradient " + std::to_string(i));
}

}  // namespace
}  // namespace mfn::core
