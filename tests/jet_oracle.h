// Test oracle for the decoder's derivative jet: the forward-mode (value,
// tangent, curvature) streams composed from generic tape ops, corner row
// by corner row, blended after the output layer. Every op's backward comes
// from src/autodiff, so gradients taken through this oracle are an
// independent check of DecoderJet's hand-derived reverse pass.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "autodiff/ops.h"
#include "core/decoder.h"
#include "tensor/tensor_ops.h"

namespace mfn::test {

struct OracleDerivs {
  core::DecodeDerivs d;
  /// 2 sum_j dw_m t_m, the blend's share of d2/dm2 (m = z, x): all of it
  /// when f'' == 0.
  ad::Var cross_zz, cross_xx;
};

inline OracleDerivs tape_jet(core::ContinuousDecoder& dec,
                             const ad::Var& latent, const Tensor& coords) {
  const std::int64_t N = latent.dim(0);
  const std::int64_t B =
      coords.ndim() == 2 ? coords.dim(0) : coords.dim(0) * coords.dim(1);
  const std::int64_t Q = B / N;
  const std::int64_t size[3] = {latent.dim(2), latent.dim(3), latent.dim(4)};
  const std::int64_t in_dim = dec.mlp().in_features();

  // Corner-major geometry: row j*B + b is corner j (bits t, z, x) of query
  // b, with its relative coordinates, voxel, weight and weight derivatives.
  Tensor rel(Shape{8 * B, 3}), w(Shape{8 * B, 1});
  std::array<Tensor, 3> dw = {Tensor(Shape{8 * B, 1}),
                              Tensor(Shape{8 * B, 1}),
                              Tensor(Shape{8 * B, 1})};
  std::vector<ad::VoxelIndex> vox(static_cast<std::size_t>(8 * B));
  for (std::int64_t b = 0; b < B; ++b) {
    std::int64_t base[3];
    double frac[3];
    for (int k = 0; k < 3; ++k) {
      const double c = std::clamp(static_cast<double>(coords.data()[b * 3 + k]),
                                  0.0, static_cast<double>(size[k] - 1));
      base[k] = std::min(static_cast<std::int64_t>(std::floor(c)),
                         size[k] - 2);
      frac[k] = c - static_cast<double>(base[k]);
    }
    for (int j = 0; j < 8; ++j) {
      const int bit[3] = {(j >> 2) & 1, (j >> 1) & 1, j & 1};
      const std::int64_t row = j * B + b;
      double hat[3], dhat[3];
      for (int k = 0; k < 3; ++k) {
        rel.data()[row * 3 + k] = static_cast<float>(frac[k] - bit[k]);
        hat[k] = bit[k] ? frac[k] : 1.0 - frac[k];
        dhat[k] = bit[k] ? 1.0 : -1.0;
      }
      vox[static_cast<std::size_t>(row)] = {b / Q, base[0] + bit[0],
                                            base[1] + bit[1],
                                            base[2] + bit[2]};
      w.data()[row] = static_cast<float>(hat[0] * hat[1] * hat[2]);
      dw[0].data()[row] = static_cast<float>(dhat[0] * hat[1] * hat[2]);
      dw[1].data()[row] = static_cast<float>(hat[0] * dhat[1] * hat[2]);
      dw[2].data()[row] = static_cast<float>(hat[0] * hat[1] * dhat[2]);
    }
  }

  ad::Var h = ad::gather_voxels_concat(rel, latent, vox);
  // Tangent seeds e_k on the coordinate columns; curvature seeds are zero
  // (the inputs are affine in the coordinates).
  std::array<ad::Var, 3> tan;
  for (int k = 0; k < 3; ++k) {
    Tensor seed = Tensor::zeros(Shape{8 * B, in_dim});
    for (std::int64_t r = 0; r < 8 * B; ++r) seed.data()[r * in_dim + k] = 1;
    tan[static_cast<std::size_t>(k)] = ad::Var(seed, false);
  }
  std::array<ad::Var, 2> curv = {
      ad::Var(Tensor::zeros(Shape{8 * B, in_dim}), false),
      ad::Var(Tensor::zeros(Shape{8 * B, in_dim}), false)};

  const auto& layers = dec.mlp().layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    nn::Linear& fc = *layers[li];
    ad::Var z = fc.forward(h);
    for (auto& t : tan) t = ad::linear(t, fc.weight(), ad::Var());
    for (auto& c : curv) c = ad::linear(c, fc.weight(), ad::Var());
    if (li + 1 == layers.size()) {
      h = z;
      break;
    }
    ad::Var f1, f2;  // f'(z), f''(z)
    switch (dec.mlp().activation()) {
      case nn::Activation::kSoftplus: {
        ad::Var s = ad::sigmoid(z);
        f1 = s;
        f2 = ad::mul(s, ad::add_scalar(ad::neg(s), 1.0f));
        h = ad::softplus(z);
        break;
      }
      case nn::Activation::kTanh: {
        ad::Var th = ad::tanh(z);
        f1 = ad::add_scalar(ad::neg(ad::square(th)), 1.0f);
        f2 = ad::mul_scalar(ad::mul(th, f1), -2.0f);
        h = th;
        break;
      }
      case nn::Activation::kReLU:
        f1 = ad::Var(mfn::gt_zero_mask(z.value()), false);
        f2 = ad::Var(Tensor::zeros(z.shape()), false);
        h = ad::relu(z);
        break;
    }
    curv[0] = ad::add(ad::mul(f2, ad::square(tan[1])), ad::mul(f1, curv[0]));
    curv[1] = ad::add(ad::mul(f2, ad::square(tan[2])), ad::mul(f1, curv[1]));
    for (auto& t : tan) t = ad::mul(f1, t);
  }

  ad::Var wv(w, false);
  std::array<ad::Var, 3> dwv = {ad::Var(dw[0], false), ad::Var(dw[1], false),
                                ad::Var(dw[2], false)};
  OracleDerivs o;
  o.d.value = ad::blend_corners(h, wv);
  o.d.d_dt = ad::add(ad::blend_corners(h, dwv[0]),
                       ad::blend_corners(tan[0], wv));
  o.d.d_dz = ad::add(ad::blend_corners(h, dwv[1]),
                       ad::blend_corners(tan[1], wv));
  o.d.d_dx = ad::add(ad::blend_corners(h, dwv[2]),
                       ad::blend_corners(tan[2], wv));
  o.cross_zz = ad::mul_scalar(ad::blend_corners(tan[1], dwv[1]), 2.0f);
  o.cross_xx = ad::mul_scalar(ad::blend_corners(tan[2], dwv[2]), 2.0f);
  o.d.d2_dz2 = ad::add(o.cross_zz, ad::blend_corners(curv[0], wv));
  o.d.d2_dx2 = ad::add(o.cross_xx, ad::blend_corners(curv[1], wv));
  return o;
}

}  // namespace mfn::test
