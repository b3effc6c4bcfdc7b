// Derivative jet of the Continuous Decoding Network: the one kernel behind
// ContinuousDecoder::decode_with_derivatives (training, one tape node) and
// DecodePlan::execute_derivatives (serving).
//
// Per corner row it carries six forward-mode streams through the hidden
// layers — value h, tangents t_k = dh/dk (k = t, z, x), curvatures c_m =
// d2h/dm2 (m = z, x):
//   affine:  z = h W^T + b,  t_k <- t_k W^T,  c_m <- c_m W^T
//   act:     h = f(z),  t_k <- f'(z) t_k,  c_m <- f''(z) t_m^2 + f'(z) c_m
// Layer 1's inputs are affine in the coordinates, so its tangents are the
// weight columns 0-2 and its curvatures zero (constant-folded); later layers
// run the five derivative streams, which share W, as one stacked GEMM. The
// output layer is linear, so the trilinear blend (weights w, derivatives
// dw_k, d2w/dk2 = 0) runs before it, on one row per query:
//   value  = [sum_j w h] W^T + b                  (sum_j w = 1)
//   d/dk   = [sum_j dw_k h + w t_k] W^T           (sum_j dw_k = 0)
//   d2/dm2 = [sum_j 2 dw_m t_m + w c_m] W^T
//
// Queries run in fixed global blocks of kJetBlock whatever the thread
// count, each in one arena slice, so outputs and gradients do not depend on
// MFN_NUM_THREADS. With prepacked panels the GEMMs run sgemm_prepacked_nt,
// bitwise equal to the dense sgemm_bias_cols path: training and serving
// get identical fp32 outputs. backward() is the hand-derived reverse pass
// (arXiv:2005.01463 Sec. 4): per layer dW += G^T [h | t | c] as one GEMM
// over the stacked streams (layer 1 adds colsum(G_t_k) to weight column k),
// [G_h | G_t | G_c] = G W, then back through f with f', f'', f'''. Block
// partials are reduced in block order after the parallel_for; latent rows
// are scattered serially in row order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "nn/mlp.h"

namespace mfn::core {

/// Queries per jet block; fixes the GEMM row counts, so it is part of the
/// bitwise contract between training and serving.
constexpr std::int64_t kJetBlock = 64;

/// Clamp a query coordinate into the cell range of an axis of `size` grid
/// points and split it into (base corner, fraction). Every decode path
/// uses it, so their gather rows and blend weights agree bit for bit.
inline std::pair<std::int64_t, double> cellof(float v, std::int64_t size) {
  double c = std::min(std::max(static_cast<double>(v), 0.0),
                      static_cast<double>(size - 1));
  auto base = static_cast<std::int64_t>(std::floor(c));
  base = std::min(base, size - 2);
  return {base, c - static_cast<double>(base)};
}

/// One decoder MLP layer as the jet reads it.
struct JetLayer {
  std::int64_t in = 0, out = 0;
  const float* weight = nullptr;  // dense (out, in)
  const float* packed = nullptr;  // sgemm_prepack_b panels; null: dense GEMM
  const float* bias = nullptr;    // `out` entries, or null
};

class DecoderJet {
 public:
  DecoderJet() = default;
  /// Jet over `n` latent samples of `q` queries each on an (lt, lz, lx)
  /// grid; the latent has layers[0].in - 3 channels.
  DecoderJet(std::vector<JetLayer> layers, nn::Activation act, std::int64_t n,
             std::int64_t q, std::int64_t lt, std::int64_t lz,
             std::int64_t lx);

  std::vector<JetLayer>& layers() { return layers_; }
  /// Floats of forward state forward() saves for backward().
  std::size_t state_floats() const;

  /// `latent` (N, C, LT, LZ, LX), `coords` N*Q (t, z, x) rows. Writes value,
  /// d_dt, d_dz, d_dx, d2_dz2, d2_dx2 to out[0..5], each (N*Q, out); saves
  /// state for backward() to `state` unless it is null.
  void forward(const float* latent, const float* coords, float* const out[6],
               float* state) const;

  /// Given the gradients gout[0..5] of the six outputs and forward()'s
  /// state, accumulates (+=) into dweight[l], dbias[l] and the
  /// latent-shaped `dlatent`; any destination may be null.
  void backward(const float* coords, const float* state,
                const float* const gout[6], float* const* dweight,
                float* const* dbias, float* dlatent) const;

 private:
  std::int64_t block_floats() const;
  std::int64_t cell_base(const float* coords, std::int64_t b,
                         double frac[3]) const;
  void forward_block(const float* latent, const float* coords,
                     std::int64_t q0, std::int64_t q1, float* st, float* top,
                     float* const out[6]) const;
  void backward_block(const float* st, const float* const gout[6],
                      std::int64_t q0, std::int64_t q1, float* g, float* gn,
                      float* small, float* partial, float* drows) const;

  std::vector<JetLayer> layers_;
  nn::Activation act_ = nn::Activation::kSoftplus;
  std::int64_t q_ = 0, lt_ = 0, lz_ = 0, lx_ = 0;
  std::int64_t b_ = 0, c_ = 0, in0_ = 0, out_ = 0;  // N*Q, C, 3 + C, outputs
  std::int64_t wmax_ = 0, slab_ = 0, nblocks_ = 0;
  std::int64_t top_ = 0;      // width of the top hidden layer
  std::int64_t per_row_ = 0;  // block-slice floats per corner row
  std::int64_t partial_ = 0;  // gradient floats per block partial
  std::int64_t corner_delta_[8] = {};
  std::vector<std::int64_t> row_off_;      // hidden layer l's streams
  std::vector<std::int64_t> grad_offset_;  // layer l's slot in a partial
};

}  // namespace mfn::core
