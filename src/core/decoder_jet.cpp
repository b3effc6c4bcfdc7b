#include "core/decoder_jet.h"

#include "backend/sgemm.h"
#include "backend/workspace.h"
#include "common/error.h"
#include "tensor/tensor_ops.h"
#include "threading/thread_pool.h"

namespace mfn::core {

namespace {

using backend::Trans;
// Row kernels take every stream as its own restrict pointer, so the
// compiler vectorizes them without runtime alias checks.
using F = float* __restrict;
using CF = const float* __restrict;

// C = A W^T (+ bias): the layer's prepacked panels when it has them, else
// the dense path they are bitwise equal to.
void affine(const JetLayer& ly, std::int64_t rows, const float* A,
            const float* bias, float* C) {
  if (ly.packed != nullptr)
    backend::sgemm_prepacked_nt(rows, ly.out, ly.in, A, ly.weight, ly.packed,
                                bias, C);
  else
    backend::sgemm_bias_cols(Trans::kNo, Trans::kYes, rows, ly.out, ly.in,
                             1.0f, A, ly.weight, 0.0f, bias, C);
}

// h = f(z) in place, saving the basis `a` that f', f'', f''' are
// polynomials of: sigmoid(z) for softplus, tanh(z), the ReLU mask.
void activate(nn::Activation act, float* z, float* a, std::int64_t n) {
  if (act == nn::Activation::kSoftplus) {
    sigmoid_map(z, a, n);
    softplus_inplace(z, n);
  } else if (act == nn::Activation::kTanh) {
    tanh_inplace(z, n);
    std::copy(z, z + n, a);
  } else {
    for (std::int64_t i = 0; i < n; ++i) a[i] = z[i] > 0.0f ? 1.0f : 0.0f;
    relu_inplace(z, n);
  }
}

// Calls body(d) with d(a, f1, f2, f3) for the activation, so each one gets
// its own instance of the loops in `body`.
template <class Body>
void with_act(nn::Activation act, Body&& body) {
  if (act == nn::Activation::kSoftplus)
    body([](float a, float& f1, float& f2, float& f3) {
      f1 = a;
      f2 = a * (1.0f - a);
      f3 = f2 * (1.0f - 2.0f * a);
    });
  else if (act == nn::Activation::kTanh)
    body([](float a, float& f1, float& f2, float& f3) {
      f1 = 1.0f - a * a;
      f2 = -2.0f * a * f1;
      f3 = (6.0f * a * a - 2.0f) * f1;
    });
  else
    body([](float a, float& f1, float& f2, float& f3) {
      f1 = a;
      f2 = f3 = 0.0f;
    });
}

// One row through f: t_k <- f' t_k, c_m <- f'' t_m^2 + f' c_m.
template <class D>
void act_row(D d, std::int64_t n, CF a, CF t0, CF t1, CF t2, CF cz, CF cx,
             F o0, F o1, F o2, F oz, F ox) {
  for (std::int64_t i = 0; i < n; ++i) {
    float f1, f2, f3;
    d(a[i], f1, f2, f3);
    o0[i] = f1 * t0[i];
    o1[i] = f1 * t1[i];
    o2[i] = f1 * t2[i];
    oz[i] = f2 * (t1[i] * t1[i]) + f1 * cz[i];
    ox[i] = f2 * (t2[i] * t2[i]) + f1 * cx[i];
  }
}

// Its reverse, in place: gradients after f -> gradients before f.
template <class D>
void act_row_backward(D d, std::int64_t n, CF a, CF t0, CF t1, CF t2, CF cz,
                      CF cx, F gh, F g0, F g1, F g2, F gz, F gx) {
  for (std::int64_t i = 0; i < n; ++i) {
    float f1, f2, f3;
    d(a[i], f1, f2, f3);
    gh[i] = gh[i] * f1 + f2 * (g0[i] * t0[i] + g1[i] * t1[i] + g2[i] * t2[i]) +
            gz[i] * (f3 * (t1[i] * t1[i]) + f2 * cz[i]) +
            gx[i] * (f3 * (t2[i] * t2[i]) + f2 * cx[i]);
    g0[i] *= f1;
    g1[i] = g1[i] * f1 + 2.0f * f2 * t1[i] * gz[i];
    g2[i] = g2[i] * f1 + 2.0f * f2 * t2[i] * gx[i];
    gz[i] *= f1;
    gx[i] *= f1;
  }
}

// Adds one corner row's six streams into its query's blended streams.
void blend_row(std::int64_t n, float w, float dt, float dz, float dx, CF h,
               CF t0, CF t1, CF t2, CF cz, CF cx, F v, F v0, F v1, F v2,
               F vz, F vx) {
  for (std::int64_t i = 0; i < n; ++i) {
    v[i] += w * h[i];
    v0[i] += dt * h[i] + w * t0[i];
    v1[i] += dz * h[i] + w * t1[i];
    v2[i] += dx * h[i] + w * t2[i];
    vz[i] += 2.0f * dz * t1[i] + w * cz[i];
    vx[i] += 2.0f * dx * t2[i] + w * cx[i];
  }
}

// Its reverse: one corner row's stream gradients from its query's.
void blend_row_backward(std::int64_t n, float w, float dt, float dz, float dx,
                        CF G, CF G0, CF G1, CF G2, CF Gz, CF Gx, F gh, F g0,
                        F g1, F g2, F gz, F gx) {
  for (std::int64_t i = 0; i < n; ++i) {
    gh[i] = w * G[i] + dt * G0[i] + dz * G1[i] + dx * G2[i];
    g0[i] = w * G0[i];
    g1[i] = w * G1[i] + 2.0f * dz * Gz[i];
    g2[i] = w * G2[i] + 2.0f * dx * Gx[i];
    gz[i] = w * Gz[i];
    gx[i] = w * Gx[i];
  }
}

}  // namespace

DecoderJet::DecoderJet(std::vector<JetLayer> layers, nn::Activation act,
                       std::int64_t n, std::int64_t q, std::int64_t lt,
                       std::int64_t lz, std::int64_t lx)
    : layers_(std::move(layers)), act_(act), q_(q), lt_(lt), lz_(lz),
      lx_(lx) {
  MFN_CHECK(!layers_.empty() && layers_[0].in > 3,
            "decoder jet needs an MLP over [coords | latent] rows");
  b_ = n * q;
  in0_ = layers_[0].in;
  c_ = in0_ - 3;
  out_ = layers_.back().out;
  slab_ = lt * lz * lx;
  nblocks_ = (b_ + kJetBlock - 1) / kJetBlock;
  for (int j = 0; j < 8; ++j)
    corner_delta_[j] = (((j >> 2) & 1) * lz + ((j >> 1) & 1)) * lx + (j & 1);
  // Block slice, per corner row: w, dw_t, dw_z, dw_x; the input streams
  // (the input row, plus the seeds of a decoder without hidden layers);
  // per hidden layer the streams [h | t_t t_z t_x | c_z c_x] after f
  // (except the top one's, which only the blend reads: they live in
  // scratch), [t | c] before f (not for layer 1) and the basis of f.
  per_row_ = 4 + (layers_.size() == 1 ? 6 : 1) * in0_;
  wmax_ = in0_;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const JetLayer& ly = layers_[l];
    wmax_ = std::max(wmax_, ly.out);
    grad_offset_.push_back(partial_);
    partial_ += ly.out * ly.in + ly.out;
    if (l + 1 == layers_.size()) break;
    row_off_.push_back(per_row_);
    per_row_ += ((l == 0 ? 1 : 6) + (l + 2 < layers_.size() ? 6 : 0)) * ly.out;
    top_ = ly.out;
  }
}

// Per block: the corner rows, then layer 1's folded seeds (weight columns
// 0-2 and a zero row) and per query the six blended streams.
std::int64_t DecoderJet::block_floats() const {
  return 8 * kJetBlock * per_row_ + 4 * layers_[0].out +
         6 * kJetBlock * layers_.back().in;
}

std::size_t DecoderJet::state_floats() const {
  return static_cast<std::size_t>(nblocks_ * block_floats());
}

std::int64_t DecoderJet::cell_base(const float* coords, std::int64_t b,
                                   double frac[3]) const {
  const auto [t0, ft] = cellof(coords[b * 3 + 0], lt_);
  const auto [z0, fz] = cellof(coords[b * 3 + 1], lz_);
  const auto [x0, fx] = cellof(coords[b * 3 + 2], lx_);
  frac[0] = ft;
  frac[1] = fz;
  frac[2] = fx;
  return (b / q_) * c_ * slab_ + (t0 * lz_ + z0) * lx_ + x0;
}

void DecoderJet::forward(const float* latent, const float* coords,
                         float* const out[6], float* state) const {
  parallel_for(
      nblocks_,
      [&](std::int64_t blk0, std::int64_t blk1) {
        backend::Workspace& ws = backend::local_workspace();
        const backend::Workspace::Mark m = ws.mark();
        float* st = state != nullptr
                        ? nullptr
                        : ws.alloc(static_cast<std::size_t>(block_floats()));
        float* top =
            ws.alloc(static_cast<std::size_t>(6 * 8 * kJetBlock * top_));
        for (std::int64_t blk = blk0; blk < blk1; ++blk) {
          const std::int64_t q0 = blk * kJetBlock;
          forward_block(latent, coords, q0, std::min(q0 + kJetBlock, b_),
                        state != nullptr ? state + blk * block_floats() : st,
                        top, out);
        }
        ws.release(m);
      },
      /*grain=*/1);
}

void DecoderJet::forward_block(const float* latent, const float* coords,
                               std::int64_t q0, std::int64_t q1, float* st,
                               float* top, float* const out[6]) const {
  const std::int64_t nb = q1 - q0, R = 8 * nb;
  const std::size_t L = layers_.size();
  // Fused gather: row j*nb + i is corner j of query q0 + i.
  float* geo = st;
  float* x0 = st + 4 * R;
  for (std::int64_t b = q0; b < q1; ++b) {
    double f[3];
    const std::int64_t base0 = cell_base(coords, b, f);
    for (int j = 0; j < 8; ++j) {
      const int jt = (j >> 2) & 1, jz = (j >> 1) & 1, jx = j & 1;
      const std::int64_t row = j * nb + (b - q0);
      float* r = x0 + row * in0_;
      r[0] = static_cast<float>(f[0] - jt);
      r[1] = static_cast<float>(f[1] - jz);
      r[2] = static_cast<float>(f[2] - jx);
      const float* src = latent + base0 + corner_delta_[j];
      for (std::int64_t c = 0; c < c_; ++c) r[3 + c] = src[c * slab_];
      const double wt = jt ? f[0] : 1.0 - f[0];
      const double wz = jz ? f[1] : 1.0 - f[1];
      const double wx = jx ? f[2] : 1.0 - f[2];
      geo[row] = static_cast<float>(wt * wz * wx);
      geo[R + row] = static_cast<float>((jt ? 1.0 : -1.0) * wz * wx);
      geo[2 * R + row] = static_cast<float>(wt * (jz ? 1.0 : -1.0) * wx);
      geo[3 * R + row] = static_cast<float>(wt * wz * (jx ? 1.0 : -1.0));
    }
  }
  float* seed = st + R * per_row_;
  if (L == 1) {  // no hidden layer: blend the input row's own seeds
    std::fill(x0 + R * in0_, x0 + 6 * R * in0_, 0.0f);
    for (int k = 0; k < 3; ++k)
      for (std::int64_t r = 0; r < R; ++r)
        x0[(k + 1) * R * in0_ + r * in0_ + k] = 1.0f;
  }
  for (std::int64_t k = 0; k < 4 * layers_[0].out; ++k)
    seed[k] = k < 3 * layers_[0].out
                  ? layers_[0].weight[(k % layers_[0].out) * in0_ +
                                      k / layers_[0].out]
                  : 0.0f;

  const float* s = x0;  // input streams of layer l
  for (std::size_t l = 0; l + 1 < L; ++l) {
    const JetLayer& ly = layers_[l];
    const std::int64_t n = ly.out, span = R * n;
    float* h = l + 2 == L ? top : st + R * row_off_[l];
    float* d = l + 2 == L ? st + R * row_off_[l] : h + 6 * span;
    float* a = l == 0 ? d : d + 5 * span;
    affine(ly, R, s, ly.bias, h);
    if (l > 0) affine(ly, 5 * R, s + R * ly.in, nullptr, d);
    activate(act_, h, a, span);
    const std::int64_t ts = l == 0 ? n : span;  // stride between [t | c]
    with_act(act_, [&](auto fd) {
      for (std::int64_t r = 0; r < R; ++r) {
        const float* t = l == 0 ? seed : d + r * n;
        float* o = h + span + r * n;
        act_row(fd, n, a + r * n, t, t + ts, t + 2 * ts, t + 3 * ts,
                t + (l == 0 ? 3 : 4) * ts, o, o + span, o + 2 * span,
                o + 3 * span, o + 4 * span);
      }
    });
    s = h;
  }

  // Blend, then the linear output layer on one row per query.
  const JetLayer& ly = layers_.back();
  const std::int64_t n = ly.in, S = R * n, V = nb * n;
  float* bl = seed + 4 * layers_[0].out;
  std::fill(bl, bl + 6 * V, 0.0f);
  for (std::int64_t i = 0; i < nb; ++i)
    for (int j = 0; j < 8; ++j) {
      const std::int64_t row = j * nb + i;
      const float* h = s + row * n;
      float* v = bl + i * n;
      blend_row(n, geo[row], geo[R + row], geo[2 * R + row], geo[3 * R + row],
                h, h + S, h + 2 * S, h + 3 * S, h + 4 * S, h + 5 * S, v,
                v + V, v + 2 * V, v + 3 * V, v + 4 * V, v + 5 * V);
    }
  // sum_j w = 1 and sum_j dw_k = 0, so only the value takes the bias.
  for (int k = 0; k < 6; ++k)
    affine(ly, nb, bl + k * V, k == 0 ? ly.bias : nullptr,
           out[k] + q0 * out_);
}

void DecoderJet::backward(const float* coords, const float* state,
                          const float* const gout[6], float* const* dweight,
                          float* const* dbias, float* dlatent) const {
  backend::Workspace& ws = backend::local_workspace();
  const backend::Workspace::Mark mark = ws.mark();
  float* partials = ws.alloc(static_cast<std::size_t>(nblocks_ * partial_));
  float* drows = dlatent != nullptr
                     ? ws.alloc(static_cast<std::size_t>(8 * b_ * c_))
                     : nullptr;
  parallel_for(
      nblocks_,
      [&](std::int64_t blk0, std::int64_t blk1) {
        backend::Workspace& local = backend::local_workspace();
        const backend::Workspace::Mark m = local.mark();
        const auto rows = static_cast<std::size_t>(6 * 8 * kJetBlock * wmax_);
        float* g = local.alloc(rows);
        float* gn = local.alloc(rows);
        float* small = local.alloc(
            static_cast<std::size_t>(6 * kJetBlock * (out_ + wmax_)));
        for (std::int64_t blk = blk0; blk < blk1; ++blk) {
          const std::int64_t q0 = blk * kJetBlock;
          backward_block(state + blk * block_floats(), gout, q0,
                         std::min(q0 + kJetBlock, b_), g, gn, small,
                         partials + blk * partial_, drows);
        }
        local.release(m);
      },
      /*grain=*/1);

  // Block-order reduction of the per-block parameter partials.
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::int64_t nw = layers_[l].out * layers_[l].in;
    float* dst[2] = {dweight != nullptr ? dweight[l] : nullptr,
                     dbias != nullptr ? dbias[l] : nullptr};
    const std::int64_t off[2] = {grad_offset_[l], grad_offset_[l] + nw};
    const std::int64_t len[2] = {nw, layers_[l].out};
    for (int p = 0; p < 2; ++p)
      for (std::int64_t i = 0; dst[p] != nullptr && i < len[p]; ++i) {
        float sum = 0.0f;
        for (std::int64_t blk = 0; blk < nblocks_; ++blk)
          sum += partials[blk * partial_ + off[p] + i];
        dst[p][i] += sum;
      }
  }
  // Serial latent scatter in corner-major row order (row j*B + b).
  for (int j = 0; dlatent != nullptr && j < 8; ++j)
    for (std::int64_t b = 0; b < b_; ++b) {
      double f[3];
      float* dst = dlatent + cell_base(coords, b, f) + corner_delta_[j];
      const float* src = drows + (j * b_ + b) * c_;
      for (std::int64_t c = 0; c < c_; ++c) dst[c * slab_] += src[c];
    }
  ws.release(mark);
}

void DecoderJet::backward_block(const float* st, const float* const gout[6],
                                std::int64_t q0, std::int64_t q1, float* g,
                                float* gn, float* small, float* partial,
                                float* drows) const {
  const std::int64_t nb = q1 - q0, R = 8 * nb;
  const std::size_t L = layers_.size();
  const float* geo = st;
  const float* seed = st + R * per_row_;

  // Output layer: its gradients, then the blended streams' (GB).
  const JetLayer& last = layers_.back();
  const std::int64_t n = last.in, S = R * n, V = nb * n;
  const float* bl = seed + 4 * layers_[0].out;
  float* G = small;
  float* GB = small + 6 * nb * out_;
  for (int k = 0; k < 6; ++k)
    std::copy_n(gout[k] + q0 * out_, nb * out_, G + k * nb * out_);
  float* dw = partial + grad_offset_[L - 1];
  float* db = dw + out_ * n;
  backend::sgemm(Trans::kYes, Trans::kNo, out_, n, 6 * nb, 1.0f, G, bl, 0.0f,
                 dw);
  std::fill(db, db + out_, 0.0f);
  for (std::int64_t i = 0; i < nb; ++i)  // the value rows take the bias
    for (std::int64_t c = 0; c < out_; ++c) db[c] += G[i * out_ + c];
  backend::sgemm(Trans::kNo, Trans::kNo, 6 * nb, n, out_, 1.0f, G,
                 last.weight, 0.0f, GB);
  for (std::int64_t i = 0; i < nb; ++i)
    for (int j = 0; j < 8; ++j) {
      const std::int64_t row = j * nb + i;
      const float* v = GB + i * n;
      float* o = g + row * n;
      blend_row_backward(n, geo[row], geo[R + row], geo[2 * R + row],
                         geo[3 * R + row], v, v + V, v + 2 * V, v + 3 * V,
                         v + 4 * V, v + 5 * V, o, o + S, o + 2 * S, o + 3 * S,
                         o + 4 * S, o + 5 * S);
    }

  // Hidden layers, last to first; g holds the gradients of layer l's
  // streams after f.
  for (std::size_t l = L - 1; l-- > 0;) {
    const JetLayer& ly = layers_[l];
    const std::int64_t nl = ly.out, span = R * nl;
    const float* d = st + R * row_off_[l] + (l + 2 == L ? 0 : 6 * span);
    const float* a = l == 0 ? d : d + 5 * span;
    const std::int64_t ts = l == 0 ? nl : span;
    with_act(act_, [&](auto fd) {
      for (std::int64_t r = 0; r < R; ++r) {
        const float* t = l == 0 ? seed : d + r * nl;
        float* o = g + r * nl;
        act_row_backward(fd, nl, a + r * nl, t, t + ts, t + 2 * ts,
                         t + 3 * ts, t + (l == 0 ? 3 : 4) * ts, o, o + span,
                         o + 2 * span, o + 3 * span, o + 4 * span,
                         o + 5 * span);
      }
    });
    float* dwl = partial + grad_offset_[l];
    float* dbl = dwl + nl * ly.in;
    std::fill(dbl, dbl + nl, 0.0f);
    for (std::int64_t r = 0; r < R; ++r)
      for (std::int64_t o = 0; o < nl; ++o) dbl[o] += g[r * nl + o];
    // Layer 1 reads only the input rows; its tangents are W[:, k].
    const std::int64_t rows = l == 0 ? R : 6 * R;
    backend::sgemm(Trans::kYes, Trans::kNo, nl, ly.in, rows, 1.0f, g,
                   l == 0 ? st + 4 * R : st + R * row_off_[l - 1], 0.0f, dwl);
    for (int k = 0; l == 0 && k < 3; ++k)
      for (std::int64_t r = 0; r < R; ++r)
        for (std::int64_t o = 0; o < nl; ++o)
          dwl[o * ly.in + k] += g[(k + 1) * span + r * nl + o];
    if (l == 0 && drows == nullptr) return;
    backend::sgemm(Trans::kNo, Trans::kNo, rows, ly.in, nl, 1.0f, g,
                   ly.weight, 0.0f, gn);
    std::swap(g, gn);
  }
  // g now holds the input rows' gradients; keep their latent columns.
  for (int j = 0; drows != nullptr && j < 8; ++j)
    for (std::int64_t i = 0; i < nb; ++i)
      std::copy_n(g + (j * nb + i) * in0_ + 3, c_,
                  drows + (j * b_ + q0 + i) * c_);
}

}  // namespace mfn::core
