// Test oracle for conv3d: direct loops over every (output voxel, input
// channel, kernel tap) triple with double accumulation. No column matrix,
// no GEMM, no parallelism, no SIMD, so it shares no code path with
// conv3d_forward / conv3d_backward beyond the output-shape rule.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/nn_kernels.h"

namespace mfn::test {

/// Call fn(o, xi, wi) for every tap of conv3d over x-shape `xs` and
/// weight-shape `ws` that reads inside the input (padding taps skipped):
/// o, xi and wi are flat indices into the output, input and weight.
template <class Fn>
void for_each_conv_tap(const Shape& xs, const Shape& ws, const Conv3dSpec& s,
                       Fn&& fn) {
  const Shape os = conv3d_output_shape(xs, ws, s);
  const std::int64_t N = os[0], F = os[1], OD = os[2], OH = os[3], OW = os[4];
  const std::int64_t C = xs[1], D = xs[2], H = xs[3], W = xs[4];
  const std::int64_t KD = ws[2], KH = ws[3], KW = ws[4];
  for (std::int64_t n = 0; n < N; ++n)
    for (std::int64_t f = 0; f < F; ++f)
      for (std::int64_t od = 0; od < OD; ++od)
        for (std::int64_t oh = 0; oh < OH; ++oh)
          for (std::int64_t ow = 0; ow < OW; ++ow) {
            const std::int64_t o =
                (((n * F + f) * OD + od) * OH + oh) * OW + ow;
            for (std::int64_t c = 0; c < C; ++c)
              for (std::int64_t kd = 0; kd < KD; ++kd)
                for (std::int64_t kh = 0; kh < KH; ++kh)
                  for (std::int64_t kw = 0; kw < KW; ++kw) {
                    const std::int64_t d = od * s.stride[0] - s.padding[0] + kd;
                    const std::int64_t h = oh * s.stride[1] - s.padding[1] + kh;
                    const std::int64_t w = ow * s.stride[2] - s.padding[2] + kw;
                    if (d < 0 || d >= D || h < 0 || h >= H || w < 0 || w >= W)
                      continue;
                    fn(o, (((n * C + c) * D + d) * H + h) * W + w,
                       (((f * C + c) * KD + kd) * KH + kh) * KW + kw);
                  }
          }
}

inline Tensor to_tensor(const Shape& shape, const std::vector<double>& v) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t.data()[i] = static_cast<float>(v[static_cast<std::size_t>(i)]);
  return t;
}

/// y = conv3d(x, w) + b; `bias` may be undefined.
inline Tensor conv3d_ref(const Tensor& x, const Tensor& wgt,
                         const Tensor& bias, const Conv3dSpec& s) {
  const Shape os = conv3d_output_shape(x.shape(), wgt.shape(), s);
  std::vector<double> acc(static_cast<std::size_t>(os.numel()), 0.0);
  const float* px = x.data();
  const float* pw = wgt.data();
  for_each_conv_tap(x.shape(), wgt.shape(), s,
                    [&](std::int64_t o, std::int64_t xi, std::int64_t wi) {
                      acc[static_cast<std::size_t>(o)] +=
                          static_cast<double>(px[xi]) * pw[wi];
                    });
  if (bias.defined()) {
    const std::int64_t L = os[2] * os[3] * os[4];
    for (std::int64_t o = 0; o < os.numel(); ++o)
      acc[static_cast<std::size_t>(o)] += bias.data()[(o / L) % os[1]];
  }
  return to_tensor(os, acc);
}

/// Gradients of sum(gy * conv3d(x, w) + b) with respect to x, w and (when
/// `had_bias`) b.
inline Conv3dGrads conv3d_backward_ref(const Tensor& x, const Tensor& wgt,
                                       bool had_bias, const Conv3dSpec& s,
                                       const Tensor& gy) {
  const Shape os = conv3d_output_shape(x.shape(), wgt.shape(), s);
  std::vector<double> gx(static_cast<std::size_t>(x.numel()), 0.0);
  std::vector<double> gw(static_cast<std::size_t>(wgt.numel()), 0.0);
  const float* px = x.data();
  const float* pw = wgt.data();
  const float* pgy = gy.data();
  for_each_conv_tap(x.shape(), wgt.shape(), s,
                    [&](std::int64_t o, std::int64_t xi, std::int64_t wi) {
                      const double g = pgy[o];
                      gx[static_cast<std::size_t>(xi)] += g * pw[wi];
                      gw[static_cast<std::size_t>(wi)] += g * px[xi];
                    });
  Conv3dGrads grads;
  grads.gx = to_tensor(x.shape(), gx);
  grads.gweight = to_tensor(wgt.shape(), gw);
  if (had_bias) {
    const std::int64_t L = os[2] * os[3] * os[4];
    std::vector<double> gb(static_cast<std::size_t>(os[1]), 0.0);
    for (std::int64_t o = 0; o < os.numel(); ++o)
      gb[static_cast<std::size_t>((o / L) % os[1])] += pgy[o];
    grads.gbias = to_tensor(Shape{os[1]}, gb);
  }
  return grads;
}

}  // namespace mfn::test
