#include <gtest/gtest.h>

#include <vector>

#include "math/rng.hpp"
#include "nn/conv2d.hpp"

namespace {

using namespace dlpic::nn;
using dlpic::math::Rng;

// Direct (definition-based) convolution reference.
std::vector<double> conv_reference(const Tensor& x, const Tensor& w, const Tensor& b,
                                   const Conv2DConfig& cfg) {
  const size_t n = x.dim(0), h = x.dim(2), ww = x.dim(3);
  const size_t oh = (h + 2 * cfg.pad - cfg.kernel_h) / cfg.stride + 1;
  const size_t ow = (ww + 2 * cfg.pad - cfg.kernel_w) / cfg.stride + 1;
  std::vector<double> out(n * cfg.out_channels * oh * ow, 0.0);
  for (size_t bi = 0; bi < n; ++bi)
    for (size_t oc = 0; oc < cfg.out_channels; ++oc)
      for (size_t oi = 0; oi < oh; ++oi)
        for (size_t oj = 0; oj < ow; ++oj) {
          double acc = b[oc];
          for (size_t ic = 0; ic < cfg.in_channels; ++ic)
            for (size_t ki = 0; ki < cfg.kernel_h; ++ki)
              for (size_t kj = 0; kj < cfg.kernel_w; ++kj) {
                const long ii = static_cast<long>(oi * cfg.stride + ki) - static_cast<long>(cfg.pad);
                const long jj = static_cast<long>(oj * cfg.stride + kj) - static_cast<long>(cfg.pad);
                if (ii < 0 || jj < 0 || ii >= static_cast<long>(h) || jj >= static_cast<long>(ww))
                  continue;
                const double xv = x.at4(bi, ic, static_cast<size_t>(ii), static_cast<size_t>(jj));
                const double wv =
                    w[oc * cfg.in_channels * cfg.kernel_h * cfg.kernel_w +
                      (ic * cfg.kernel_h + ki) * cfg.kernel_w + kj];
                acc += xv * wv;
              }
          out[((bi * cfg.out_channels + oc) * oh + oi) * ow + oj] = acc;
        }
  return out;
}

TEST(Im2Col, IdentityKernelReproducesImage) {
  // 1x1 kernel, no padding: columns are the image itself.
  const size_t c = 2, h = 3, w = 4;
  std::vector<double> img(c * h * w);
  for (size_t i = 0; i < img.size(); ++i) img[i] = static_cast<double>(i);
  std::vector<double> cols(c * h * w);
  im2col(img.data(), c, h, w, 1, 1, 1, 0, cols.data());
  EXPECT_EQ(cols, img);
}

TEST(Im2Col, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity used
  // by the conv backward pass.
  Rng rng(81);
  const size_t c = 2, h = 5, w = 6, kh = 3, kw = 3, stride = 1, pad = 1;
  const size_t oh = (h + 2 * pad - kh) / stride + 1;
  const size_t ow = (w + 2 * pad - kw) / stride + 1;
  const size_t crows = c * kh * kw, plane = oh * ow;

  std::vector<double> x(c * h * w), y(crows * plane), cols(crows * plane),
      back(c * h * w, 0.0);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : y) v = rng.uniform(-1, 1);

  im2col(x.data(), c, h, w, kh, kw, stride, pad, cols.data());
  col2im(y.data(), c, h, w, kh, kw, stride, pad, back.data());

  double lhs = 0, rhs = 0;
  for (size_t i = 0; i < cols.size(); ++i) lhs += cols[i] * y[i];
  for (size_t i = 0; i < x.size(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-10);
}

struct ConvCase {
  size_t in_ch, out_ch, h, w, kh, kw, stride, pad;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, MatchesDirectReference) {
  ExecutionContext ctx;
  const auto& cc = GetParam();
  Conv2DConfig cfg;
  cfg.in_channels = cc.in_ch;
  cfg.out_channels = cc.out_ch;
  cfg.kernel_h = cc.kh;
  cfg.kernel_w = cc.kw;
  cfg.stride = cc.stride;
  cfg.pad = cc.pad;
  Rng rng(82);
  Conv2D conv(cfg, rng);
  Tensor x({2, cc.in_ch, cc.h, cc.w});
  for (size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1, 1);

  Tensor y = conv.forward(ctx, x, false);
  auto ref = conv_reference(x, conv.weight(), conv.bias(), cfg);
  ASSERT_EQ(y.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-10) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 4, 4, 3, 3, 1, 1}, ConvCase{1, 4, 8, 8, 3, 3, 1, 1},
                      ConvCase{3, 2, 5, 7, 3, 3, 1, 0}, ConvCase{2, 3, 6, 6, 2, 2, 2, 0},
                      ConvCase{1, 2, 9, 9, 5, 5, 1, 2}, ConvCase{2, 2, 8, 6, 3, 1, 1, 0}));

TEST(Conv2D, SamePaddingPreservesSpatialDims) {
  Conv2DConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 8;
  Rng rng(83);
  Conv2D conv(cfg, rng);
  EXPECT_EQ(conv.output_shape({4, 1, 32, 32}), (std::vector<size_t>{4, 8, 32, 32}));
}

TEST(Conv2D, RejectsWrongChannelCount) {
  ExecutionContext ctx;
  Conv2DConfig cfg;
  cfg.in_channels = 3;
  Rng rng(84);
  Conv2D conv(cfg, rng);
  Tensor x({1, 2, 8, 8});
  EXPECT_THROW(conv.forward(ctx, x, false), std::invalid_argument);
  EXPECT_THROW(conv.output_shape({1, 2, 8, 8}), std::invalid_argument);
}

TEST(Conv2D, BiasAddsPerChannel) {
  ExecutionContext ctx;
  Conv2DConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 2;
  cfg.kernel_h = cfg.kernel_w = 1;
  cfg.pad = 0;
  Conv2D conv(cfg);
  conv.weight().fill(0.0);
  conv.bias().vec() = {1.5, -2.5};
  Tensor x({1, 1, 2, 2});
  Tensor y = conv.forward(ctx, x, false);
  EXPECT_DOUBLE_EQ(y.at4(0, 0, 0, 0), 1.5);
  EXPECT_DOUBLE_EQ(y.at4(0, 1, 1, 1), -2.5);
}

TEST(Conv2D, BackwardGradientShapes) {
  ExecutionContext ctx;
  Conv2DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 3;
  Rng rng(85);
  Conv2D conv(cfg, rng);
  Tensor x({2, 2, 8, 8});
  for (size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1, 1);
  Tensor y = conv.forward(ctx, x, true);
  Tensor g(y.shape());
  g.fill(1.0);
  Tensor gin = conv.backward(ctx, g);
  EXPECT_EQ(gin.shape(), x.shape());
  // Bias grad = sum over batch and spatial = 2*8*8 = 128 per channel.
  auto params = conv.params();
  EXPECT_DOUBLE_EQ((*params[1].grad)[0], 128.0);
}

}  // namespace
