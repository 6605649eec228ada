#include <gtest/gtest.h>

#include <cmath>

#include "math/rng.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/maxpool2d.hpp"

namespace {

using namespace dlpic::nn;
using dlpic::math::Rng;

TEST(Dense, ForwardMatchesHandComputation) {
  ExecutionContext ctx;
  Dense d(2, 3);
  // W = [[1,2],[3,4],[5,6]], b = [0.1, 0.2, 0.3].
  d.weight().vec() = {1, 2, 3, 4, 5, 6};
  d.bias().vec() = {0.1, 0.2, 0.3};
  Tensor x({1, 2}, {1.0, -1.0});
  Tensor y = d.forward(ctx, x, false);
  ASSERT_EQ(y.shape(), (std::vector<size_t>{1, 3}));
  EXPECT_NEAR(y[0], 1 - 2 + 0.1, 1e-14);
  EXPECT_NEAR(y[1], 3 - 4 + 0.2, 1e-14);
  EXPECT_NEAR(y[2], 5 - 6 + 0.3, 1e-14);
}

TEST(Dense, BatchForward) {
  ExecutionContext ctx;
  Dense d(2, 1);
  d.weight().vec() = {2.0, -1.0};
  d.bias().vec() = {0.5};
  Tensor x({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor y = d.forward(ctx, x, false);
  EXPECT_NEAR(y[0], 2.5, 1e-14);
  EXPECT_NEAR(y[1], -0.5, 1e-14);
  EXPECT_NEAR(y[2], 1.5, 1e-14);
}

TEST(Dense, BackwardShapesAndAccumulation) {
  ExecutionContext ctx;
  Rng rng(71);
  Dense d(3, 2, rng);
  Tensor x({4, 3});
  for (size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1, 1);
  d.forward(ctx, x, true);
  Tensor gout({4, 2});
  gout.fill(1.0);
  Tensor gin = d.backward(ctx, gout);
  EXPECT_EQ(gin.shape(), x.shape());
  // Bias grad accumulates the batch sum: 4 for each output.
  auto params = d.params();
  EXPECT_DOUBLE_EQ((*params[1].grad)[0], 4.0);
  // Second backward accumulates (no implicit zeroing).
  d.backward(ctx, gout);
  EXPECT_DOUBLE_EQ((*params[1].grad)[0], 8.0);
  d.zero_grad();
  EXPECT_DOUBLE_EQ((*params[1].grad)[0], 0.0);
}

TEST(Dense, RejectsBadInputShape) {
  ExecutionContext ctx;
  Dense d(3, 2);
  Tensor bad({2, 4});
  EXPECT_THROW(d.forward(ctx, bad, false), std::invalid_argument);
  EXPECT_THROW(Dense(0, 2), std::invalid_argument);
}

TEST(Dense, OutputShape) {
  Dense d(5, 7);
  EXPECT_EQ(d.output_shape({3, 5}), (std::vector<size_t>{3, 7}));
  EXPECT_THROW(d.output_shape({3, 4}), std::invalid_argument);
}

TEST(Init, HeNormalStatistics) {
  Rng rng(72);
  Tensor w({1000, 100});
  init_he_normal(w, 100, rng);
  double sum = 0, sum2 = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    sum += w[i];
    sum2 += w[i] * w[i];
  }
  const double mean = sum / w.size();
  const double var = sum2 / w.size() - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.002);
  EXPECT_NEAR(var, 2.0 / 100.0, 0.002);
}

TEST(Init, GlorotUniformBounds) {
  Rng rng(73);
  Tensor w({64, 64});
  init_glorot_uniform(w, 64, 64, rng);
  const double a = std::sqrt(6.0 / 128.0);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -a);
    EXPECT_LE(w[i], a);
  }
}

TEST(Relu, ForwardBackward) {
  ExecutionContext ctx;
  ReLU relu;
  Tensor x({1, 4}, {-1.0, 0.0, 2.0, -3.0});
  Tensor y = relu.forward(ctx, x, true);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
  Tensor g({1, 4}, {1, 1, 1, 1});
  Tensor gin = relu.backward(ctx, g);
  EXPECT_DOUBLE_EQ(gin[0], 0.0);
  EXPECT_DOUBLE_EQ(gin[1], 0.0);  // gradient at exactly 0 defined as 0
  EXPECT_DOUBLE_EQ(gin[2], 1.0);
}

TEST(LeakyRelu, ForwardBackward) {
  ExecutionContext ctx;
  LeakyReLU lr(0.1);
  Tensor x({1, 2}, {-2.0, 3.0});
  Tensor y = lr.forward(ctx, x, true);
  EXPECT_NEAR(y[0], -0.2, 1e-14);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  Tensor g({1, 2}, {1, 1});
  Tensor gin = lr.backward(ctx, g);
  EXPECT_NEAR(gin[0], 0.1, 1e-14);
  EXPECT_DOUBLE_EQ(gin[1], 1.0);
}

TEST(TanhLayer, ForwardBackward) {
  ExecutionContext ctx;
  Tanh t;
  Tensor x({1, 2}, {0.0, 1.0});
  Tensor y = t.forward(ctx, x, true);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_NEAR(y[1], std::tanh(1.0), 1e-14);
  Tensor g({1, 2}, {1, 1});
  Tensor gin = t.backward(ctx, g);
  EXPECT_DOUBLE_EQ(gin[0], 1.0);  // 1 - tanh(0)² = 1
  EXPECT_NEAR(gin[1], 1.0 - std::tanh(1.0) * std::tanh(1.0), 1e-14);
}

TEST(MaxPool, ForwardSelectsMaxAndBackwardRoutes) {
  ExecutionContext ctx;
  MaxPool2D pool(2);
  Tensor x({1, 1, 2, 4}, {1, 5, 2, 0,
                          3, 4, 1, 7});
  Tensor y = pool.forward(ctx, x, true);
  ASSERT_EQ(y.shape(), (std::vector<size_t>{1, 1, 1, 2}));
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  Tensor g({1, 1, 1, 2}, {10.0, 20.0});
  Tensor gin = pool.backward(ctx, g);
  EXPECT_DOUBLE_EQ(gin[1], 10.0);  // position of the 5
  EXPECT_DOUBLE_EQ(gin[7], 20.0);  // position of the 7
  EXPECT_DOUBLE_EQ(gin[0], 0.0);
}

TEST(MaxPool, RejectsIndivisibleDims) {
  ExecutionContext ctx;
  MaxPool2D pool(2);
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW(pool.forward(ctx, x, true), std::invalid_argument);
  EXPECT_THROW(pool.output_shape({1, 1, 3, 4}), std::invalid_argument);
}

TEST(Flatten, RoundTrip) {
  ExecutionContext ctx;
  Flatten f;
  Tensor x({2, 3, 4, 5});
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  Tensor y = f.forward(ctx, x, true);
  EXPECT_EQ(y.shape(), (std::vector<size_t>{2, 60}));
  Tensor gin = f.backward(ctx, y);
  EXPECT_EQ(gin.shape(), x.shape());
  EXPECT_DOUBLE_EQ(gin[37], 37.0);
}

TEST(Reshape4, RoundTripAndValidation) {
  ExecutionContext ctx;
  Reshape4 r(2, 3, 4);
  Tensor x({5, 24});
  Tensor y = r.forward(ctx, x, true);
  EXPECT_EQ(y.shape(), (std::vector<size_t>{5, 2, 3, 4}));
  Tensor gin = r.backward(ctx, y);
  EXPECT_EQ(gin.shape(), (std::vector<size_t>{5, 24}));
  Tensor bad({5, 23});
  EXPECT_THROW(r.forward(ctx, bad, true), std::invalid_argument);
  EXPECT_THROW(Reshape4(0, 1, 1), std::invalid_argument);
}

}  // namespace
