#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "math/rng.hpp"
#include "nn/gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/residual.hpp"

namespace {

using namespace dlpic::nn;
using dlpic::math::Rng;

Tensor random_tensor(std::vector<size_t> shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

TEST(ResidualDense, ZeroWeightsActAsIdentity) {
  // With both sub-layers zeroed, the block is exactly the skip connection.
  ExecutionContext ctx;
  ResidualDense block(4, 8);
  block.inner().weight().fill(0.0);
  block.inner().bias().fill(0.0);
  block.outer().weight().fill(0.0);
  block.outer().bias().fill(0.0);
  Tensor x = random_tensor({3, 4}, 141);
  Tensor y = block.forward(ctx, x, false);
  ASSERT_TRUE(y.same_shape(x));
  for (size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(ResidualDense, SkipPassesGradientThrough) {
  // With zero weights the backward pass is also the identity.
  ExecutionContext ctx;
  ResidualDense block(4, 8);
  block.inner().weight().fill(0.0);
  block.inner().bias().fill(0.0);
  block.outer().weight().fill(0.0);
  block.outer().bias().fill(0.0);
  Tensor x = random_tensor({2, 4}, 142);
  block.forward(ctx, x, true);
  Tensor g = random_tensor({2, 4}, 143);
  Tensor gin = block.backward(ctx, g);
  for (size_t i = 0; i < g.size(); ++i) EXPECT_DOUBLE_EQ(gin[i], g[i]);
}

TEST(ResidualDense, GradCheck) {
  Rng rng(144);
  Sequential model;
  model.add(std::make_unique<ResidualDense>(5, 7, rng));
  model.add(std::make_unique<ResidualDense>(5, 5, rng));
  auto res = check_gradients(model, random_tensor({3, 5}, 145), random_tensor({3, 5}, 146));
  EXPECT_TRUE(res.ok) << "param err " << res.max_param_rel_error << ", input err "
                      << res.max_input_rel_error;
}

TEST(ResidualDense, ParamNamesAndShapes) {
  Rng rng(147);
  ResidualDense block(4, 6, rng);
  auto params = block.params();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "inner.weight");
  EXPECT_EQ(params[3].name, "outer.bias");
  EXPECT_EQ(params[0].value->shape(), (std::vector<size_t>{6, 4}));
  EXPECT_EQ(params[2].value->shape(), (std::vector<size_t>{4, 6}));
}

TEST(ResidualDense, RejectsBadShapes) {
  ExecutionContext ctx;
  Rng rng(148);
  ResidualDense block(4, 4, rng);
  Tensor bad({2, 5});
  EXPECT_THROW(block.forward(ctx, bad, false), std::invalid_argument);
  EXPECT_THROW(block.output_shape({2, 5}), std::invalid_argument);
  EXPECT_THROW(ResidualDense(0, 4), std::invalid_argument);
}

TEST(ResMlp, BuildsAndPreservesShapes) {
  ResMlpSpec spec;
  spec.input_dim = 32;
  spec.output_dim = 8;
  spec.width = 16;
  spec.blocks = 2;
  Sequential model = build_resmlp(spec);
  EXPECT_EQ(model.layer_count(), 2u + 2u + 1u);  // dense+relu, 2 blocks, head
  EXPECT_EQ(model.output_shape({4, 32}), (std::vector<size_t>{4, 8}));
  EXPECT_THROW(build_resmlp(ResMlpSpec{.blocks = 0}), std::invalid_argument);
}

TEST(ResMlp, SerializeRoundTrip) {
  ExecutionContext ctx;
  ResMlpSpec spec;
  spec.input_dim = 16;
  spec.output_dim = 4;
  spec.width = 8;
  spec.blocks = 2;
  Sequential model = build_resmlp(spec);
  Tensor x = random_tensor({2, 16}, 149);
  Tensor before = model.predict(ctx, x);

  const std::string path = testing::TempDir() + "/dlpic_resmlp.bin";
  model.save(path);
  Sequential loaded = Sequential::load_file(path);
  Tensor after = loaded.predict(ctx, x);
  for (size_t i = 0; i < before.size(); ++i) EXPECT_DOUBLE_EQ(before[i], after[i]);
  std::remove(path.c_str());
}

TEST(ResMlp, TrainsOnLinearTarget) {
  // The residual trunk must be able to fit a simple linear map.
  ExecutionContext ctx;
  ResMlpSpec spec;
  spec.input_dim = 2;
  spec.output_dim = 1;
  spec.width = 16;
  spec.blocks = 2;
  Sequential model = build_resmlp(spec);

  Rng rng(150);
  Adam adam(3e-3);
  MSELoss loss;
  double final_loss = 1e9;
  for (int it = 0; it < 600; ++it) {
    Tensor x({16, 2}), y({16, 1});
    for (size_t b = 0; b < 16; ++b) {
      x.at2(b, 0) = rng.uniform(-1, 1);
      x.at2(b, 1) = rng.uniform(-1, 1);
      y.at2(b, 0) = 0.4 * x.at2(b, 0) - 0.9 * x.at2(b, 1);
    }
    Tensor pred = model.forward(ctx, x, true);
    final_loss = loss.forward(pred, y);
    model.zero_grad();
    model.backward(ctx, loss.backward());
    adam.step(model.params());
  }
  EXPECT_LT(final_loss, 1e-3);
}

}  // namespace
