#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "math/rng.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"

namespace {

using namespace dlpic::nn;
using dlpic::math::Rng;

Tensor random_tensor(std::vector<size_t> shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

TEST(Serialize, MlpRoundTripPredictsIdentically) {
  ExecutionContext ctx;
  MlpSpec spec;
  spec.input_dim = 16;
  spec.output_dim = 4;
  spec.hidden = 8;
  Sequential model = build_mlp(spec);
  Tensor x = random_tensor({3, 16}, 131);
  Tensor before = model.predict(ctx, x);

  const std::string path = testing::TempDir() + "/dlpic_mlp.bin";
  model.save(path);
  Sequential loaded = Sequential::load_file(path);
  Tensor after = loaded.predict(ctx, x);

  ASSERT_TRUE(before.same_shape(after));
  for (size_t i = 0; i < before.size(); ++i) EXPECT_DOUBLE_EQ(before[i], after[i]);
  std::remove(path.c_str());
}

TEST(Serialize, CnnRoundTripPredictsIdentically) {
  ExecutionContext ctx;
  CnnSpec spec;
  spec.input_h = 8;
  spec.input_w = 8;
  spec.output_dim = 4;
  spec.channels1 = 2;
  spec.channels2 = 3;
  spec.hidden = 8;
  Sequential model = build_cnn(spec);
  Tensor x = random_tensor({2, 64}, 132);
  Tensor before = model.predict(ctx, x);

  const std::string path = testing::TempDir() + "/dlpic_cnn.bin";
  model.save(path);
  Sequential loaded = Sequential::load_file(path);
  Tensor after = loaded.predict(ctx, x);

  ASSERT_TRUE(before.same_shape(after));
  for (size_t i = 0; i < before.size(); ++i) EXPECT_DOUBLE_EQ(before[i], after[i]);
  std::remove(path.c_str());
}

TEST(Serialize, BadMagicThrows) {
  const std::string path = testing::TempDir() + "/dlpic_bad_model.bin";
  {
    dlpic::util::BinaryWriter w(path);
    w.write_u32(0x12345678);
    w.write_u32(1);
    w.write_u64(0);
  }
  EXPECT_THROW(Sequential::load_file(path), std::runtime_error);
  std::remove(path.c_str());
}

// A bundle holding a NaN or an infinity in any weight or bias is rejected at
// load, so every loaded model meets the finite-weight precondition of the
// skinny dense kernel's zero-input skip.
TEST(Serialize, NonFiniteParameterThrows) {
  MlpSpec mlp;
  mlp.input_dim = 16;
  mlp.output_dim = 4;
  mlp.hidden = 8;
  CnnSpec cnn;
  cnn.input_h = 8;
  cnn.input_w = 8;
  cnn.output_dim = 4;
  cnn.channels1 = 2;
  cnn.channels2 = 3;
  cnn.hidden = 8;
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  const std::string path = testing::TempDir() + "/dlpic_nonfinite_model.bin";
  for (const bool conv : {false, true}) {
    const size_t n_params = (conv ? build_cnn(cnn) : build_mlp(mlp)).params().size();
    for (size_t i = 0; i < n_params; ++i) {
      Sequential model = conv ? build_cnn(cnn) : build_mlp(mlp);
      Param param = model.params()[i];
      (*param.value)[param.value->size() - 1] = bad[i % 3];
      model.save(path);
      try {
        (void)Sequential::load_file(path);
        ADD_FAILURE() << param.name << " = " << bad[i % 3] << " loaded";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("non-finite parameter"), std::string::npos)
            << param.name << ": " << e.what();
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(Sequential::load_file("/nonexistent/model.bin"), std::runtime_error);
}

TEST(ModelZoo, MlpArchitectureMatchesPaper) {
  // Paper §IV-A: 3 hidden fully-connected layers of 1024 ReLU neurons,
  // 64 linear outputs. Verified at paper scale (cheap: only allocation).
  MlpSpec spec;  // defaults are the paper values
  Sequential model = build_mlp(spec);
  EXPECT_EQ(model.layer_count(), 7u);  // 3x(dense+relu) + output dense
  EXPECT_EQ(model.output_shape({5, 64 * 64}), (std::vector<size_t>{5, 64}));
  // Parameter count: 4096*1024+1024 + 2*(1024*1024+1024) + 1024*64+64.
  const size_t expected = (4096 * 1024 + 1024) + 2 * (1024 * 1024 + 1024) + (1024 * 64 + 64);
  EXPECT_EQ(model.parameter_count(), expected);
}

TEST(ModelZoo, CnnArchitectureTopology) {
  CnnSpec spec;
  spec.input_h = 16;
  spec.input_w = 16;
  spec.output_dim = 8;
  spec.channels1 = 4;
  spec.channels2 = 8;
  spec.hidden = 32;
  Sequential model = build_cnn(spec);
  // reshape + 2x(conv relu conv relu pool) + flatten + 3x(dense relu) + out.
  EXPECT_EQ(model.layer_count(), 1u + 10u + 1u + 6u + 1u);
  EXPECT_EQ(model.output_shape({2, 256}), (std::vector<size_t>{2, 8}));
}

TEST(ModelZoo, CnnRejectsIndivisibleInput) {
  CnnSpec spec;
  spec.input_h = 10;  // not divisible by 4
  EXPECT_THROW(build_cnn(spec), std::invalid_argument);
}

TEST(ModelZoo, MlpForwardBackwardRunsAtReducedScale) {
  ExecutionContext ctx;
  MlpSpec spec;
  spec.input_dim = 32;
  spec.output_dim = 8;
  spec.hidden = 16;
  Sequential model = build_mlp(spec);
  Tensor x = random_tensor({4, 32}, 133);
  Tensor y = model.forward(ctx, x, true);
  EXPECT_EQ(y.shape(), (std::vector<size_t>{4, 8}));
  Tensor g(y.shape());
  g.fill(0.1);
  Tensor gin = model.backward(ctx, g);
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(ModelZoo, DeterministicGivenSeed) {
  ExecutionContext ctx;
  MlpSpec spec;
  spec.input_dim = 8;
  spec.output_dim = 2;
  spec.hidden = 4;
  Sequential a = build_mlp(spec);
  Sequential b = build_mlp(spec);
  Tensor x = random_tensor({2, 8}, 134);
  Tensor ya = a.predict(ctx, x);
  Tensor yb = b.predict(ctx, x);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya[i], yb[i]);
}

TEST(Sequential, EmptyModelThrows) {
  ExecutionContext ctx;
  Sequential model;
  Tensor x({1, 1});
  EXPECT_THROW(model.forward(ctx, x, false), std::runtime_error);
  EXPECT_THROW(model.backward(ctx, x), std::runtime_error);
  EXPECT_THROW(model.add(nullptr), std::invalid_argument);
}

TEST(Sequential, ParamNamesIncludeLayerIndex) {
  Rng rng(135);
  Sequential model;
  model.add(std::make_unique<Dense>(2, 2, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Dense>(2, 1, rng));
  auto params = model.params();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "layer0.weight");
  EXPECT_EQ(params[3].name, "layer2.bias");
}

}  // namespace
