#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "math/rng.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dlpic::nn;
using dlpic::math::Rng;

TEST(MseLoss, ValueAndGradient) {
  MSELoss loss;
  Tensor pred({1, 2}, {1.0, 3.0});
  Tensor target({1, 2}, {0.0, 1.0});
  const double v = loss.forward(pred, target);
  EXPECT_NEAR(v, (1.0 + 4.0) / 2.0, 1e-14);
  Tensor g = loss.backward();
  EXPECT_NEAR(g[0], 2.0 * 1.0 / 2.0, 1e-14);
  EXPECT_NEAR(g[1], 2.0 * 2.0 / 2.0, 1e-14);
}

TEST(MseLoss, BackwardBeforeForwardThrows) {
  MSELoss loss;
  EXPECT_THROW((void)loss.backward(), std::runtime_error);
}

TEST(Metrics, MaeMaxErrorMse) {
  Tensor a({1, 3}, {1.0, 2.0, 3.0});
  Tensor b({1, 3}, {1.5, 2.0, 1.0});
  EXPECT_NEAR(mae_metric(a, b), (0.5 + 0.0 + 2.0) / 3.0, 1e-14);
  EXPECT_DOUBLE_EQ(max_error_metric(a, b), 2.0);
  EXPECT_NEAR(mse_metric(a, b), (0.25 + 4.0) / 3.0, 1e-14);
  Tensor c({2});
  EXPECT_THROW(mae_metric(a, c), std::invalid_argument);
}

TEST(Sgd, SingleStepMatchesFormula) {
  Tensor w({2}, {1.0, -1.0});
  Tensor g({2}, {0.5, -0.25});
  std::vector<Param> params = {{&w, &g, "w"}};
  SGD sgd(0.1);
  sgd.step(params);
  EXPECT_NEAR(w[0], 1.0 - 0.1 * 0.5, 1e-14);
  EXPECT_NEAR(w[1], -1.0 + 0.1 * 0.25, 1e-14);
}

TEST(Sgd, MomentumAccumulates) {
  Tensor w({1}, {0.0});
  Tensor g({1}, {1.0});
  std::vector<Param> params = {{&w, &g, "w"}};
  SGD sgd(0.1, 0.9);
  sgd.step(params);                 // v = -0.1, w = -0.1
  EXPECT_NEAR(w[0], -0.1, 1e-14);
  sgd.step(params);                 // v = -0.19, w = -0.29
  EXPECT_NEAR(w[0], -0.29, 1e-14);
}

TEST(Sgd, InvalidHyperparamsThrow) {
  EXPECT_THROW(SGD(0.0), std::invalid_argument);
  EXPECT_THROW(SGD(0.1, 1.0), std::invalid_argument);
}

TEST(Adam, FirstStepIsLrSizedSignedStep) {
  // With bias correction, the first Adam step is ~lr * sign(g).
  Tensor w({2}, {0.0, 0.0});
  Tensor g({2}, {0.3, -7.0});
  std::vector<Param> params = {{&w, &g, "w"}};
  Adam adam(0.01);
  adam.step(params);
  EXPECT_NEAR(w[0], -0.01, 1e-6);
  EXPECT_NEAR(w[1], 0.01, 1e-6);
  EXPECT_EQ(adam.steps_taken(), 1);
}

TEST(Adam, ChangedParamListThrows) {
  Tensor w({2}), g({2});
  std::vector<Param> params = {{&w, &g, "w"}};
  Adam adam(0.01);
  adam.step(params);
  Tensor w2({3}), g2({3});
  std::vector<Param> changed = {{&w2, &g2, "w2"}};
  EXPECT_THROW(adam.step(changed), std::invalid_argument);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize ||w - target||² directly through the optimizer interface.
  Tensor w({3}, {5.0, -3.0, 0.5});
  Tensor g({3});
  const double target[3] = {1.0, 2.0, -1.0};
  std::vector<Param> params = {{&w, &g, "w"}};
  Adam adam(0.05);
  for (int it = 0; it < 2000; ++it) {
    for (int i = 0; i < 3; ++i) g[i] = 2.0 * (w[i] - target[i]);
    adam.step(params);
  }
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(w[i], target[i], 1e-3);
}

TEST(Training, SmallMlpLearnsLinearMap) {
  // End-to-end sanity: a 1-hidden-layer MLP fits y = A x with Adam.
  ExecutionContext ctx;
  Rng rng(101);
  Sequential model;
  model.add(std::make_unique<Dense>(2, 16, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Dense>(16, 1, rng, true));

  Adam adam(0.01);
  MSELoss loss;
  double final_loss = 1e9;
  for (int it = 0; it < 800; ++it) {
    Tensor x({8, 2});
    Tensor y({8, 1});
    for (size_t b = 0; b < 8; ++b) {
      x.at2(b, 0) = rng.uniform(-1, 1);
      x.at2(b, 1) = rng.uniform(-1, 1);
      y.at2(b, 0) = 0.7 * x.at2(b, 0) - 0.3 * x.at2(b, 1);
    }
    Tensor pred = model.forward(ctx, x, true);
    final_loss = loss.forward(pred, y);
    model.zero_grad();
    model.backward(ctx, loss.backward());
    adam.step(model.params());
  }
  EXPECT_LT(final_loss, 1e-3);
}

// The loss/metric reductions run through util::ordered_block_sum/max with a
// fixed block partition, so values — and the MSE gradient — are bitwise
// identical for every worker count. Sized well above the reduction block
// width so the parallel path is actually exercised.
TEST(LossParallelism, ReductionsAreWorkerCountInvariant) {
  Rng rng(321);
  const size_t n = 3 * dlpic::util::kOrderedReduceBlock + 1234;
  Tensor pred({n});
  Tensor target({n});
  for (size_t i = 0; i < n; ++i) {
    pred[i] = rng.uniform(-2, 2);
    target[i] = rng.uniform(-2, 2);
  }

  struct Result {
    double mse_loss, mse, mae, max_err;
    std::vector<double> grad;
  };
  auto run = [&](size_t workers) {
    dlpic::util::ScopedMaxWorkers cap(workers);
    MSELoss loss;
    Result r;
    r.mse_loss = loss.forward(pred, target);
    r.grad = loss.backward().vec();
    r.mse = mse_metric(pred, target);
    r.mae = mae_metric(pred, target);
    r.max_err = max_error_metric(pred, target);
    return r;
  };

  const Result serial = run(1);
  for (size_t workers : {2u, 8u}) {
    const Result parallel = run(workers);
    EXPECT_EQ(serial.mse_loss, parallel.mse_loss) << workers << " workers";
    EXPECT_EQ(serial.mse, parallel.mse) << workers << " workers";
    EXPECT_EQ(serial.mae, parallel.mae) << workers << " workers";
    EXPECT_EQ(serial.max_err, parallel.max_err) << workers << " workers";
    ASSERT_EQ(serial.grad.size(), parallel.grad.size());
    for (size_t i = 0; i < serial.grad.size(); ++i)
      ASSERT_EQ(serial.grad[i], parallel.grad[i]) << "grad[" << i << "] at " << workers;
  }
}

}  // namespace
