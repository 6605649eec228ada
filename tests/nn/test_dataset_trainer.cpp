#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "math/rng.hpp"
#include "nn/activation.hpp"
#include "nn/dataset.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace dlpic::nn;
using dlpic::math::Rng;

Dataset linear_dataset(size_t n, uint64_t seed) {
  // y = [x0 + x1, x0 - x1]
  Rng rng(seed);
  Dataset ds(2, 2);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    ds.add({a, b}, {a + b, a - b});
  }
  return ds;
}

TEST(Dataset, AddAndGather) {
  Dataset ds(2, 1);
  ds.add({1, 2}, {3});
  ds.add({4, 5}, {6});
  EXPECT_EQ(ds.size(), 2u);
  auto [x, y] = ds.gather({1, 0});
  EXPECT_DOUBLE_EQ(x.at2(0, 0), 4);
  EXPECT_DOUBLE_EQ(y.at2(1, 0), 3);
  EXPECT_THROW(ds.add({1}, {2}), std::invalid_argument);
  EXPECT_THROW((void)ds.input_row(5), std::out_of_range);
}

TEST(Dataset, SplitSizesAndDisjointness) {
  Dataset ds(1, 1);
  for (int i = 0; i < 100; ++i) ds.add({static_cast<double>(i)}, {0.0});
  Rng rng(111);
  auto parts = ds.split({70, 20, 10}, rng);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 70u);
  EXPECT_EQ(parts[1].size(), 20u);
  EXPECT_EQ(parts[2].size(), 10u);
  std::set<double> seen;
  for (const auto& p : parts)
    for (size_t i = 0; i < p.size(); ++i) {
      const double v = p.input_row(i)[0];
      EXPECT_TRUE(seen.insert(v).second) << "duplicate row " << v;
    }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Dataset, SplitTooLargeThrows) {
  Dataset ds(1, 1);
  ds.add({1}, {1});
  Rng rng(112);
  EXPECT_THROW(ds.split({2}, rng), std::invalid_argument);
}

TEST(DataLoader, CoversEpochExactlyOnce) {
  Dataset ds(1, 1);
  for (int i = 0; i < 10; ++i) ds.add({static_cast<double>(i)}, {0.0});
  Rng rng(113);
  DataLoader loader(ds, 3, rng, /*shuffle=*/true);
  EXPECT_EQ(loader.batches(), 4u);  // 3+3+3+1
  std::multiset<double> seen;
  Tensor x, y;
  size_t batches = 0;
  while (loader.next(x, y)) {
    ++batches;
    for (size_t i = 0; i < x.dim(0); ++i) seen.insert(x.at2(i, 0));
  }
  EXPECT_EQ(batches, 4u);
  EXPECT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen.count(static_cast<double>(i)), 1u);
}

TEST(DataLoader, DropLastSkipsPartialBatch) {
  Dataset ds(1, 1);
  for (int i = 0; i < 10; ++i) ds.add({static_cast<double>(i)}, {0.0});
  Rng rng(114);
  DataLoader loader(ds, 4, rng, true, /*drop_last=*/true);
  EXPECT_EQ(loader.batches(), 2u);
  Tensor x, y;
  size_t total = 0;
  while (loader.next(x, y)) total += x.dim(0);
  EXPECT_EQ(total, 8u);
}

TEST(DataLoader, NoShuffleIsSequential) {
  Dataset ds(1, 1);
  for (int i = 0; i < 6; ++i) ds.add({static_cast<double>(i)}, {0.0});
  Rng rng(115);
  DataLoader loader(ds, 2, rng, /*shuffle=*/false);
  Tensor x, y;
  ASSERT_TRUE(loader.next(x, y));
  EXPECT_DOUBLE_EQ(x.at2(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(x.at2(1, 0), 1.0);
}

TEST(Trainer, FitsLinearTargetAndReportsHistory) {
  Rng rng(116);
  Sequential model;
  model.add(std::make_unique<Dense>(2, 32, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Dense>(32, 2, rng, true));

  Dataset train = linear_dataset(512, 117);
  Dataset val = linear_dataset(64, 118);

  TrainConfig cfg;
  cfg.epochs = 40;
  cfg.batch_size = 32;
  Trainer trainer(cfg);
  Adam adam(3e-3);
  auto history = trainer.fit(model, adam, train, &val);
  ASSERT_EQ(history.size(), 40u);
  EXPECT_LT(history.back().train_loss, history.front().train_loss * 0.1);
  EXPECT_LT(history.back().validation.mae, 0.05);
  EXPECT_GT(history.back().validation.samples, 0u);
}

TEST(Trainer, EarlyStoppingHaltsOnPlateau) {
  Rng rng(119);
  Sequential model;
  model.add(std::make_unique<Dense>(2, 4, rng));
  model.add(std::make_unique<Dense>(4, 2, rng, true));

  Dataset train = linear_dataset(64, 120);
  Dataset val = linear_dataset(32, 121);

  TrainConfig cfg;
  cfg.epochs = 200;
  cfg.batch_size = 16;
  cfg.patience = 3;
  cfg.min_delta = 1.0;  // demand an impossible improvement per epoch
  Trainer trainer(cfg);
  SGD sgd(1e-9);  // learning rate so tiny that validation never improves
  auto history = trainer.fit(model, sgd, train, &val);
  EXPECT_LE(history.size(), 10u);  // stopped long before 200
}

TEST(Trainer, EvaluateMatchesManualMetrics) {
  ExecutionContext ctx;
  Rng rng(122);
  Sequential model;
  model.add(std::make_unique<Dense>(2, 2, rng, true));
  Dataset data = linear_dataset(40, 123);
  auto m = Trainer::evaluate(model, data, /*batch_size=*/7);
  EXPECT_EQ(m.samples, 40u);
  // Cross-check against a full-batch manual computation.
  auto [x, y] = data.all();
  Tensor pred = model.predict(ctx, x);
  EXPECT_NEAR(m.mae, mae_metric(pred, y), 1e-12);
  EXPECT_NEAR(m.max_error, max_error_metric(pred, y), 1e-12);
  EXPECT_NEAR(m.mse, mse_metric(pred, y), 1e-12);
}

TEST(Trainer, InvalidConfigThrows) {
  TrainConfig cfg;
  cfg.epochs = 0;
  EXPECT_THROW(Trainer{cfg}, std::invalid_argument);
  cfg.epochs = 1;
  cfg.batch_size = 0;
  EXPECT_THROW(Trainer{cfg}, std::invalid_argument);
}

TEST(Trainer, EmptyTrainingSetThrows) {
  Rng rng(124);
  Sequential model;
  model.add(std::make_unique<Dense>(2, 2, rng));
  Dataset empty(2, 2);
  Trainer trainer;
  Adam adam(1e-3);
  EXPECT_THROW(trainer.fit(model, adam, empty), std::invalid_argument);
}

}  // namespace
