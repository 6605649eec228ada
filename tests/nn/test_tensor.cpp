#include <gtest/gtest.h>

#include "nn/tensor.hpp"

namespace {

using dlpic::nn::Tensor;

TEST(Tensor, ZeroInitializedConstruction) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 3u);
  for (size_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(t[i], 0.0);
}

TEST(Tensor, DataConstructorValidatesVolume) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, IndexedAccess2D) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(t.at2(0, 0), 1);
  EXPECT_DOUBLE_EQ(t.at2(0, 2), 3);
  EXPECT_DOUBLE_EQ(t.at2(1, 1), 5);
  t.at2(1, 2) = 9;
  EXPECT_DOUBLE_EQ(t[5], 9);
}

TEST(Tensor, IndexedAccess4D) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0;
  EXPECT_DOUBLE_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.0);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  t[7] = 3.5;
  t.reshape({3, 4});
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_DOUBLE_EQ(t[7], 3.5);
  EXPECT_THROW(t.reshape({5, 5}), std::invalid_argument);
}

TEST(Tensor, FillAndZero) {
  Tensor t({4});
  t.fill(2.5);
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(t[i], 2.5);
  t.zero();
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(t[i], 0.0);
}

TEST(Tensor, ShapeStringAndDimBounds) {
  Tensor t({2, 64});
  EXPECT_EQ(t.shape_string(), "[2, 64]");
  EXPECT_THROW((void)t.dim(2), std::out_of_range);
}

TEST(Tensor, AddAndScaleInplace) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  dlpic::nn::add_inplace(a, b);
  EXPECT_DOUBLE_EQ(a[2], 33);
  dlpic::nn::scale_inplace(a, 0.5);
  EXPECT_DOUBLE_EQ(a[0], 5.5);
  Tensor c({2});
  EXPECT_THROW(dlpic::nn::add_inplace(a, c), std::invalid_argument);
}

TEST(Tensor, EmptyDefault) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

}  // namespace
