#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <limits>

#include "data/normalizer.hpp"

namespace {

using dlpic::data::MinMaxNormalizer;
using dlpic::nn::Dataset;

Dataset tiny_dataset() {
  Dataset ds(3, 1);
  ds.add({0.0, 5.0, 10.0}, {1.0});
  ds.add({2.0, -10.0, 4.0}, {2.0});
  return ds;
}

TEST(Normalizer, FitFindsGlobalMinMax) {
  auto n = MinMaxNormalizer::fit(tiny_dataset());
  EXPECT_DOUBLE_EQ(n.min(), -10.0);
  EXPECT_DOUBLE_EQ(n.max(), 10.0);
  EXPECT_TRUE(n.fitted());
}

TEST(Normalizer, ApplyMapsToUnitInterval) {
  auto n = MinMaxNormalizer::fit(tiny_dataset());
  std::vector<double> v = {-10.0, 0.0, 10.0};
  n.apply(v);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.5);
  EXPECT_DOUBLE_EQ(v[2], 1.0);
}

TEST(Normalizer, InverseRoundTrips) {
  MinMaxNormalizer n(-2.0, 6.0);
  std::vector<double> v = {3.0};
  n.apply(v);
  EXPECT_NEAR(n.inverse(v[0]), 3.0, 1e-14);
}

TEST(Normalizer, ApplyDatasetNormalizesInputsOnly) {
  auto ds = tiny_dataset();
  auto n = MinMaxNormalizer::fit(ds);
  auto out = n.apply_dataset(ds);
  EXPECT_EQ(out.size(), ds.size());
  for (size_t r = 0; r < out.size(); ++r) {
    for (size_t i = 0; i < out.input_dim(); ++i) {
      EXPECT_GE(out.input_row(r)[i], 0.0);
      EXPECT_LE(out.input_row(r)[i], 1.0);
    }
    EXPECT_DOUBLE_EQ(out.target_row(r)[0], ds.target_row(r)[0]);  // targets raw
  }
}

TEST(Normalizer, UnfittedAndDegenerateThrow) {
  MinMaxNormalizer n;
  std::vector<double> v = {1.0};
  EXPECT_THROW(n.apply(v), std::runtime_error);
  EXPECT_THROW((void)n.inverse(0.5), std::runtime_error);
  EXPECT_THROW(MinMaxNormalizer(1.0, 1.0), std::invalid_argument);

  Dataset constant(2, 1);
  constant.add({3.0, 3.0}, {0.0});
  EXPECT_THROW(MinMaxNormalizer::fit(constant), std::runtime_error);
  Dataset empty(2, 1);
  EXPECT_THROW(MinMaxNormalizer::fit(empty), std::invalid_argument);
}

// Bounds that would map every input to 0, to an infinity or to NaN are
// rejected: infinite or NaN bounds, a width max - min that overflows, and a
// width whose reciprocal overflows.
TEST(Normalizer, NonFiniteBoundsAndWidthThrow) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double bad[][2] = {{0.0, inf},         {-inf, 0.0},   {-inf, inf},
                           {nan, 1.0},         {0.0, nan},    {nan, nan},
                           {-DBL_MAX, DBL_MAX}, {0.0, DBL_TRUE_MIN}};
  for (const auto& b : bad)
    EXPECT_THROW(MinMaxNormalizer(b[0], b[1]), std::invalid_argument) << b[0] << ", " << b[1];
  MinMaxNormalizer widest(-DBL_MAX / 2, DBL_MAX / 2);
  std::vector<double> v = {0.0};
  widest.apply(v);
  EXPECT_DOUBLE_EQ(v[0], 0.5);
}

// A saved file is untrusted: unusable bounds fail its load with the file
// named.
TEST(Normalizer, LoadRejectsNonFiniteBounds) {
  const std::string path = testing::TempDir() + "/dlpic_norm_inf.bin";
  {
    dlpic::util::BinaryWriter w(path);
    w.write_f64(0.0);
    w.write_f64(std::numeric_limits<double>::infinity());
  }
  dlpic::util::BinaryReader r(path);
  try {
    (void)MinMaxNormalizer::load(r);
    ADD_FAILURE() << "an infinite bound loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Normalizer, SaveLoadRoundTrip) {
  MinMaxNormalizer n(-1.5, 2.5);
  const std::string path = testing::TempDir() + "/dlpic_norm.bin";
  {
    dlpic::util::BinaryWriter w(path);
    n.save(w);
  }
  dlpic::util::BinaryReader r(path);
  auto loaded = MinMaxNormalizer::load(r);
  EXPECT_DOUBLE_EQ(loaded.min(), -1.5);
  EXPECT_DOUBLE_EQ(loaded.max(), 2.5);
  std::remove(path.c_str());
}

}  // namespace
