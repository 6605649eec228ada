#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/dl_field_solver.hpp"
#include "math/rng.hpp"
#include "nn/dense.hpp"
#include "nn/model_zoo.hpp"

namespace {

using namespace dlpic::core;
using dlpic::data::MinMaxNormalizer;
using dlpic::nn::Dense;
using dlpic::nn::Sequential;

dlpic::phase_space::BinnerConfig tiny_binner() {
  dlpic::phase_space::BinnerConfig bc;
  bc.nx = 8;
  bc.nv = 8;
  return bc;
}

Sequential tiny_model(size_t in, size_t out, uint64_t seed = 7) {
  dlpic::nn::MlpSpec spec;
  spec.input_dim = in;
  spec.output_dim = out;
  spec.hidden = 16;
  spec.seed = seed;
  return dlpic::nn::build_mlp(spec);
}

TEST(DlFieldSolver, OutputSizeMatchesModel) {
  auto bc = tiny_binner();
  DlFieldSolver solver(tiny_model(64, 32), MinMaxNormalizer(0.0, 100.0), bc);
  dlpic::pic::Species s("e", -1.0, 1.0);
  s.add(0.5, 0.1);
  s.add(1.0, -0.1);
  auto E = solver.solve(s);
  EXPECT_EQ(E.size(), 32u);
}

TEST(DlFieldSolver, DeterministicInference) {
  auto bc = tiny_binner();
  DlFieldSolver solver(tiny_model(64, 16), MinMaxNormalizer(0.0, 10.0), bc);
  std::vector<double> hist(64, 1.0);
  auto a = solver.solve_histogram(hist);
  auto b = solver.solve_histogram(hist);
  EXPECT_EQ(a, b);
}

TEST(DlFieldSolver, ZeroWeightModelGivesZeroField) {
  auto bc = tiny_binner();
  Sequential model;
  auto dense = std::make_unique<Dense>(64, 16);
  dense->weight().fill(0.0);
  dense->bias().fill(0.0);
  model.add(std::move(dense));
  DlFieldSolver solver(std::move(model), MinMaxNormalizer(0.0, 1.0), bc);
  auto E = solver.solve_histogram(std::vector<double>(64, 0.3));
  for (double e : E) EXPECT_DOUBLE_EQ(e, 0.0);
}

TEST(DlFieldSolver, NormalizationIsAppliedBeforeInference) {
  // Identity-like single dense layer summing all inputs: with weights 1 and
  // bias 0, output = sum of normalized inputs.
  auto bc = tiny_binner();
  Sequential model;
  auto dense = std::make_unique<Dense>(64, 1);
  dense->weight().fill(1.0);
  dense->bias().fill(0.0);
  model.add(std::move(dense));
  DlFieldSolver solver(std::move(model), MinMaxNormalizer(0.0, 2.0), bc);
  // All inputs at the max -> normalized to 1 -> sum = 64.
  auto E = solver.solve_histogram(std::vector<double>(64, 2.0));
  ASSERT_EQ(E.size(), 1u);
  EXPECT_NEAR(E[0], 64.0, 1e-12);
}

TEST(DlFieldSolver, RejectsMismatchedHistogram) {
  auto bc = tiny_binner();
  DlFieldSolver solver(tiny_model(64, 16), MinMaxNormalizer(0.0, 1.0), bc);
  EXPECT_THROW(solver.solve_histogram(std::vector<double>(63, 0.0)),
               std::invalid_argument);
}

TEST(DlFieldSolver, RejectsIncompatibleModel) {
  auto bc = tiny_binner();  // histogram size 64
  EXPECT_THROW(DlFieldSolver(tiny_model(100, 16), MinMaxNormalizer(0.0, 1.0), bc),
               std::invalid_argument);
}

TEST(DlFieldSolver, RejectsUnfittedNormalizer) {
  auto bc = tiny_binner();
  EXPECT_THROW(DlFieldSolver(tiny_model(64, 16), MinMaxNormalizer(), bc),
               std::invalid_argument);
}

TEST(DlFieldSolver, SaveLoadRoundTripPredictsIdentically) {
  auto bc = tiny_binner();
  bc.order = dlpic::phase_space::BinningOrder::CIC;
  DlFieldSolver solver(tiny_model(64, 16, 99), MinMaxNormalizer(0.0, 50.0), bc);
  std::vector<double> hist(64);
  for (size_t i = 0; i < 64; ++i) hist[i] = static_cast<double>(i % 7);
  auto before = solver.solve_histogram(hist);

  const std::string path = testing::TempDir() + "/dlpic_solver.bin";
  solver.save(path);
  auto loaded = DlFieldSolver::load(path);
  auto after = loaded.solve_histogram(hist);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) EXPECT_DOUBLE_EQ(before[i], after[i]);
  EXPECT_EQ(loaded.binner_config().order, dlpic::phase_space::BinningOrder::CIC);
  EXPECT_DOUBLE_EQ(loaded.normalizer().max(), 50.0);
  std::remove(path.c_str());
  std::remove((path + ".model").c_str());
}

/// Overwrites the bytes at `offset` of the file at `path` with `value`.
template <typename T>
void patch(const std::string& path, std::streamoff offset, T value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof value);
  ASSERT_TRUE(f.good()) << path;
}

// Bundle header: magic, version (u32 each), nx, nv (u64), length, vmin,
// vmax (f64), order (u32), then the normalizer's min and max (f64).
constexpr std::streamoff kOrderOffset = 4 + 4 + 8 + 8 + 3 * 8;
constexpr std::streamoff kNormalizerMaxOffset = kOrderOffset + 4 + 8;

// A bundle is untrusted: a binning order code other than 0 (NGP) or 1 (CIC)
// and a non-finite normalizer bound fail its load.
TEST(DlFieldSolver, LoadRejectsUnknownOrderAndInfiniteBound) {
  DlFieldSolver solver(tiny_model(64, 16), MinMaxNormalizer(0.0, 10.0), tiny_binner());
  const std::string path = testing::TempDir() + "/dlpic_solver_corrupt.bin";
  struct Case {
    const char* name;
    std::function<void()> corrupt;
    const char* message;
  };
  const Case cases[] = {
      {"order 2", [&] { patch(path, kOrderOffset, uint32_t{2}); }, "binning order"},
      {"infinite max",
       [&] {
         patch(path, kNormalizerMaxOffset, std::numeric_limits<double>::infinity());
       },
       "unusable bounds"},
  };
  for (const Case& c : cases) {
    solver.save(path);
    (void)DlFieldSolver::load(path);  // the saved bundle itself loads
    c.corrupt();
    try {
      (void)DlFieldSolver::load(path);
      ADD_FAILURE() << c.name << " loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.message), std::string::npos) << c.name << ": " << what;
      EXPECT_NE(what.find(path), std::string::npos) << c.name << ": " << what;
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".model").c_str());
}

static_assert(std::is_nothrow_move_constructible_v<DlFieldSolver>);

// A solver is a plain value: a moved and a move-assigned solver both predict
// bitwise as the original did.
TEST(DlFieldSolver, MovedAndMoveAssignedSolversPredictIdentically) {
  DlFieldSolver solver(tiny_model(64, 16), MinMaxNormalizer(0.0, 10.0), tiny_binner());
  std::vector<double> hist(64);
  for (size_t i = 0; i < 64; ++i) hist[i] = static_cast<double>(i % 5);
  const auto before = solver.solve_histogram(hist);

  DlFieldSolver moved(std::move(solver));
  EXPECT_EQ(moved.solve_histogram(hist), before);

  DlFieldSolver assigned(tiny_model(64, 16, 8), MinMaxNormalizer(0.0, 1.0), tiny_binner());
  assigned = std::move(moved);
  EXPECT_EQ(assigned.solve_histogram(hist), before);
  EXPECT_DOUBLE_EQ(assigned.normalizer().max(), 10.0);
}

}  // namespace
