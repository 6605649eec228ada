/// \file test_parallel_generator.cpp
/// Worker-count invariance of the parallel dataset sweep: generate() fans
/// independent PIC runs across workers with each run pinned to a serial
/// inner context and a counter-based per-run seed stream, so the output
/// must be byte-identical for any worker count.

#include <gtest/gtest.h>

#include <cstring>

#include "data/generator.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dlpic;
using namespace dlpic::data;

GeneratorConfig tiny_config() {
  GeneratorConfig cfg;
  cfg.base.particles_per_cell = 50;
  cfg.binner.nx = 16;
  cfg.binner.nv = 16;
  cfg.v0_values = {0.1, 0.2};
  cfg.vth_values = {0.0, 0.01};
  cfg.runs_per_combination = 2;  // 8 independent runs to schedule
  cfg.steps_per_run = 3;
  return cfg;
}

nn::Dataset generate_at_width(const GeneratorConfig& cfg, size_t workers) {
  util::ScopedMaxWorkers cap(workers);
  return DatasetGenerator(cfg).generate();
}

void expect_byte_identical(const nn::Dataset& a, const nn::Dataset& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  ASSERT_EQ(a.input_dim(), b.input_dim()) << label;
  ASSERT_EQ(a.target_dim(), b.target_dim()) << label;
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(std::memcmp(a.input_row(r), b.input_row(r), a.input_dim() * sizeof(double)),
              0)
        << label << ": input row " << r;
    EXPECT_EQ(
        std::memcmp(a.target_row(r), b.target_row(r), a.target_dim() * sizeof(double)), 0)
        << label << ": target row " << r;
  }
}

TEST(ParallelGenerator, ByteIdenticalAcrossWorkerCounts) {
  const auto cfg = tiny_config();
  const auto d1 = generate_at_width(cfg, 1);
  const auto d2 = generate_at_width(cfg, 2);
  const auto d8 = generate_at_width(cfg, 8);
  expect_byte_identical(d1, d2, "2 workers vs serial");
  expect_byte_identical(d1, d8, "8 workers vs serial");
}

// A run's own nthreads cap neither widens its serial-pinned inner loops
// nor touches the process-wide width while runs execute concurrently.
TEST(ParallelGenerator, RunWorkerCapKeepsRunsSerial) {
  auto capped = tiny_config();
  capped.base.nthreads = 3;
  const auto reference = generate_at_width(tiny_config(), 1);
  util::ScopedMaxWorkers cap(4);
  const auto d4 = DatasetGenerator(capped).generate();
  EXPECT_EQ(util::max_workers(), 4u);
  expect_byte_identical(reference, d4, "nthreads=3 runs on 4 workers vs serial");
}

TEST(ParallelGenerator, RunSeedsAreCounterBased) {
  const auto cfg = tiny_config();
  DatasetGenerator gen(cfg);
  // Same index -> same seed, independent of call order; distinct indices
  // give decorrelated seeds.
  const uint64_t s3 = gen.run_seed(3);
  const uint64_t s0 = gen.run_seed(0);
  EXPECT_EQ(gen.run_seed(3), s3);
  EXPECT_EQ(gen.run_seed(0), s0);
  EXPECT_NE(s0, s3);
}

TEST(ParallelGenerator, MatchesManualSweepOrder) {
  // generate() must keep the documented (v0-major, vth, run) row order.
  const auto cfg = tiny_config();
  DatasetGenerator gen(cfg);
  const auto all = gen.generate();

  nn::Dataset manual(cfg.binner.nx * cfg.binner.nv, cfg.base.ncells);
  uint64_t stream = 0;
  for (double v0 : cfg.v0_values)
    for (double vth : cfg.vth_values)
      for (size_t run = 0; run < cfg.runs_per_combination; ++run, ++stream) {
        util::ScopedSerialExecution serial;
        gen.generate_run(v0, vth, gen.run_seed(stream), cfg.steps_per_run, manual);
      }
  expect_byte_identical(all, manual, "generate() vs manual sweep");
}

}  // namespace
