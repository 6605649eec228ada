#include "data/generator.hpp"

#include <stdexcept>

#include "math/rng.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace dlpic::data {

DatasetGenerator::DatasetGenerator(const GeneratorConfig& config) : config_(config) {
  if (config_.v0_values.empty() || config_.vth_values.empty())
    throw std::invalid_argument("DatasetGenerator: empty parameter lists");
  if (config_.runs_per_combination == 0 || config_.steps_per_run == 0)
    throw std::invalid_argument("DatasetGenerator: zero runs or steps");
  if (config_.binner.length != config_.base.length)
    throw std::invalid_argument(
        "DatasetGenerator: binner length must match the simulation box");
}

void DatasetGenerator::generate_run(double v0, double vth, uint64_t run_seed, size_t steps,
                                    nn::Dataset& out) const {
  pic::SimulationConfig cfg = config_.base;
  cfg.beams.v0 = v0;
  cfg.beams.vth = vth;
  cfg.seed = run_seed;
  cfg.nsteps = steps;

  phase_space::PhaseSpaceBinner binner(config_.binner);
  pic::TraditionalPic sim(cfg);
  sim.set_observer([&](const pic::TraditionalPic& s) {
    // One sample per completed PIC cycle: the phase space (x^{n+1}, v^{n+1/2})
    // and the field E^{n+1} the solver produced from it.
    auto hist = binner.bin(s.electrons());
    out.add(hist, s.efield());
  });
  sim.run();
}

uint64_t DatasetGenerator::run_seed(uint64_t index) const {
  // Counter-based stream derivation: run `index` always draws the same
  // seed, whatever worker executes it (and whichever order runs finish).
  math::Rng seeder = math::Rng::stream(config_.seed, index);
  return seeder.next_u64();
}

nn::Dataset DatasetGenerator::generate() const {
  const size_t in_dim = config_.binner.nx * config_.binner.nv;
  const size_t out_dim = config_.base.ncells;

  // Enumerate the sweep deterministically, then fan the independent runs
  // out across workers. Each run fills a private per-run dataset; the
  // fixed-order merge below makes the result byte-identical for every
  // worker count.
  struct RunSpec {
    double v0, vth;
    uint64_t seed;
  };
  std::vector<RunSpec> specs;
  specs.reserve(config_.total_samples() / config_.steps_per_run);
  uint64_t stream = 0;
  for (double v0 : config_.v0_values)
    for (double vth : config_.vth_values)
      for (size_t run = 0; run < config_.runs_per_combination; ++run, ++stream)
        specs.push_back({v0, vth, run_seed(stream)});

  std::vector<nn::Dataset> parts(specs.size(), nn::Dataset(in_dim, out_dim));
  util::Timer timer;
  util::parallel_for(
      0, specs.size(),
      [&](size_t r) {
        // Pin the run's PIC loops serial: outer-level parallelism over
        // runs composes with the parallel kernels without nesting, and
        // per-run results stay bitwise independent of the dispatch.
        util::ScopedSerialExecution serial;
        parts[r].reserve(config_.steps_per_run);
        generate_run(specs[r].v0, specs[r].vth, specs[r].seed, config_.steps_per_run,
                     parts[r]);
      },
      /*grain=*/1);

  nn::Dataset out(in_dim, out_dim);
  out.reserve(config_.total_samples());
  for (const auto& part : parts) out.append(part);
  DLPIC_LOG_DEBUG("generated %zu runs (%zu samples) on %zu workers in %.1fs",
                  specs.size(), out.size(), util::parallel_workers(), timer.seconds());
  return out;
}

}  // namespace dlpic::data
