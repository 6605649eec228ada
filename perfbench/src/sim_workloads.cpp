// pic_paper and dlpic_paper: back-to-back 200-step jobs at the paper's
// configuration (64 cells, 1000 e-/cell, CIC, spectral Poisson, dt 0.2,
// cold two-stream v0 = 0.2), one derived seed per job.
//
// End-to-end run: each job is built (the set-up span) and stepped through
// the library's own simulation classes, TraditionalPic and DlPicSimulation,
// with one span per step. Traced run: each job runs once untraced and once as a
// replica of the same step made of the public stage calls with a span
// around each; the replica's final particles must equal the untraced job's
// bit for bit, otherwise it would be measuring a different program.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analytic_bundle.hpp"
#include "core/dlpic.hpp"
#include "core/theory.hpp"
#include "math/stats.hpp"
#include "nn/dense.hpp"
#include "pic/deposit.hpp"
#include "pic/diagnostics.hpp"
#include "pic/efield.hpp"
#include "pic/mover.hpp"
#include "pic/sorter.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dlpic;

constexpr size_t kJobSteps = 200;
constexpr size_t kWarmupSteps = 10;
constexpr size_t kWindowSteps = 25;  // one sort interval; 8 windows per job
// Per-job physics gate: the E1 growth rate against cold two-stream theory.
// A single random-loaded paper-scale job measures gamma with a spread that
// the 15% / r2 > 0.85 bound of TwoStreamGrowthRateMatchesLinearTheory does
// not cover. Over 2400 traditional jobs, fitting from 5% of max E1 (the
// default 1% edge starts inside the 2-4% mode-1 noise floor), gamma sat at
// -5% of theory (median) with a low tail to -17.5% (0.1% quantile -16%),
// and r2 had a 0.1% quantile of 0.90 and a minimum of 0.86. The 15% bound
// failed 3 of those jobs, so at ~150 jobs a run it would fail correct code
// in about one run in six. The gate keeps room beyond the measured tail
// and still fails a field that is off by a factor of two (cold theory then
// gives gamma +28% for 2E, -46% for E/2).
constexpr double kGammaTolerance = 0.25;
constexpr double kMinR2 = 0.8;
constexpr double kFitFrom = 0.05;  // fit window from 5% to 50% of max E1
constexpr double kMaxEnergyVariation = 0.25;  // DL-PIC jobs only

pic::SimulationConfig paper_job(uint64_t seed) {
  pic::SimulationConfig config;  // defaults are the paper configuration
  config.beams.v0 = 0.2;
  config.beams.vth = 0.0;
  config.nsteps = kJobSteps;
  config.seed = seed;
  return config;
}

/// A timed span accumulator: total busy time and call count.
struct Span {
  double total_s = 0.0;
  size_t calls = 0;

  template <class F>
  void time(F&& f) {
    const auto start = Clock::now();
    f();
    total_s += seconds_between(start, Clock::now());
    ++calls;
  }
  [[nodiscard]] double ms_per_call() const {
    return calls > 0 ? 1e3 * total_s / static_cast<double>(calls) : 0.0;
  }
};

/// Untraced measurements accumulated over the jobs of one run.
struct JobTimes {
  std::vector<double> setup_s;
  std::vector<double> step_ms;
  std::vector<double> window_steps_per_s;  // steps / wall time, per window of a job
  std::vector<double> window_p50_ms;       // median step time, per window of a job
  double stepping_s = 0.0;

  /// All steps over all stepping time (the traced run's overhead base).
  [[nodiscard]] double pooled_steps_per_s() const {
    return static_cast<double>(step_ms.size()) / stepping_s;
  }
};

/// Physics gate results over the jobs of one run.
struct Gates {
  size_t jobs = 0;
  size_t failed = 0;
  double gamma_min = INFINITY, gamma_max = -INFINITY, r2_min = INFINITY;
  double energy_max = 0.0;

  void check(const pic::History& history, bool check_energy) {
    const auto fit = math::fit_growth_rate(history.times(), history.e1_amplitude(), kFitFrom);
    const double theory = core::two_stream_growth_rate(3.06, 0.2);
    const double energy = history.max_energy_variation();
    bool ok = fit.valid && std::abs(fit.gamma - theory) <= kGammaTolerance * theory &&
              fit.r2 > kMinR2;
    if (check_energy) ok = ok && energy < kMaxEnergyVariation;
    ++jobs;
    if (!ok) ++failed;
    gamma_min = std::min(gamma_min, fit.gamma);
    gamma_max = std::max(gamma_max, fit.gamma);
    r2_min = std::min(r2_min, fit.r2);
    energy_max = std::max(energy_max, energy);
  }

  [[nodiscard]] std::string summary() const {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "gates: %zu/%zu jobs passed; gamma %.4f..%.4f (theory %.4f), r2 >= %.4f, "
                  "max energy variation %.4f",
                  jobs - failed, jobs, gamma_min, gamma_max,
                  core::two_stream_growth_rate(3.06, 0.2), r2_min, energy_max);
    return buf;
  }
};

/// Builds one job (the set-up span) and steps it to the end, one span per
/// step. Returns the finished simulation for the gates and the replica.
template <class Setup>
auto timed_job(Setup&& setup, JobTimes& times) {
  const auto start = Clock::now();
  auto sim = setup();
  times.setup_s.push_back(seconds_between(start, Clock::now()));
  std::vector<double> window_ms;
  for (size_t s = 0; s < kJobSteps; ++s) {
    const auto a = Clock::now();
    sim->step();
    const double ms = 1e3 * seconds_between(a, Clock::now());
    times.step_ms.push_back(ms);
    times.stepping_s += 1e-3 * ms;
    window_ms.push_back(ms);
    if (window_ms.size() == kWindowSteps) {
      double total_ms = 0.0;
      for (double w : window_ms) total_ms += w;
      times.window_steps_per_s.push_back(1e3 * static_cast<double>(kWindowSteps) / total_ms);
      times.window_p50_ms.push_back(median(window_ms));
      window_ms.clear();
    }
  }
  return sim;
}

// Throughput and latency are those of the fastest quarter of the run's
// 25-step windows (see kFastShare); the medians over all windows are notes.
void add_end_to_end(Report& report, const JobTimes& times) {
  report.add("throughput_per_s", quantile(times.window_steps_per_s, 1.0 - kFastShare), "1/s");
  report.add("latency_ms_p50", quantile(times.window_p50_ms, kFastShare), "ms");
  report.add("setup_s", median(times.setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.note("window steps/s: " + tail_summary(times.window_steps_per_s, "1/s"));
  report.note("step wall time: " + tail_summary(times.step_ms, "ms"));
  report.note("set-up: " + tail_summary(times.setup_s, "s"));
}

bool same_particles(const pic::Species& a, const pic::Species& b) {
  return bitwise_equal(a.x(), b.x()) && bitwise_equal(a.v(), b.v());
}

// ------------------------------------------------------------ traditional ---

struct TradSpans {
  Span sort, push, deposit, poisson, efield, diagnostics;
  double stepping_s = 0.0;
  size_t steps = 0;
};

/// TraditionalPic, constructor and step(), rebuilt from the public stage
/// calls with a span around each stage. Returns the final particles.
pic::Species traced_traditional(const pic::SimulationConfig& config, TradSpans& spans) {
  util::ScopedMaxWorkers workers(config.nthreads);
  const pic::Grid1D grid(config.ncells, config.length);
  math::Rng rng(config.seed);
  pic::Species electrons = pic::load_two_stream(grid, config.total_particles(), config.beams, rng);
  const double background =
      -electrons.charge() * static_cast<double>(electrons.size()) / grid.length();
  auto rho = grid.make_field();
  auto phi = grid.make_field();
  auto E = grid.make_field();
  auto poisson = pic::make_poisson_solver(config.solver);
  pic::History history;
  history.reserve(config.nsteps + 1);
  double time = 0.0;

  Span unused;
  auto solve_field = [&](Span& deposit, Span& solve, Span& gradient) {
    deposit.time([&] {
      rho.assign(grid.ncells(), 0.0);
      pic::deposit_charge(grid, config.shape, electrons, rho);
      for (auto& r : rho) r += background;
    });
    solve.time([&] { poisson->solve(grid, rho, phi); });
    gradient.time([&] {
      if (config.spectral_efield)
        pic::efield_from_phi_spectral(grid, phi, E);
      else
        pic::efield_from_phi(grid, phi, E);
    });
  };
  solve_field(unused, unused, unused);
  pic::stagger_velocities_back(grid, config.shape, E, electrons, config.dt);
  history.record(pic::compute_diagnostics(grid, electrons, E, time));

  for (size_t step = 0; step < config.nsteps; ++step) {
    const auto start = Clock::now();
    if (config.sort_interval > 0 && step > 0 && step % config.sort_interval == 0)
      spans.sort.time([&] { pic::sort_by_cell(grid, electrons); });
    spans.push.time([&] { pic::leapfrog_step(grid, config.shape, E, electrons, config.dt); });
    solve_field(spans.deposit, spans.poisson, spans.efield);
    time += config.dt;
    spans.diagnostics.time(
        [&] { history.record(pic::compute_diagnostics(grid, electrons, E, time)); });
    spans.stepping_s += seconds_between(start, Clock::now());
    ++spans.steps;
  }
  return electrons;
}

// ------------------------------------------------------------------ DL-PIC ---

/// Bytes one batch-1 forward pass touches, from tensor sizes: every Dense
/// reads its weights, bias and input and writes its output; every ReLU
/// reads and writes one activation.
double forward_bytes(nn::Sequential& model, size_t input_dim) {
  double doubles = 0.0;
  size_t width = input_dim;
  for (size_t i = 0; i < model.layer_count(); ++i) {
    if (auto* d = dynamic_cast<nn::Dense*>(&model.layer(i))) {
      doubles += static_cast<double>(d->in_features() * d->out_features() +
                                     2 * d->out_features() + d->in_features());
      width = d->out_features();
    } else {
      doubles += 2.0 * static_cast<double>(width);
    }
  }
  return 8.0 * doubles;
}

struct DlSpans {
  Span push, bin, normalize, diagnostics, solve_histogram;
  std::vector<Span> layers;          // one per model layer
  std::vector<bool> layer_is_dense;  // parallel to layers
  double forward_bytes = 0.0;        // one batch-1 forward pass
  double clamped = 0.0;              // particles clamped in v, summed over bins
  double stepping_s = 0.0;
  size_t steps = 0;
};

/// DlPicSimulation, constructor and step(), rebuilt from the public stage
/// calls: bin, normalize, one Layer::forward per layer. `last_histogram`
/// and `last_field` receive the final field solve's input and output.
pic::Species traced_dlpic(const pic::SimulationConfig& config, core::DlFieldSolver& solver,
                          DlSpans& spans, std::vector<double>& last_histogram,
                          std::vector<double>& last_field) {
  const pic::Grid1D grid(config.ncells, config.length);
  math::Rng rng(config.seed);
  pic::Species electrons = pic::load_two_stream(grid, config.total_particles(), config.beams, rng);
  const phase_space::PhaseSpaceBinner binner(solver.binner_config());
  nn::Sequential& model = solver.model();
  nn::ExecutionContext ctx;
  nn::Tensor input({1, binner.size()});
  spans.layers.resize(model.layer_count());
  spans.layer_is_dense.clear();
  for (size_t i = 0; i < model.layer_count(); ++i)
    spans.layer_is_dense.push_back(dynamic_cast<nn::Dense*>(&model.layer(i)) != nullptr);
  spans.forward_bytes = forward_bytes(model, binner.size());
  pic::History history;
  double time = 0.0;
  std::vector<double> E;

  std::vector<Span> unused_layers(model.layer_count());
  Span unused;
  auto solve_field = [&](Span& bin, Span& normalize, std::vector<Span>& layers) {
    bin.time([&] { last_histogram = binner.bin(electrons); });
    normalize.time([&] {
      std::copy(last_histogram.begin(), last_histogram.end(), input.data());
      solver.normalizer().apply(input.vec());
    });
    const nn::Tensor* x = &input;
    for (size_t i = 0; i < model.layer_count(); ++i)
      layers[i].time([&] { x = &model.layer(i).forward(ctx, *x, /*training=*/false); });
    E = x->vec();
  };
  solve_field(unused, unused, unused_layers);
  pic::stagger_velocities_back(grid, config.shape, E, electrons, config.dt);
  history.record(pic::compute_diagnostics(grid, electrons, E, time));

  for (size_t step = 0; step < config.nsteps; ++step) {
    const auto start = Clock::now();
    spans.push.time([&] { pic::leapfrog_step(grid, config.shape, E, electrons, config.dt); });
    solve_field(spans.bin, spans.normalize, spans.layers);
    spans.clamped += static_cast<double>(binner.clamped_particles());
    time += config.dt;
    spans.diagnostics.time(
        [&] { history.record(pic::compute_diagnostics(grid, electrons, E, time)); });
    spans.stepping_s += seconds_between(start, Clock::now());
    ++spans.steps;
  }
  last_field = E;
  return electrons;
}

// ----------------------------------------------------------- the job loop ---

/// Runs jobs until the window closes. `Setup(seed)` builds one job; `Trace`
/// runs the traced replica of a finished job and reports whether it matched.
template <class Setup, class Trace>
void run_jobs(const Options& options, Setup&& setup, Trace&& trace, bool check_energy,
              Report& report, JobTimes& times, Gates& gates) {
  // Warm-up: first-touch of particle arrays, worker threads, bundle pages.
  {
    auto sim = setup(mix_seed(options.seed, ~0ull));
    for (size_t s = 0; s < kWarmupSteps; ++s) sim->step();
  }
  const auto start = Clock::now();
  for (uint64_t job = 0; job == 0 || seconds_between(start, Clock::now()) < options.seconds;
       ++job) {
    const uint64_t seed = mix_seed(options.seed, job);
    auto sim = timed_job([&] { return setup(seed); }, times);
    gates.check(sim->history(), check_energy);
    if (options.trace && !trace(*sim)) report.checks_passed = false;
  }
  report.attempted = gates.jobs;
  report.failed = gates.failed;
  report.note(gates.summary());
}

}  // namespace

Report run_pic_paper(const Options& options) {
  util::set_max_workers(1);
  Report report;
  JobTimes times;
  Gates gates;
  TradSpans spans;
  auto setup = [](uint64_t seed) {
    auto config = paper_job(seed);
    config.nthreads = 1;
    return std::make_unique<pic::TraditionalPic>(config);
  };
  auto trace = [&spans](const pic::TraditionalPic& sim) {
    return same_particles(traced_traditional(sim.config(), spans), sim.electrons());
  };
  run_jobs(options, setup, trace, /*check_energy=*/false, report, times, gates);

  if (!options.trace) {
    add_end_to_end(report, times);
    return report;
  }
  const double traced_rate = static_cast<double>(spans.steps) / spans.stepping_s;
  report.add("pic.push_ms", spans.push.ms_per_call(), "ms");
  report.add("pic.deposit_ms", spans.deposit.ms_per_call(), "ms");
  report.add("pic.poisson_ms", spans.poisson.ms_per_call(), "ms");
  report.add("pic.efield_ms", spans.efield.ms_per_call(), "ms");
  report.add("pic.diagnostics_ms", spans.diagnostics.ms_per_call(), "ms");
  report.add("pic.sort_ms", spans.sort.ms_per_call(), "ms");
  report.add("pic.sort_calls", static_cast<double>(spans.sort.calls), "count");
  report.add("trace.overhead_ratio", traced_rate / times.pooled_steps_per_s(), "ratio");
  report.note("replica vs TraditionalPic final particles: " +
              std::string(report.checks_passed ? "bitwise equal" : "DIFFERENT"));
  return report;
}

Report run_dlpic_paper(const Options& options) {
  // Serial, like pic_paper (DL-PIC ignores SimulationConfig::nthreads). At
  // 2 workers, pinned or not, identical runs ranged from 65 to 113 steps/s
  // within minutes as the host's load changed; serial runs held within 2%.
  util::set_max_workers(1);
  const std::string bundle = options.workdir + "/dlpic_paper.bundle";
  build_analytic_solver(paper_job(0)).save(bundle);

  Report report;
  JobTimes times;
  Gates gates;
  DlSpans spans;
  std::vector<double> load_s;
  auto setup = [&](uint64_t seed) {
    const auto start = Clock::now();
    auto solver = std::make_shared<core::DlFieldSolver>(core::DlFieldSolver::load(bundle));
    load_s.push_back(seconds_between(start, Clock::now()));
    return std::make_unique<core::DlPicSimulation>(paper_job(seed), std::move(solver));
  };
  auto trace = [&spans](core::DlPicSimulation& sim) {
    std::vector<double> histogram, field;
    auto& solver = sim.field_solver();
    const bool same =
        same_particles(traced_dlpic(sim.config(), solver, spans, histogram, field),
                       sim.electrons());
    // The library's own field solve on the replica's last histogram must
    // give the replica's last field.
    bool solve_same = true;
    for (int r = 0; r < 5; ++r)
      spans.solve_histogram.time(
          [&] { solve_same = solve_same && bitwise_equal(solver.solve_histogram(histogram), field); });
    return same && solve_same;
  };
  run_jobs(options, setup, trace, /*check_energy=*/true, report, times, gates);

  if (!options.trace) {
    add_end_to_end(report, times);
    return report;
  }
  const double particles = static_cast<double>(paper_job(0).total_particles());
  const double traced_rate = static_cast<double>(spans.steps) / spans.stepping_s;
  double forward_s = 0.0, relu_s = 0.0;
  size_t dense = 0;
  for (size_t i = 0; i < spans.layers.size(); ++i) {
    const Span& span = spans.layers[i];
    forward_s += span.total_s;
    if (spans.layer_is_dense[i]) {
      report.add("nn.dense" + std::to_string(dense++) + "_ms", span.ms_per_call(), "ms");
    } else {
      relu_s += span.total_s;
    }
  }
  const double forwards = static_cast<double>(spans.bin.calls);
  const double bytes = spans.forward_bytes;
  report.add("nn.relu_ms", 1e3 * relu_s / forwards, "ms");
  report.add("nn.forward_bytes", bytes, "B");
  report.add("nn.forward_gbps", bytes * forwards / forward_s / 1e9, "GB/s");
  report.add("pic.push_ms", spans.push.ms_per_call(), "ms");
  report.add("pic.diagnostics_ms", spans.diagnostics.ms_per_call(), "ms");
  report.add("phase_space.bin_ms", spans.bin.ms_per_call(), "ms");
  report.add("phase_space.bin_ns_per_particle", 1e6 * spans.bin.ms_per_call() / particles, "ns");
  report.add("phase_space.clamped_share", spans.clamped / (particles * forwards), "ratio");
  report.add("data.normalize_ms", spans.normalize.ms_per_call(), "ms");
  report.add("core.solve_histogram_ms", spans.solve_histogram.ms_per_call(), "ms");
  report.add("core.bundle_load_s", median(load_s), "s");
  report.add("core.bundle_bytes", file_bytes(bundle) + file_bytes(bundle + ".model"), "B");
  report.add("trace.overhead_ratio", traced_rate / times.pooled_steps_per_s(), "ratio");
  report.note("replica vs DlPicSimulation final particles and solve_histogram: " +
              std::string(report.checks_passed ? "bitwise equal" : "DIFFERENT"));
  return report;
}

}  // namespace perfbench
