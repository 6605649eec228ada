/// \file bench_micro_pic.cpp
/// Micro-benchmarks of the PIC substrate kernels (ablation A3): charge
/// deposition and field gather per shape order, leap-frog push, Poisson
/// solvers across grid sizes, and phase-space binning per order (NGP also
/// per backend).
///
/// The particle kernels take a second argument — the worker cap for
/// dlpic::util parallel loops (1 = the serial reference path, 0 = all
/// hardware workers) — and a third selecting the kernel backend (0 =
/// scalar, 1 = avx2; avx2 rows are skipped on hosts without it).
/// ns/particle-step is exported as a counter and the whole table is
/// mirrored into BENCH_micro_pic.json.

#include <benchmark/benchmark.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "bench_json.hpp"
#include "math/rng.hpp"
#include "phase_space/binner.hpp"
#include "pic/deposit.hpp"
#include "pic/gather.hpp"
#include "pic/loader.hpp"
#include "pic/mover.hpp"
#include "pic/poisson.hpp"
#include "pic/sorter.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dlpic;

constexpr double kBoxLength = 2.0534;  // 2*pi/3.06

pic::Species make_species(const pic::Grid1D& grid, size_t count) {
  math::Rng rng(777);
  pic::TwoStreamParams p;
  p.v0 = 0.2;
  p.vth = 0.01;
  return pic::load_two_stream(grid, count, p, rng);
}

/// Applies the worker cap from the benchmark's second range argument for
/// the duration of one benchmark, restoring the default afterwards.
class WorkerCapGuard {
 public:
  explicit WorkerCapGuard(benchmark::State& state)
      : previous_(util::max_workers()) {
    util::set_max_workers(static_cast<size_t>(state.range(1)));
    state.counters["workers"] =
        benchmark::Counter(static_cast<double>(util::parallel_workers()));
  }
  ~WorkerCapGuard() { util::set_max_workers(previous_); }

 private:
  size_t previous_;
};

void bench_deposit(benchmark::State& state, pic::Shape shape) {
  pic::Grid1D grid(64, kBoxLength);
  const size_t nparticles = static_cast<size_t>(state.range(0));
  auto species = make_species(grid, nparticles);
  auto rho = grid.make_field();
  WorkerCapGuard cap(state);
  benchjson::BackendGuard backend(state, 2);
  if (!backend.run(state)) return;
  for (auto _ : state) {
    rho.assign(rho.size(), 0.0);
    pic::deposit_charge(grid, shape, species, rho);
    benchmark::DoNotOptimize(rho.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.counters["ns_per_particle_step"] = benchjson::ns_per_item(nparticles);
}

void bench_deposit_ngp(benchmark::State& s) { bench_deposit(s, pic::Shape::NGP); }
void bench_deposit_cic(benchmark::State& s) { bench_deposit(s, pic::Shape::CIC); }
void bench_deposit_tsc(benchmark::State& s) { bench_deposit(s, pic::Shape::TSC); }

void bench_gather(benchmark::State& state, pic::Shape shape) {
  pic::Grid1D grid(64, kBoxLength);
  const size_t nparticles = static_cast<size_t>(state.range(0));
  auto species = make_species(grid, nparticles);
  std::vector<double> E(64, 0.01), Ep;
  WorkerCapGuard cap(state);
  benchjson::BackendGuard backend(state, 2);
  if (!backend.run(state)) return;
  for (auto _ : state) {
    pic::gather_to_particles(grid, shape, E, species, Ep);
    benchmark::DoNotOptimize(Ep.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.counters["ns_per_particle_step"] = benchjson::ns_per_item(nparticles);
}

void bench_gather_ngp(benchmark::State& s) { bench_gather(s, pic::Shape::NGP); }
void bench_gather_cic(benchmark::State& s) { bench_gather(s, pic::Shape::CIC); }
void bench_gather_tsc(benchmark::State& s) { bench_gather(s, pic::Shape::TSC); }

/// Leap-frog push in the field E. Particles keep their state across
/// iterations, so the field decides what a long run times.
void bench_leapfrog(benchmark::State& state, pic::Shape shape, const std::vector<double>& E) {
  pic::Grid1D grid(64, kBoxLength);
  const size_t nparticles = static_cast<size_t>(state.range(0));
  auto species = make_species(grid, nparticles);
  WorkerCapGuard cap(state);
  benchjson::BackendGuard backend(state, 2);
  if (!backend.run(state)) return;
  for (auto _ : state) {
    pic::leapfrog_step(grid, shape, E, species, 0.2);
    benchmark::DoNotOptimize(species.x().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.counters["ns_per_particle_step"] = benchjson::ns_per_item(nparticles);
}

/// Uniform E = 0.01: every iteration adds qm*dt*E to every velocity, so the
/// longer a row runs, the more of its pushes leave the box and take the
/// fmod wrap, a state no simulation reaches. These rows time that growing
/// out-of-box share; bench_leapfrog_bounded_cic times the in-box push.
const std::vector<double> kUniformField(64, 0.01);

void bench_leapfrog_cic(benchmark::State& s) {
  bench_leapfrog(s, pic::Shape::CIC, kUniformField);
}
void bench_leapfrog_tsc(benchmark::State& s) {
  bench_leapfrog(s, pic::Shape::TSC, kUniformField);
}

/// Zero-mean E = 0.01 sin(2 pi i / 64): a static potential that keeps every
/// velocity bounded, so each push moves a particle by about v*dt as in a
/// simulation step, and almost all of them stay in the box.
const std::vector<double> kZeroMeanField = [] {
  std::vector<double> E(64);
  for (size_t i = 0; i < E.size(); ++i)
    E[i] = 0.01 * std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 64.0);
  return E;
}();

void bench_leapfrog_bounded_cic(benchmark::State& s) {
  bench_leapfrog(s, pic::Shape::CIC, kZeroMeanField);
}

/// One full particle phase (leapfrog + deposit) — the quantity the
/// acceptance criterion tracks — including the periodic cell sort.
void bench_particle_phase(benchmark::State& state) {
  pic::Grid1D grid(64, kBoxLength);
  const size_t nparticles = static_cast<size_t>(state.range(0));
  auto species = make_species(grid, nparticles);
  std::vector<double> E(64, 0.01);
  auto rho = grid.make_field();
  WorkerCapGuard cap(state);
  benchjson::BackendGuard backend(state, 2);
  if (!backend.run(state)) return;
  size_t step = 0;
  for (auto _ : state) {
    if (step > 0 && step % 25 == 0) pic::sort_by_cell(grid, species);
    pic::leapfrog_step(grid, pic::Shape::CIC, E, species, 0.2);
    rho.assign(rho.size(), 0.0);
    pic::deposit_charge(grid, pic::Shape::CIC, species, rho);
    benchmark::DoNotOptimize(rho.data());
    ++step;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.counters["ns_per_particle_step"] = benchjson::ns_per_item(nparticles);
}

void bench_sort_by_cell(benchmark::State& state) {
  pic::Grid1D grid(64, kBoxLength);
  const size_t nparticles = static_cast<size_t>(state.range(0));
  auto species = make_species(grid, nparticles);
  for (auto _ : state) {
    pic::sort_by_cell(grid, species);
    benchmark::DoNotOptimize(species.x().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.counters["ns_per_particle_step"] = benchjson::ns_per_item(nparticles);
}

void bench_poisson(benchmark::State& state, const std::string& name) {
  const size_t n = static_cast<size_t>(state.range(0));
  pic::Grid1D grid(n, kBoxLength);
  auto solver = pic::make_poisson_solver(name);
  std::vector<double> rho(n), phi;
  for (size_t i = 0; i < n; ++i)
    rho[i] = std::sin(grid.mode_wavenumber(1) * grid.node_position(i)) +
             0.2 * std::sin(grid.mode_wavenumber(5) * grid.node_position(i));
  for (auto _ : state) {
    solver->solve(grid, rho, phi);
    benchmark::DoNotOptimize(phi.data());
  }
}

void bench_poisson_spectral(benchmark::State& s) { bench_poisson(s, "spectral"); }
void bench_poisson_tridiag(benchmark::State& s) { bench_poisson(s, "tridiag"); }

void bench_binner(benchmark::State& state, phase_space::BinningOrder order) {
  pic::Grid1D grid(64, kBoxLength);
  auto species = make_species(grid, static_cast<size_t>(state.range(0)));
  phase_space::BinnerConfig bc;
  bc.nx = 64;
  bc.nv = 64;
  bc.order = order;
  phase_space::PhaseSpaceBinner binner(bc);
  for (auto _ : state) {
    auto hist = binner.bin(species);
    benchmark::DoNotOptimize(hist.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.counters["ns_per_particle_step"] = benchjson::ns_per_item(species.size());
}

/// {particles, backend}: NGP binning is a backend kernel.
void bench_binner_ngp(benchmark::State& s) {
  benchjson::BackendGuard backend(s, 1);
  if (!backend.run(s)) return;
  bench_binner(s, phase_space::BinningOrder::NGP);
}
void bench_binner_cic(benchmark::State& s) {
  bench_binner(s, phase_space::BinningOrder::CIC);
}

}  // namespace

// {particles, worker cap, backend}: worker sweep on the scalar backend plus
// serial/parallel avx2 points (1 = serial reference, 0 = all hardware).
#define DLPIC_THREAD_SWEEP(fn)   \
  BENCHMARK(fn)                  \
      ->Args({64000, 1, 0})      \
      ->Args({64000, 1, 1})      \
      ->Args({64000, 2, 0})      \
      ->Args({64000, 4, 0})      \
      ->Args({64000, 4, 1})      \
      ->Args({64000, 0, 0})      \
      ->Args({64000, 0, 1})

DLPIC_THREAD_SWEEP(bench_deposit_ngp);
DLPIC_THREAD_SWEEP(bench_deposit_cic);
DLPIC_THREAD_SWEEP(bench_deposit_tsc);
DLPIC_THREAD_SWEEP(bench_gather_ngp);
DLPIC_THREAD_SWEEP(bench_gather_cic);
DLPIC_THREAD_SWEEP(bench_gather_tsc);
DLPIC_THREAD_SWEEP(bench_leapfrog_cic);
DLPIC_THREAD_SWEEP(bench_leapfrog_tsc);
DLPIC_THREAD_SWEEP(bench_leapfrog_bounded_cic);
DLPIC_THREAD_SWEEP(bench_particle_phase);
BENCHMARK(bench_sort_by_cell)->Arg(64000);
BENCHMARK(bench_poisson_spectral)->Arg(64)->Arg(1024);
BENCHMARK(bench_poisson_tridiag)->Arg(64)->Arg(1024);
BENCHMARK(bench_binner_ngp)->Args({64000, 0})->Args({64000, 1});
BENCHMARK(bench_binner_cic)->Arg(64000);

DLPIC_BENCHMARK_MAIN("micro_pic");
