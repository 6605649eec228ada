/// \file bench_perf_fieldsolver.cpp
/// Quantifies the paper's §VII performance discussion: the DL electric-field
/// solver is a single inference (a few GEMVs) while the traditional field
/// solve is deposition + a linear solve. Compares wall time of:
///   - full traditional field stage (deposit + Poisson + gradient) per solver
///   - DL field stage (phase-space binning + MLP inference)
/// across grid sizes, plus the paper-scale bundle load (a DL-PIC run's
/// setup), using google-benchmark.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <complex>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numbers>
#include <string>

#include "bench_json.hpp"
#include "core/dl_field_solver.hpp"
#include "data/normalizer.hpp"
#include "math/fft_plan.hpp"
#include "math/rng.hpp"
#include "nn/model_zoo.hpp"
#include "pic/deposit.hpp"
#include "pic/efield.hpp"
#include "pic/loader.hpp"
#include "pic/poisson.hpp"

namespace {

using namespace dlpic;

pic::Species make_particles(const pic::Grid1D& grid, size_t ppc) {
  math::Rng rng(555);
  pic::TwoStreamParams p;
  p.v0 = 0.2;
  p.vth = 0.01;
  return pic::load_two_stream(grid, grid.ncells() * ppc, p, rng);
}

/// Traditional field stage: deposit + Poisson + E = -grad(phi).
void bench_traditional_stage(benchmark::State& state, const std::string& solver_name) {
  const size_t ncells = static_cast<size_t>(state.range(0));
  const size_t ppc = 200;
  pic::Grid1D grid(ncells, 2.0 * 3.14159265358979323846 / 3.06);
  auto species = make_particles(grid, ppc);
  auto solver = pic::make_poisson_solver(solver_name);
  std::vector<double> rho, phi, E;
  for (auto _ : state) {
    rho.assign(ncells, 1.0);  // neutralizing background
    pic::deposit_charge(grid, pic::Shape::CIC, species, rho);
    solver->solve(grid, rho, phi);
    pic::efield_from_phi(grid, phi, E);
    benchmark::DoNotOptimize(E.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(species.size()));
  state.counters["ns_per_particle_step"] = benchjson::ns_per_item(species.size());
}

/// DL field stage: phase-space binning + one MLP inference.
void bench_dl_stage(benchmark::State& state) {
  const size_t ncells = static_cast<size_t>(state.range(0));
  const size_t ppc = 200;
  pic::Grid1D grid(ncells, 2.0 * 3.14159265358979323846 / 3.06);
  auto species = make_particles(grid, ppc);

  phase_space::BinnerConfig bc;
  bc.nx = 32;
  bc.nv = 32;
  nn::MlpSpec spec;
  spec.input_dim = bc.nx * bc.nv;
  spec.output_dim = ncells;
  spec.hidden = 128;
  core::DlFieldSolver solver(nn::build_mlp(spec), data::MinMaxNormalizer(0.0, 1000.0), bc);

  for (auto _ : state) {
    auto E = solver.solve(species);
    benchmark::DoNotOptimize(E.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(species.size()));
  state.counters["ns_per_particle_step"] = benchjson::ns_per_item(species.size());
}

/// Paper-scale DL stage: 64x64 histogram, 1024-wide MLP. The `loaded` row
/// saves the solver and loads it back in its setup, as a DL-PIC run does,
/// so its layers hold their weights input-major.
void dl_stage_paper_scale(benchmark::State& state, bool loaded) {
  const size_t ncells = 64;
  pic::Grid1D grid(ncells, 2.0 * 3.14159265358979323846 / 3.06);
  auto species = make_particles(grid, 1000);

  phase_space::BinnerConfig bc;  // 64x64 default
  nn::MlpSpec spec;              // paper defaults: 4096 -> 3x1024 -> 64
  core::DlFieldSolver solver(nn::build_mlp(spec), data::MinMaxNormalizer(0.0, 5000.0), bc);
  if (loaded) {
    const std::string path = (std::filesystem::temp_directory_path() /
                              ("dlpic_bench_stage_" + std::to_string(::getpid()) + ".bin"))
                                 .string();
    solver.save(path);
    solver = core::DlFieldSolver::load(path);
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".model");
  }

  for (auto _ : state) {
    auto E = solver.solve(species);
    benchmark::DoNotOptimize(E.data());
  }
}

void bench_dl_stage_paper_scale(benchmark::State& state) { dl_stage_paper_scale(state, false); }

/// AnonHugePages of this process in MB (/proc/self/smaps_rollup), 0 where
/// the file or the field is missing.
double anon_huge_mb() {
  std::ifstream rollup("/proc/self/smaps_rollup");
  for (std::string key; rollup >> key;) {
    double kb = 0.0;
    if (key == "AnonHugePages:" && rollup >> kb) return kb / 1024.0;
  }
  return 0.0;
}

/// Loading the paper-scale bundle (4096 -> 3x1024 -> 64, ~51 MB): the
/// setup cost of a DL-PIC run. Saved once; each iteration times only
/// DlFieldSolver::load, reported as MB/s of bundle read. `huge_mb` is how
/// much of one untimed load, held alive, landed on transparent huge pages.
void bench_bundle_load_paper_scale(benchmark::State& state) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("dlpic_bench_bundle_" + std::to_string(::getpid()) + ".bin"))
                               .string();
  core::DlFieldSolver(nn::build_mlp(nn::MlpSpec{}), data::MinMaxNormalizer(0.0, 5000.0),
                      phase_space::BinnerConfig{})
      .save(path);
  const double bytes = static_cast<double>(std::filesystem::file_size(path) +
                                           std::filesystem::file_size(path + ".model"));
  {
    const double before = anon_huge_mb();
    const auto held = core::DlFieldSolver::load(path);
    state.counters["huge_mb"] = anon_huge_mb() - before;
  }
  for (auto _ : state) {
    auto solver = core::DlFieldSolver::load(path);
    benchmark::DoNotOptimize(&solver);
  }
  state.counters["MB_per_s"] =
      benchmark::Counter(bytes * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".model");
}

void bench_spectral(benchmark::State& s) { bench_traditional_stage(s, "spectral"); }
void bench_tridiag(benchmark::State& s) { bench_traditional_stage(s, "tridiag"); }

// ---------------------------------------------------------------------------
// FFT-size x backend axis. Arg(0) = transform size, Arg(1) = backend id
// (0 scalar, 1 avx2, 2 avx512 on the planned rows). `bench_fft_legacy_radix2` reconstructs the pre-plan
// transform — per-call twiddle recomputation, std::complex arithmetic, a
// scratch allocation per real transform — as the in-file speedup reference:
// CI gates bench_fft_legacy_radix2/1024 >= 1.5x bench_fft_rfft_planned/1024.

/// The textbook radix-2 the spectral solve used before plans: bit-reverse,
/// then per-stage twiddles from std::polar on every call.
void legacy_radix2(std::vector<std::complex<double>>& data) {
  const size_t n = data.size();
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (size_t len = 2; len <= n; len <<= 1) {
    const double ang = -2.0 * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen = std::polar(1.0, ang);
    for (size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<double> random_signal(size_t n) {
  math::Rng rng(777);
  std::vector<double> sig(n);
  for (auto& s : sig) s = rng.uniform(-1.0, 1.0);
  return sig;
}

/// Legacy real transform: widen to complex (allocating) + per-call radix-2.
void bench_fft_legacy_radix2(benchmark::State& state) {
  benchjson::BackendGuard guard(state, 1);
  if (!guard.run(state)) return;
  const size_t n = static_cast<size_t>(state.range(0));
  const auto sig = random_signal(n);
  for (auto _ : state) {
    std::vector<std::complex<double>> data(sig.begin(), sig.end());
    legacy_radix2(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

/// Planned packed real transform — the spectral solve's production path.
void bench_fft_rfft_planned(benchmark::State& state) {
  benchjson::BackendGuard guard(state, 1);
  if (!guard.run(state)) return;
  const size_t n = static_cast<size_t>(state.range(0));
  const auto sig = random_signal(n);
  const math::FftPlan& plan = math::get_fft_plan(n);
  std::vector<math::cplx> spec(plan.spectrum_size());
  for (auto _ : state) {
    plan.rfft(sig.data(), spec.data());
    benchmark::DoNotOptimize(spec.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

/// Planned complex transform (in-place), any size: the Bluestein sizes cost
/// ~3 pow2 transforms of ~2n, visible as the n=1000 vs n=1024 gap.
void bench_fft_forward_planned(benchmark::State& state) {
  benchjson::BackendGuard guard(state, 1);
  if (!guard.run(state)) return;
  const size_t n = static_cast<size_t>(state.range(0));
  const auto sig = random_signal(n);
  const math::FftPlan& plan = math::get_fft_plan(n);
  std::vector<math::cplx> data(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) data[i] = math::cplx(sig[i], 0.0);
    plan.forward(data.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

}  // namespace

BENCHMARK(bench_spectral)->Arg(64)->Arg(256)->Arg(1000)->Arg(1024);
BENCHMARK(bench_tridiag)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(bench_dl_stage)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(bench_dl_stage_paper_scale);
[[maybe_unused]] benchmark::internal::Benchmark* const kDlStagePaperScaleLoaded =
    benchmark::RegisterBenchmark("bench_dl_stage_paper_scale/loaded",
                                 [](benchmark::State& s) { dl_stage_paper_scale(s, true); });
BENCHMARK(bench_bundle_load_paper_scale)->Unit(benchmark::kMillisecond);
BENCHMARK(bench_fft_legacy_radix2)
    ->ArgsProduct({{64, 256, 1024, 4096}, {0, 1}});
// Backend 2 (avx512, skipped without VNNI) inherits the AVX2 FFT passes,
// so its rows read level with backend 1.
BENCHMARK(bench_fft_rfft_planned)
    ->ArgsProduct({{64, 256, 1000, 1024, 4096}, {0, 1, 2}});
BENCHMARK(bench_fft_forward_planned)
    ->ArgsProduct({{64, 256, 1000, 1024, 4096}, {0, 1, 2}});

DLPIC_BENCHMARK_MAIN("perf_fieldsolver");
