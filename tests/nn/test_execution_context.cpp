/// \file test_execution_context.cpp
/// ExecutionContext/Workspace semantics: buffer reuse and pointer
/// stability, gradient checks of conv2d/dense/maxpool2d through the
/// workspace path at several worker widths, and the zero-steady-state-
/// allocation guarantee of the training hot loop (verified by counting
/// global operator new calls).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>

#include "math/fft.hpp"
#include "math/linalg.hpp"
#include "math/rng.hpp"
#include "nn/backend.hpp"
#include "nn/conv2d.hpp"
#include "pic/efield.hpp"
#include "pic/simulation.hpp"
#include "nn/dense.hpp"
#include "nn/execution_context.hpp"
#include "nn/gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/maxpool2d.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. Counting (not size-tracking) is enough: the
// steady-state assertion is "no calls at all".
//
// GCC cross-matches this malloc-backed operator new with the sized operator
// delete through inlined gtest code and reports a mismatched pair; the pair
// is in fact consistent (every new -> malloc, every delete -> free), so the
// warning is a false positive for this TU. Not popped: the diagnostic is
// attributed to the definitions below from instantiations anywhere in the
// file.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
static std::atomic<size_t> g_alloc_count{0};

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace {

using namespace dlpic;
using namespace dlpic::nn;

Tensor random_tensor(std::vector<size_t> shape, uint64_t seed) {
  math::Rng rng(seed);
  Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

TEST(Workspace, SlotReuseIsStableAndGrowOnly) {
  Workspace ws;
  int owner_a = 0, owner_b = 0;
  Tensor& t1 = ws.tensor(&owner_a, 0, {4, 8});
  t1.fill(3.0);
  const double* p1 = t1.data();

  // Same key, same shape -> same storage, contents preserved.
  Tensor& t2 = ws.tensor(&owner_a, 0, {4, 8});
  EXPECT_EQ(&t1, &t2);
  EXPECT_EQ(p1, t2.data());
  EXPECT_DOUBLE_EQ(t2[0], 3.0);

  // Different slot / owner -> different storage.
  Tensor& t3 = ws.tensor(&owner_a, 1, {4, 8});
  Tensor& t4 = ws.tensor(&owner_b, 0, {4, 8});
  EXPECT_NE(&t1, &t3);
  EXPECT_NE(&t1, &t4);

  // Shrinking keeps capacity: growing back to the original shape must not
  // move the buffer.
  ws.tensor(&owner_a, 0, {2, 8});
  Tensor& t5 = ws.tensor(&owner_a, 0, {4, 8});
  EXPECT_EQ(p1, t5.data());

  EXPECT_GT(ws.bytes(), 0u);
  ws.clear();
  EXPECT_EQ(ws.bytes(), 0u);
}

TEST(Workspace, PeekDoesNotReshape) {
  Workspace ws;
  int owner = 0;
  ws.tensor(&owner, 0, {3, 5}).fill(1.5);
  Tensor& t = ws.peek(&owner, 0);
  EXPECT_EQ(t.shape(), (std::vector<size_t>{3, 5}));
  EXPECT_DOUBLE_EQ(t[0], 1.5);
}

TEST(ExecutionContext, LayerOutputsLiveInTheContext) {
  math::Rng rng(41);
  Dense layer(6, 3, rng);
  ExecutionContext ctx_a, ctx_b;
  auto x = random_tensor({2, 6}, 7);
  Tensor& ya = layer.forward(ctx_a, x, false);
  Tensor& yb = layer.forward(ctx_b, x, false);
  EXPECT_NE(&ya, &yb);  // one activation set per context
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya[i], yb[i]);
}

// Gradcheck through the workspace path at several worker widths. The width
// only changes the dispatch, never the result, so tight tolerances hold.
class GradcheckWidth : public ::testing::TestWithParam<size_t> {};

TEST_P(GradcheckWidth, DenseThroughWorkspace) {
  util::ScopedMaxWorkers cap(GetParam());
  ExecutionContext ctx;
  MlpSpec spec;
  spec.input_dim = 6;
  spec.output_dim = 3;
  spec.hidden = 5;
  spec.depth = 2;
  Sequential model = build_mlp(spec);
  auto x = random_tensor({3, 6}, 11);
  auto y = random_tensor({3, 3}, 12);
  auto result = check_gradients(model, x, y, 1e-5, 1e-5, 1e-7, &ctx);
  EXPECT_TRUE(result.ok) << "param err " << result.max_param_rel_error << ", input err "
                         << result.max_input_rel_error;
}

TEST_P(GradcheckWidth, ConvMaxPoolThroughWorkspace) {
  util::ScopedMaxWorkers cap(GetParam());
  ExecutionContext ctx;
  CnnSpec spec;
  spec.input_h = 8;
  spec.input_w = 8;
  spec.output_dim = 4;
  spec.channels1 = 2;
  spec.channels2 = 3;
  spec.hidden = 6;
  Sequential model = build_cnn(spec);
  auto x = random_tensor({2, 64}, 13);
  auto y = random_tensor({2, 4}, 14);
  auto result = check_gradients(model, x, y, 1e-5, 2e-5, 1e-7, &ctx);
  EXPECT_TRUE(result.ok) << "param err " << result.max_param_rel_error << ", input err "
                         << result.max_input_rel_error;
}

INSTANTIATE_TEST_SUITE_P(Widths, GradcheckWidth, ::testing::Values(1, 4));

// The acceptance criterion of the workspace refactor: after warmup, a
// training step (forward + loss + backward + optimizer) performs ZERO heap
// allocations. Serial width keeps the thread pool out of the measurement —
// pool task dispatch is outside the workspace contract.
TEST(ZeroAllocation, DenseAndConvStepSteadyState) {
  util::ScopedMaxWorkers cap(1);
  math::Rng rng(42);
  Dense dense(32, 16, rng);
  Conv2DConfig ccfg;
  ccfg.in_channels = 2;
  ccfg.out_channels = 3;
  Conv2D conv(ccfg, rng);
  ExecutionContext ctx;
  auto xd = random_tensor({8, 32}, 21);
  auto gd = random_tensor({8, 16}, 22);
  auto xc = random_tensor({4, 2, 8, 8}, 23);
  auto gc = random_tensor({4, 3, 8, 8}, 24);

  auto step = [&] {
    dense.zero_grad();
    Tensor& yd = dense.forward(ctx, xd, true);
    (void)yd;
    dense.backward(ctx, gd);
    conv.zero_grad();
    Tensor& yc = conv.forward(ctx, xc, true);
    (void)yc;
    conv.backward(ctx, gc);
  };
  for (int i = 0; i < 3; ++i) step();  // warm the workspace + GEMM buffers

  const size_t before = g_alloc_count.load();
  for (int i = 0; i < 10; ++i) step();
  const size_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "steady-state layer steps allocated";
}

TEST(ZeroAllocation, FullTrainingStepSteadyState) {
  util::ScopedMaxWorkers cap(1);
  MlpSpec spec;
  spec.input_dim = 24;
  spec.output_dim = 6;
  spec.hidden = 16;
  Sequential model = build_mlp(spec);
  ExecutionContext ctx;
  MSELoss loss;
  Adam adam(1e-3);
  auto params = model.params();
  auto x = random_tensor({16, 24}, 31);
  auto y = random_tensor({16, 6}, 32);

  auto step = [&] {
    const Tensor& pred = model.forward(ctx, x, true);
    loss.forward(pred, y);
    for (auto& p : params) p.grad->zero();
    model.backward(ctx, loss.backward());
    adam.step(params);
  };
  for (int i = 0; i < 3; ++i) step();

  const size_t before = g_alloc_count.load();
  for (int i = 0; i < 20; ++i) step();
  const size_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "steady-state training steps allocated";
}

// Serving's steady state: a batch-12 inference forward of the CI MLP
// (1024 -> 3 x 128 -> 64, the serve_ci shape) allocates nothing once the
// context is warm, on every backend. Inference forwards read their input in
// place, so no layer touches the backward cache either.
TEST(ZeroAllocation, InferenceForwardBatch12SteadyState) {
  util::ScopedMaxWorkers cap(1);
  MlpSpec spec;
  spec.input_dim = 32 * 32;
  spec.output_dim = 64;
  spec.hidden = 128;
  Sequential model = build_mlp(spec);
  const auto x = random_tensor({12, spec.input_dim}, 33);
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    const KernelBackend* be = backend_by_name(name);
    if (be == nullptr) continue;
    ExecutionContext ctx(0, be);
    for (int i = 0; i < 3; ++i) (void)model.forward(ctx, x, false);

    const size_t before = g_alloc_count.load();
    for (int i = 0; i < 10; ++i) (void)model.forward(ctx, x, false);
    const size_t after = g_alloc_count.load();
    EXPECT_EQ(after - before, 0u) << name << ": steady-state inference forwards allocated";
  }
}

// A loaded model holds its dense weights input-major, so its small-batch
// forwards run the in-place NN kernel: after the first inference forward
// nothing allocates, at batch 1 (the DL-PIC field solve) and at batch 16 (a
// served batch), on every backend.
TEST(ZeroAllocation, LoadedModelInferenceForwardSteadyState) {
  util::ScopedMaxWorkers cap(1);
  MlpSpec spec;
  spec.input_dim = 32 * 32;
  spec.output_dim = 64;
  spec.hidden = 128;
  const std::string path = testing::TempDir() + "/dlpic_zero_alloc_loaded.bin";
  build_mlp(spec).save(path);
  Sequential model = Sequential::load_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(dynamic_cast<Dense&>(model.layer(0)).input_major());
  for (const size_t batch : {1, 16}) {
    auto x = random_tensor({batch, spec.input_dim}, 35 + batch);
    for (size_t i = 0; i < x.size(); ++i)  // a sparse histogram-like input
      if (i % 7 != 0) x[i] = 0.0;
    for (const char* name : {"scalar", "avx2", "avx512"}) {
      const KernelBackend* be = backend_by_name(name);
      if (be == nullptr) continue;
      ExecutionContext ctx(0, be);
      (void)model.forward(ctx, x, false);

      const size_t before = g_alloc_count.load();
      for (int i = 0; i < 10; ++i) (void)model.forward(ctx, x, false);
      const size_t after = g_alloc_count.load();
      EXPECT_EQ(after - before, 0u)
          << name << " batch " << batch << ": loaded-model inference forwards allocated";
    }
  }
}

// An inference forward leaves no cached input behind: a backward after it
// throws instead of reading the slot of an older training forward, and the
// forward's output is bitwise the training forward's.
TEST(ExecutionContext, BackwardAfterInferenceForwardThrows) {
  math::Rng rng(44);
  Dense dense(12, 5, rng);
  Conv2DConfig ccfg;
  ccfg.in_channels = 2;
  ccfg.out_channels = 3;
  Conv2D conv(ccfg, rng);
  ExecutionContext ctx;
  const auto xd = random_tensor({4, 12}, 45);
  const auto gd = random_tensor({4, 5}, 46);
  const auto xc = random_tensor({2, 2, 6, 6}, 47);
  const auto gc = random_tensor({2, 3, 6, 6}, 48);

  const Tensor yd_train = dense.forward(ctx, xd, true);
  EXPECT_NO_THROW(dense.backward(ctx, gd));
  const Tensor yd_infer = dense.forward(ctx, xd, false);
  EXPECT_EQ(yd_train.vec(), yd_infer.vec());
  EXPECT_THROW(dense.backward(ctx, gd), std::runtime_error);
  (void)dense.forward(ctx, xd, true);
  EXPECT_NO_THROW(dense.backward(ctx, gd));

  const Tensor yc_train = conv.forward(ctx, xc, true);
  EXPECT_NO_THROW(conv.backward(ctx, gc));
  const Tensor yc_infer = conv.forward(ctx, xc, false);
  EXPECT_EQ(yc_train.vec(), yc_infer.vec());
  EXPECT_THROW(conv.backward(ctx, gc), std::runtime_error);
  (void)conv.forward(ctx, xc, true);
  EXPECT_NO_THROW(conv.backward(ctx, gc));
}

// Touches every per-thread lazily-constructed buffer on every pool worker:
// each task blocks until all N are claimed (so N distinct threads hold one),
// then runs a tiny GEMM that constructs the thread's pack buffers.
void warm_pool_thread_locals() {
  auto& pool = dlpic::util::ThreadPool::global();
  const size_t n = pool.size();
  std::atomic<size_t> arrived{0};
  for (size_t t = 0; t < n; ++t) {
    pool.submit([&arrived, n] {
      arrived.fetch_add(1);
      while (arrived.load() < n) std::this_thread::yield();
      double a = 1.0, b = 1.0, c = 0.0;
      math::gemm(false, false, 1, 1, 1, 1.0, &a, 1, &b, 1, 0.0, &c, 1);
    });
  }
  pool.wait_idle();
}

// The PR-4 acceptance criterion: parallel dispatch itself is allocation-
// free. ThreadPool::submit stores closures in inline ring slots (no
// std::function, no heap), so a steady-state training step stays at zero
// allocations even when every layer kernel fans out over the pool.
TEST(ZeroAllocation, ParallelTrainingStepSteadyState) {
  util::ThreadPool::global().resize(4);
  util::ScopedMaxWorkers cap(4);
  // Large enough that the GEMMs span several output tiles and the Adam
  // update spans several element chunks — i.e. dispatch really fans out.
  MlpSpec spec;
  spec.input_dim = 256;
  spec.output_dim = 64;
  spec.hidden = 256;
  Sequential model = build_mlp(spec);
  ExecutionContext ctx;
  MSELoss loss;
  Adam adam(1e-3);
  auto params = model.params();
  auto x = random_tensor({64, 256}, 31);
  auto y = random_tensor({64, 64}, 32);

  auto step = [&] {
    const Tensor& pred = model.forward(ctx, x, true);
    loss.forward(pred, y);
    for (auto& p : params) p.grad->zero();
    model.backward(ctx, loss.backward());
    adam.step(params);
  };
  warm_pool_thread_locals();
  for (int i = 0; i < 5; ++i) step();  // warm workspace + per-thread buffers

  const size_t before = g_alloc_count.load();
  for (int i = 0; i < 20; ++i) step();
  const size_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state parallel training steps allocated (task submission "
         "must not heap-allocate)";
  util::ThreadPool::global().resize(0);
}

// A steady-state traditional PIC step — fused leapfrog push, parallel
// deposit (per-worker scratch reused across calls), Poisson solve (solver-
// owned work buffers), E-field derivation, diagnostics/history and the
// periodic counting sort (loop-owned scratch swapped with the particle
// arrays) — must perform ZERO heap allocations. Parallel width so
// the deposit really uses the multi-buffer scratch path; the measured steps
// cross two sort boundaries.
TEST(ZeroAllocation, SteadyStatePicStepParallel) {
  util::ThreadPool::global().resize(4);
  pic::SimulationConfig cfg;
  cfg.ncells = 64;
  cfg.particles_per_cell = 256;  // 16384 particles: several deposit buffers
  cfg.nsteps = 16;               // bounds the history reserve
  cfg.nthreads = 4;
  cfg.sort_interval = 2;  // sorts before steps 3, 5 and 7
  pic::TraditionalPic sim(cfg);
  warm_pool_thread_locals();
  for (int i = 0; i < 3; ++i) sim.step();  // warm scratch/solver/history

  const size_t before = g_alloc_count.load();
  for (int i = 0; i < 5; ++i) sim.step();
  const size_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "steady-state PIC steps allocated";
  util::ThreadPool::global().resize(0);
}

// The interchangeable Poisson solvers reuse their work buffers: a
// steady-state solve at a fixed grid size allocates nothing.
TEST(ZeroAllocation, PoissonSolversSteadyState) {
  util::ScopedMaxWorkers cap(1);
  pic::Grid1D grid(64, 2.0);
  math::Rng rng(3);
  std::vector<double> rho(64), phi;
  for (auto& r : rho) r = rng.uniform(-1.0, 1.0);
  for (const char* name : {"spectral", "spectral-discrete", "tridiag"}) {
    auto solver = dlpic::pic::make_poisson_solver(name);
    for (int i = 0; i < 2; ++i) solver->solve(grid, rho, phi);  // warm buffers
    const size_t before = g_alloc_count.load();
    for (int i = 0; i < 5; ++i) solver->solve(grid, rho, phi);
    const size_t after = g_alloc_count.load();
    EXPECT_EQ(after - before, 0u) << "steady-state " << name << " solve allocated";
  }
}

// The plan-based FFT engine extends the spectral guarantee to every grid
// size: non-power-of-two (Bluestein) solves, the spectral E-field
// derivation, and the Goertzel mode diagnostic are all allocation-free once
// plans and grow-only scratch are warm.
TEST(ZeroAllocation, SpectralFieldSolveSteadyStateNonPow2) {
  util::ScopedMaxWorkers cap(1);
  math::Rng rng(5);
  for (const size_t n : {size_t(96), size_t(100), size_t(128)}) {
    pic::Grid1D grid(n, 2.0);
    std::vector<double> rho(n), phi, E;
    for (auto& r : rho) r = rng.uniform(-1.0, 1.0);
    for (const char* name : {"spectral", "spectral-discrete"}) {
      auto solver = dlpic::pic::make_poisson_solver(name);
      for (int i = 0; i < 2; ++i) {  // warm plans + solver/thread scratch
        solver->solve(grid, rho, phi);
        pic::efield_from_phi_spectral(grid, phi, E);
        (void)math::mode_amplitude(E, 1);
      }
      const size_t before = g_alloc_count.load();
      for (int i = 0; i < 5; ++i) {
        solver->solve(grid, rho, phi);
        pic::efield_from_phi_spectral(grid, phi, E);
        (void)math::mode_amplitude(E, 1);
      }
      const size_t after = g_alloc_count.load();
      EXPECT_EQ(after - before, 0u)
          << "steady-state " << name << " field solve at n=" << n << " allocated";
    }
  }
}

}  // namespace
