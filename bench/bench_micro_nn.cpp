/// \file bench_micro_nn.cpp
/// Micro-benchmarks of the neural-network substrate (ablation A4): GEMM
/// throughput, dense and conv layer forward/backward, end-to-end MLP
/// inference latency at ci and paper scales, and the ExecutionContext
/// training step (forward + backward through reusable workspace tensors).
/// The *_step benches take a second argument — the worker cap for the
/// context's parallel kernels (1 = serial reference, 0 = all hardware
/// workers) — and a backend argument (0 = scalar, 1 = avx2, 2 = avx512;
/// rows for backends the host lacks are skipped). Compare worker 1 vs 4
/// for the parallel speedup and backend columns for the SIMD speedup.
/// bench_gemm sweeps {size, backend, precision (0=f64, 1=int8, 2=int16)};
/// bench_conv_step additionally sweeps a precision/mode axis (0 = f64
/// train step, 1 = f64 inference forward, 2 = int8 inference, 3 = int16
/// inference) so the quantized conv lowering is on the perf trajectory.

#include <benchmark/benchmark.h>

#include <memory>
#include <optional>

#include "bench_json.hpp"
#include "math/linalg.hpp"
#include "math/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dlpic;

nn::Tensor random_tensor(std::vector<size_t> shape, uint64_t seed) {
  math::Rng rng(seed);
  nn::Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

/// Applies the worker cap from the benchmark's second range argument for
/// the duration of one benchmark, restoring the default afterwards.
class WorkerCapGuard {
 public:
  explicit WorkerCapGuard(benchmark::State& state) : previous_(util::max_workers()) {
    util::set_max_workers(static_cast<size_t>(state.range(1)));
    state.counters["workers"] =
        benchmark::Counter(static_cast<double>(util::parallel_workers()));
  }
  ~WorkerCapGuard() { util::set_max_workers(previous_); }

 private:
  size_t previous_;
};

/// The quantized rows of bench_gemm: B precise-quantized once up front, A
/// fast-quantized inside the timed region.
template <typename Code>
void run_quantized_gemm(benchmark::State& state, size_t n, const std::vector<double>& A,
                        const std::vector<double>& B, std::vector<double>& C) {
  nn::QuantizedMatrix<Code> Bq;
  // quantized_gemm consumes B row-major k-contiguous = B^T of this GEMM;
  // for a throughput bench the transposed random matrix is equivalent.
  nn::quantize_rows_precise(B.data(), n, n, Bq);
  std::vector<Code> Aq(n * n);
  std::vector<double> As(n);
  for (auto _ : state) {
    nn::quantize_rows_fast(A.data(), n, n, Aq.data(), As.data());
    nn::quantized_gemm(n, n, n, Aq.data(), As.data(), Bq.q.data(), Bq.scales.data(),
                       C.data(), n);
    benchmark::DoNotOptimize(C.data());
  }
}

void bench_gemm(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  benchjson::BackendGuard backend(state, 1);
  if (!backend.run(state)) return;
  // Third axis: precision (0 = f64, 1 = int8, 2 = int16). The quantized
  // rows measure the serving-shaped cost — weights (B) precise-quantized
  // once up front, the activation operand (A) fast-quantized inside the
  // timed region, exactly as Dense::forward_quantized pays it per batch.
  const long precision = state.range(2);
  state.counters["precision"] = benchmark::Counter(static_cast<double>(precision));
  math::Rng rng(888);
  std::vector<double> A(n * n), B(n * n), C(n * n);
  for (auto& v : A) v = rng.uniform(-1, 1);
  for (auto& v : B) v = rng.uniform(-1, 1);
  if (precision == 1) {
    run_quantized_gemm<int8_t>(state, n, A, B, C);
  } else if (precision == 2) {
    run_quantized_gemm<int16_t>(state, n, A, B, C);
  } else {
    for (auto _ : state) {
      math::gemm(false, false, n, n, n, 1.0, A.data(), n, B.data(), n, 0.0, C.data(), n);
      benchmark::DoNotOptimize(C.data());
    }
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

void bench_dense_forward(benchmark::State& state) {
  nn::ExecutionContext ctx;
  const size_t width = static_cast<size_t>(state.range(0));
  math::Rng rng(889);
  nn::Dense layer(width, width, rng);
  auto x = random_tensor({64, width}, 1);
  for (auto _ : state) {
    auto y = layer.forward(ctx, x, false);
    benchmark::DoNotOptimize(y.data());
  }
  // One forward GEMM: 2 * batch * in * out FLOPs.
  state.counters["GFLOPS"] =
      benchjson::gflops(2.0 * 64.0 * static_cast<double>(width) * width);
}

// {in, out, batch, occupancy %}: a dense forward at the DL-PIC field
// solve's batch-1 shapes and at serving's small batches (batch <= 32 reads
// the weights in place through the skinny NT GEMM path) against a
// packed-path batch. Occupancy is the share of the input's 4-wide groups
// that hold a nonzero value; the rest are all zero, as in a sparse
// phase-space histogram, and the skinny path skips their weights. The plain
// rows spread single groups evenly; the `runs` rows keep whole 64-value
// runs (16 groups), the way a histogram's occupied velocity rows sit in the
// input. GBps is the weight bytes of the layer per second, whatever the
// kernel read: at batch 1 and 100% the forward is one pass over the
// weights, below 100% it is an effective rate.
void dense_forward_skinny(benchmark::State& state, size_t run_groups) {
  nn::ExecutionContext ctx;
  const size_t in = static_cast<size_t>(state.range(0));
  const size_t out = static_cast<size_t>(state.range(1));
  const size_t batch = static_cast<size_t>(state.range(2));
  const size_t percent = static_cast<size_t>(state.range(3));
  math::Rng rng(892);
  nn::Dense layer(in, out, rng);
  auto x = random_tensor({batch, in}, 7);
  for (size_t i = 0; i < x.size(); ++i) {
    const size_t run = (i % in) / (4 * run_groups);  // one in 100 / percent stays
    if (run * percent % 100 >= percent) x[i] = 0.0;
  }
  for (auto _ : state) {
    auto y = layer.forward(ctx, x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GBps"] = benchmark::Counter(
      static_cast<double>(in * out * sizeof(double)) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}

void bench_dense_forward_skinny(benchmark::State& state) { dense_forward_skinny(state, 1); }

void bench_dense_backward(benchmark::State& state) {
  nn::ExecutionContext ctx;
  const size_t width = static_cast<size_t>(state.range(0));
  math::Rng rng(890);
  nn::Dense layer(width, width, rng);
  auto x = random_tensor({64, width}, 2);
  auto y = layer.forward(ctx, x, true);
  auto g = random_tensor(y.shape(), 3);
  for (auto _ : state) {
    layer.zero_grad();
    auto gin = layer.backward(ctx, g);
    benchmark::DoNotOptimize(gin.data());
  }
  // Two backward GEMMs (dX and dW): 4 * batch * in * out FLOPs.
  state.counters["GFLOPS"] =
      benchjson::gflops(4.0 * 64.0 * static_cast<double>(width) * width);
}

void bench_conv_forward(benchmark::State& state) {
  nn::ExecutionContext ctx;
  const size_t hw = static_cast<size_t>(state.range(0));
  math::Rng rng(891);
  nn::Conv2DConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 8;
  nn::Conv2D layer(cfg, rng);
  auto x = random_tensor({8, 8, hw, hw}, 4);
  for (auto _ : state) {
    auto y = layer.forward(ctx, x, false);
    benchmark::DoNotOptimize(y.data());
  }
}

void bench_mlp_inference_ci(benchmark::State& state) {
  nn::ExecutionContext ctx;
  nn::MlpSpec spec;
  spec.input_dim = 32 * 32;
  spec.output_dim = 64;
  spec.hidden = 128;
  auto model = nn::build_mlp(spec);
  auto x = random_tensor({1, spec.input_dim}, 5);
  for (auto _ : state) {
    auto y = model.predict(ctx, x);
    benchmark::DoNotOptimize(y.data());
  }
}

void bench_mlp_inference_paper(benchmark::State& state) {
  nn::ExecutionContext ctx;
  nn::MlpSpec spec;  // paper scale: 4096 -> 3x1024 -> 64
  auto model = nn::build_mlp(spec);
  auto x = random_tensor({1, spec.input_dim}, 6);
  for (auto _ : state) {
    auto y = model.predict(ctx, x);
    benchmark::DoNotOptimize(y.data());
  }
}

void bench_cnn_inference_ci(benchmark::State& state) {
  nn::ExecutionContext ctx;
  nn::CnnSpec spec;
  spec.input_h = 32;
  spec.input_w = 32;
  spec.output_dim = 64;
  spec.channels1 = 4;
  spec.channels2 = 8;
  spec.hidden = 64;
  auto model = nn::build_cnn(spec);
  auto x = random_tensor({1, spec.input_h * spec.input_w}, 7);
  for (auto _ : state) {
    auto y = model.predict(ctx, x);
    benchmark::DoNotOptimize(y.data());
  }
}

/// Conv2D step through the ExecutionContext workspace path — the
/// acceptance benchmark of the workspace refactor and of the quantized
/// conv lowering. Batch 8, ch->ch channels (fifth argument, default 8 =
/// one block of the ci-scale CNN; 32 = the channel-heavy serving block
/// where the GEMM dominates lowering), 3x3 same-padding. The fourth
/// argument selects the mode: 0 = f64 forward + backward (the legacy
/// training-step row), 1 = f64 inference forward only, 2 = int8
/// inference, 3 = int16 inference. Modes 1-3 share the forward-only
/// loop, so 2-vs-1 (and 3-vs-1) is the serving-shaped speedup of the
/// quantized im2col path — weights precise-quantized once up front in a
/// QuantizedWeightCache, the image fast-quantized and lowered inside the
/// timed region, exactly as serving pays it.
void bench_conv_step(benchmark::State& state) {
  const size_t hw = static_cast<size_t>(state.range(0));
  WorkerCapGuard guard(state);
  benchjson::BackendGuard backend(state, 2);
  if (!backend.run(state)) return;
  const long mode = state.range(3);
  state.counters["precision"] = benchmark::Counter(static_cast<double>(mode));
  const size_t channels = static_cast<size_t>(state.range(4));
  math::Rng rng(892);
  nn::Conv2DConfig cfg;
  cfg.in_channels = channels;
  cfg.out_channels = channels;
  nn::Sequential model;
  model.add(std::make_unique<nn::Conv2D>(cfg, rng));
  nn::Layer& layer = model.layer(0);
  nn::ExecutionContext ctx;
  std::optional<nn::QuantizedWeightCache> cache;
  if (mode == 2 || mode == 3) {
    cache.emplace(model, mode == 2 ? nn::Precision::kInt8 : nn::Precision::kInt16);
    ctx.set_quantized_weights(&*cache);
  }
  auto x = random_tensor({8, channels, hw, hw}, 8);
  if (mode == 0) {
    auto g = random_tensor({8, channels, hw, hw}, 9);
    for (auto _ : state) {
      layer.zero_grad();
      nn::Tensor& y = layer.forward(ctx, x, true);
      benchmark::DoNotOptimize(y.data());
      nn::Tensor& gin = layer.backward(ctx, g);
      benchmark::DoNotOptimize(gin.data());
    }
  } else {
    for (auto _ : state) {
      nn::Tensor& y = layer.forward(ctx, x, false);
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.counters["ns_per_image"] = benchjson::ns_per_item(8);
}

/// Dense forward + backward through the ExecutionContext workspace path.
void bench_dense_step(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  WorkerCapGuard guard(state);
  benchjson::BackendGuard backend(state, 2);
  if (!backend.run(state)) return;
  math::Rng rng(893);
  nn::Dense layer(width, width, rng);
  nn::ExecutionContext ctx;
  auto x = random_tensor({64, width}, 10);
  auto g = random_tensor({64, width}, 11);
  for (auto _ : state) {
    layer.zero_grad();
    nn::Tensor& y = layer.forward(ctx, x, true);
    benchmark::DoNotOptimize(y.data());
    nn::Tensor& gin = layer.backward(ctx, g);
    benchmark::DoNotOptimize(gin.data());
  }
  // One forward + two backward GEMMs: 6 * batch * in * out FLOPs.
  state.counters["GFLOPS"] =
      benchjson::gflops(6.0 * 64.0 * static_cast<double>(width) * width);
}

/// Full training step (forward, MSE, backward, Adam) of the ci-scale MLP
/// on one reusable context — the steady-state hot loop of Trainer::fit.
void bench_mlp_train_step(benchmark::State& state) {
  WorkerCapGuard guard(state);
  benchjson::BackendGuard backend(state, 2);
  if (!backend.run(state)) return;
  nn::MlpSpec spec;
  spec.input_dim = 32 * 32;
  spec.output_dim = 64;
  spec.hidden = 256;
  auto model = nn::build_mlp(spec);
  nn::ExecutionContext ctx;
  nn::MSELoss loss;
  nn::Adam adam(1e-4);
  auto params = model.params();
  auto x = random_tensor({64, spec.input_dim}, 12);
  auto y = random_tensor({64, spec.output_dim}, 13);
  for (auto _ : state) {
    const nn::Tensor& pred = model.forward(ctx, x, true);
    benchmark::DoNotOptimize(loss.forward(pred, y));
    for (auto& p : params) p.grad->zero();
    model.backward(ctx, loss.backward());
    adam.step(params);
  }
  state.counters["ns_per_sample"] = benchjson::ns_per_item(64);
}

}  // namespace

// Backend argument of the swept benches: 0 = scalar, 1 = avx2,
// 2 = avx512; rows for backends the host lacks are skipped.
BENCHMARK(bench_gemm)  // {size, backend, precision (0=f64, 1=int8, 2=int16)}
    ->Args({64, 0, 0})
    ->Args({64, 1, 0})
    ->Args({64, 1, 1})
    ->Args({256, 0, 0})
    ->Args({256, 0, 1})
    ->Args({256, 0, 2})
    ->Args({256, 1, 0})
    ->Args({256, 1, 1})
    ->Args({256, 1, 2})
    ->Args({256, 2, 1})
    ->Args({512, 0, 0})
    ->Args({512, 0, 1})
    ->Args({512, 1, 0})
    ->Args({512, 1, 1})
    ->Args({512, 1, 2})
    ->Args({512, 2, 1})
    // The f64 GEMM fans out over the pool: time (and rate) on the wall
    // clock, not the calling thread's CPU time.
    ->UseRealTime();
BENCHMARK(bench_dense_forward)->Arg(128)->Arg(1024);
// CI gates the 4096 x 1024 batch-1 rows (100% over 3% occupancy >= 2x) and
// the 1024 x 1024 batch-3 over batch-4 time (no cliff at batch 4). The
// 1024 x 128 rows are serve_ci's first layer at its 16% input occupancy.
BENCHMARK(bench_dense_forward_skinny)  // {in, out, batch, occupancy %}
    ->Args({4096, 1024, 1, 100})
    ->Args({4096, 1024, 1, 20})
    ->Args({4096, 1024, 1, 3})
    ->Args({4096, 1024, 4, 100})
    ->Args({1024, 1024, 1, 100})
    ->Args({1024, 1024, 3, 100})
    ->Args({1024, 1024, 4, 100})
    ->Args({1024, 1024, 16, 100})
    ->Args({1024, 1024, 64, 100})
    ->Args({1024, 128, 1, 16})
    ->Args({1024, 128, 4, 16})
    ->Args({1024, 128, 16, 16})
    ->UseRealTime();
[[maybe_unused]] benchmark::internal::Benchmark* const kDenseForwardSkinnyRuns =
    benchmark::RegisterBenchmark("bench_dense_forward_skinny/runs",
                                 [](benchmark::State& s) { dense_forward_skinny(s, 16); })
        ->Args({4096, 1024, 1, 3})
        ->Args({4096, 1024, 1, 16})
        ->UseRealTime();
// {in, out, batch, occupancy %, backend (1 = avx2, 2 = avx512)}: serve_ci's
// batch-12 layer shapes, the sparse first layer and a dense hidden layer,
// on each vector backend (rows for a backend the host lacks are skipped).
// At 4 to 16 rows the avx512 backend runs its own skinny kernel; CI gates
// the avx2:avx512 time ratio of each pair.
[[maybe_unused]] benchmark::internal::Benchmark* const kDenseForwardSkinnyBackends =
    benchmark::RegisterBenchmark("bench_dense_forward_skinny/backend",
                                 [](benchmark::State& s) {
                                   benchjson::BackendGuard backend(s, 4);
                                   if (backend.run(s)) dense_forward_skinny(s, 1);
                                 })
        ->Args({1024, 128, 12, 16, 1})
        ->Args({1024, 128, 12, 16, 2})
        ->Args({128, 128, 12, 100, 1})
        ->Args({128, 128, 12, 100, 2})
        ->UseRealTime();
BENCHMARK(bench_dense_backward)->Arg(128)->Arg(1024);
BENCHMARK(bench_conv_forward)->Arg(16)->Arg(32);
BENCHMARK(bench_mlp_inference_ci);
BENCHMARK(bench_mlp_inference_paper);
BENCHMARK(bench_cnn_inference_ci);
// {shape, worker cap, backend, mode (0=f64 train, 1=f64 infer, 2=int8
// infer, 3=int16 infer), channels}: worker sweep on each backend for the
// training step, plus the serving-shaped precision ladder at worker 1
// and 4. CI compares the {32, 1, 1, 2, 32} row against {32, 1, 1, 1, 32}
// for the int8 conv-forward speedup gate — the channel-heavy serving
// block, where lowering amortizes against the GEMM.
BENCHMARK(bench_conv_step)
    ->Args({32, 1, 0, 0, 8})
    ->Args({32, 1, 1, 0, 8})
    ->Args({32, 2, 0, 0, 8})
    ->Args({32, 4, 0, 0, 8})
    ->Args({32, 4, 1, 0, 8})
    ->Args({32, 0, 1, 0, 8})
    ->Args({64, 1, 0, 0, 8})
    ->Args({64, 1, 1, 0, 8})
    ->Args({64, 4, 1, 0, 8})
    ->Args({32, 1, 0, 2, 8})
    ->Args({32, 1, 1, 1, 8})
    ->Args({32, 1, 1, 2, 8})
    ->Args({32, 1, 1, 3, 8})
    ->Args({32, 1, 2, 2, 8})
    ->Args({32, 4, 1, 1, 8})
    ->Args({32, 4, 1, 2, 8})
    ->Args({32, 1, 1, 1, 32})
    ->Args({32, 1, 1, 2, 32})
    ->Args({32, 1, 1, 3, 32})
    ->Args({32, 1, 2, 2, 32})
    ->Args({64, 1, 1, 1, 8})
    ->Args({64, 1, 1, 2, 8})
    ->Args({64, 1, 1, 3, 8});
BENCHMARK(bench_dense_step)
    ->Args({1024, 1, 0})
    ->Args({1024, 1, 1})
    ->Args({1024, 4, 0})
    ->Args({1024, 4, 1})
    ->Args({1024, 0, 1});
BENCHMARK(bench_mlp_train_step)
    ->Args({0, 1, 0})
    ->Args({0, 1, 1})
    ->Args({0, 4, 0})
    ->Args({0, 4, 1})
    ->Args({0, 0, 1});

DLPIC_BENCHMARK_MAIN("micro_nn");
