#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/dl_field_solver.hpp"
#include "math/rng.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"

// Allocation probe: while armed, global operator new records the largest
// single request and the total bytes requested. Every new maps to malloc and
// every delete to free, so the pairs are consistent (see the matching note
// in test_execution_context.cpp on GCC's mismatched-pair warning).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
static std::atomic<bool> g_probe_armed{false};
static std::atomic<size_t> g_probe_largest{0};
static std::atomic<size_t> g_probe_total{0};

static void* probed_malloc(std::size_t n) {
  if (g_probe_armed.load(std::memory_order_relaxed)) {
    g_probe_total.fetch_add(n, std::memory_order_relaxed);
    size_t seen = g_probe_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_probe_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n) { return probed_malloc(n); }
void* operator new[](std::size_t n) { return probed_malloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dlpic::nn;
using dlpic::math::Rng;

struct Allocations {
  size_t largest = 0;
  size_t total = 0;
};

/// Runs `fn` with the allocation probe armed.
Allocations probe_allocations(const std::function<void()>& fn) {
  g_probe_largest = 0;
  g_probe_total = 0;
  g_probe_armed = true;
  fn();
  g_probe_armed = false;
  return {g_probe_largest.load(), g_probe_total.load()};
}

Tensor random_tensor(std::vector<size_t> shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

TEST(Serialize, MlpRoundTripPredictsIdentically) {
  ExecutionContext ctx;
  MlpSpec spec;
  spec.input_dim = 16;
  spec.output_dim = 4;
  spec.hidden = 8;
  Sequential model = build_mlp(spec);
  Tensor x = random_tensor({3, 16}, 131);
  Tensor before = model.predict(ctx, x);

  const std::string path = testing::TempDir() + "/dlpic_mlp.bin";
  model.save(path);
  Sequential loaded = Sequential::load_file(path);
  Tensor after = loaded.predict(ctx, x);

  ASSERT_TRUE(before.same_shape(after));
  for (size_t i = 0; i < before.size(); ++i) EXPECT_DOUBLE_EQ(before[i], after[i]);
  std::remove(path.c_str());
}

TEST(Serialize, CnnRoundTripPredictsIdentically) {
  ExecutionContext ctx;
  CnnSpec spec;
  spec.input_h = 8;
  spec.input_w = 8;
  spec.output_dim = 4;
  spec.channels1 = 2;
  spec.channels2 = 3;
  spec.hidden = 8;
  Sequential model = build_cnn(spec);
  Tensor x = random_tensor({2, 64}, 132);
  Tensor before = model.predict(ctx, x);

  const std::string path = testing::TempDir() + "/dlpic_cnn.bin";
  model.save(path);
  Sequential loaded = Sequential::load_file(path);
  Tensor after = loaded.predict(ctx, x);

  ASSERT_TRUE(before.same_shape(after));
  for (size_t i = 0; i < before.size(); ++i) EXPECT_DOUBLE_EQ(before[i], after[i]);
  std::remove(path.c_str());
}

TEST(Serialize, BadMagicThrows) {
  const std::string path = testing::TempDir() + "/dlpic_bad_model.bin";
  {
    dlpic::util::BinaryWriter w(path);
    w.write_u32(0x12345678);
    w.write_u32(1);
    w.write_u64(0);
  }
  EXPECT_THROW(Sequential::load_file(path), std::runtime_error);
  std::remove(path.c_str());
}

// A bundle holding a NaN or an infinity in any weight or bias is rejected at
// load, so every loaded model meets the finite-weight precondition of the
// skinny dense kernel's zero-input skip.
TEST(Serialize, NonFiniteParameterThrows) {
  MlpSpec mlp;
  mlp.input_dim = 16;
  mlp.output_dim = 4;
  mlp.hidden = 8;
  CnnSpec cnn;
  cnn.input_h = 8;
  cnn.input_w = 8;
  cnn.output_dim = 4;
  cnn.channels1 = 2;
  cnn.channels2 = 3;
  cnn.hidden = 8;
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  const std::string path = testing::TempDir() + "/dlpic_nonfinite_model.bin";
  for (const bool conv : {false, true}) {
    const size_t n_params = (conv ? build_cnn(cnn) : build_mlp(mlp)).params().size();
    for (size_t i = 0; i < n_params; ++i) {
      Sequential model = conv ? build_cnn(cnn) : build_mlp(mlp);
      Param param = model.params()[i];
      (*param.value)[param.value->size() - 1] = bad[i % 3];
      model.save(path);
      try {
        (void)Sequential::load_file(path);
        ADD_FAILURE() << param.name << " = " << bad[i % 3] << " loaded";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("non-finite parameter"), std::string::npos)
            << param.name << ": " << e.what();
      }
    }
  }
  std::remove(path.c_str());
}

// A 1024 -> 512 Dense: a 4 MB weight, large enough to span whole 2 MB pages
// and so take the loader's huge-page path.
std::unique_ptr<Dense> large_dense(uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<Dense>(1024, 512, rng);
}

void save_layer(const Layer& layer, const std::string& path) {
  dlpic::util::BinaryWriter w(path);
  layer.save(w);
  w.flush();
}

std::unique_ptr<Dense> load_dense(const std::string& path) {
  dlpic::util::BinaryReader r(path);
  return Dense::load(r);
}

// The finiteness check covers the whole of a large tensor: a non-finite
// value at its first, middle or last element fails the load.
TEST(Serialize, LargeTensorNonFiniteParameterThrows) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  const std::string path = testing::TempDir() + "/dlpic_large_nonfinite.bin";
  auto dense = large_dense(138);
  Tensor& w = dense->weight();
  const size_t at[] = {0, w.size() / 2, w.size() - 1};
  for (size_t i = 0; i < 3; ++i) {
    const double kept = w[at[i]];
    w[at[i]] = bad[i];
    save_layer(*dense, path);
    w[at[i]] = kept;
    try {
      (void)load_dense(path);
      ADD_FAILURE() << "weight[" << at[i] << "] = " << bad[i] << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite parameter"), std::string::npos)
          << "weight[" << at[i] << "]: " << e.what();
    }
  }
  std::remove(path.c_str());
}

// A large tensor round-trips bitwise, edge values included: -0.0, the
// smallest subnormal and +-DBL_MAX.
TEST(Serialize, LargeTensorRoundTripsBitwise) {
  const std::string path = testing::TempDir() + "/dlpic_large_bitwise.bin";
  auto dense = large_dense(139);
  Tensor& w = dense->weight();
  w[0] = -0.0;
  w[1] = std::numeric_limits<double>::denorm_min();
  w[w.size() / 2] = std::numeric_limits<double>::max();
  w[w.size() - 1] = -std::numeric_limits<double>::max();
  dense->bias()[0] = -0.0;
  save_layer(*dense, path);
  const auto loaded = load_dense(path);
  ASSERT_EQ(loaded->weight().size(), w.size());
  EXPECT_EQ(std::memcmp(loaded->weight().data(), w.data(), w.size() * sizeof(double)), 0);
  ASSERT_EQ(loaded->bias().size(), dense->bias().size());
  EXPECT_EQ(std::memcmp(loaded->bias().data(), dense->bias().data(),
                        dense->bias().size() * sizeof(double)),
            0);
  EXPECT_TRUE(std::signbit(loaded->weight()[0]));
  std::remove(path.c_str());
}

/// The VmFlags line of the /proc/self/smaps mapping holding `addr`, or ""
/// when none does.
std::string vm_flags_of(const void* addr) {
  const auto a = reinterpret_cast<uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool holds = false;
  while (std::getline(smaps, line)) {
    const std::string first = line.substr(0, line.find(' '));
    if (first.find(':') == std::string::npos) {  // a mapping's "lo-hi perms ..." header
      const size_t dash = first.find('-');
      if (dash == std::string::npos) continue;
      const uintptr_t lo = std::stoull(first.substr(0, dash), nullptr, 16);
      const uintptr_t hi = std::stoull(first.substr(dash + 1), nullptr, 16);
      holds = lo <= a && a < hi;
    } else if (holds && first == "VmFlags:") {
      return line;
    }
  }
  return "";
}

// A loaded tensor spanning whole 2 MB pages was advised for transparent huge
// pages before its first touch. MADV_HUGEPAGE sets the mapping's "hg" flag
// whether or not the kernel grants a huge page, so this holds in every THP
// mode; only a kernel without THP (no sysfs directory) is skipped.
TEST(Serialize, LargeTensorLoadAdvisesHugePages) {
  if (!std::filesystem::exists("/sys/kernel/mm/transparent_hugepage"))
    GTEST_SKIP() << "kernel without transparent huge pages";
  const std::string path = testing::TempDir() + "/dlpic_large_thp.bin";
  save_layer(*large_dense(140), path);
  const auto loaded = load_dense(path);
  const Tensor& w = loaded->weight();
  const std::string flags = vm_flags_of(w.data() + w.size() / 2);
  ASSERT_FALSE(flags.empty()) << "no mapping holds the loaded weight";
  std::istringstream tokens(flags);
  bool advised = false;
  for (std::string t; tokens >> t;) advised |= t == "hg";
  EXPECT_TRUE(advised) << flags;
  std::remove(path.c_str());
}

// A layer header is untrusted: its dimensions are compared against the
// bounded vector reads, never allocated from. Each file declares a
// 4096 x 4096 layer (128 MB of f64) and a weight length above the reader's
// 1 MB budget; the load must throw without any allocation above that budget.
TEST(Serialize, LayerLoadersBoundBeforeAllocating) {
  constexpr uint64_t kMaxAlloc = 1 << 20;
  constexpr uint64_t kDim = 4096;
  const std::string path = testing::TempDir() + "/dlpic_hostile_layer.bin";
  struct Case {
    const char* name;
    std::function<void(dlpic::util::BinaryWriter&)> header;
    std::function<void(dlpic::util::BinaryReader&)> load;
  };
  const Case cases[] = {
      {"dense",
       [](auto& w) {
         w.write_u64(kDim);  // in
         w.write_u64(kDim);  // out
       },
       [](auto& r) { (void)Dense::load(r); }},
      {"conv2d",
       [](auto& w) {
         for (uint64_t v : {kDim, kDim, uint64_t{1}, uint64_t{1}, uint64_t{1}, uint64_t{0}})
           w.write_u64(v);  // in/out channels, kernel h/w, stride, pad
       },
       [](auto& r) { (void)Conv2D::load(r); }},
      {"residual_dense",
       [](auto& w) {
         for (uint64_t v : {kDim, kDim, kDim, kDim}) w.write_u64(v);  // block, inner
       },
       [](auto& r) { (void)ResidualDense::load(r); }},
  };
  for (const Case& c : cases) {
    {
      dlpic::util::BinaryWriter w(path);
      c.header(w);
      w.write_u64(kDim * kDim);  // weight length, above max_alloc / 8
      w.flush();
    }
    dlpic::util::BinaryReader r(path, kMaxAlloc);
    const Allocations a = probe_allocations(
        [&] { EXPECT_THROW(c.load(r), std::runtime_error) << c.name; });
    EXPECT_LE(a.largest, kMaxAlloc) << c.name << " allocated from its header";
  }
  std::remove(path.c_str());
}

// Loading a paper-shaped bundle (4096 -> 3 x 1024 -> 64, ~51 MB) allocates
// about the bytes it reads: the weights once, no gradients, no placeholder
// layer. The loaded solver predicts bitwise what the saved one did.
TEST(Serialize, PaperBundleLoadAllocatesAboutWhatItReads) {
  dlpic::phase_space::BinnerConfig bc;  // 64 x 64, the paper's histogram
  dlpic::core::DlFieldSolver saved(build_mlp(MlpSpec{}),
                                   dlpic::data::MinMaxNormalizer(0.0, 40.0), bc);
  const std::string path = testing::TempDir() + "/dlpic_paper_bundle.bin";
  saved.save(path);
  const auto file_bytes = std::filesystem::file_size(path) +
                          std::filesystem::file_size(path + ".model");

  std::unique_ptr<dlpic::core::DlFieldSolver> loaded;
  const Allocations a = probe_allocations([&] {
    loaded = std::make_unique<dlpic::core::DlFieldSolver>(
        dlpic::core::DlFieldSolver::load(path));
  });
  EXPECT_LE(static_cast<double>(a.total), 1.05 * static_cast<double>(file_bytes))
      << "load allocated " << a.total << " bytes for a " << file_bytes << "-byte bundle";

  const Sequential& model = loaded->model();
  size_t count = 0;
  const Allocations c = probe_allocations([&] { count = model.parameter_count(); });
  EXPECT_EQ(count, (4096 * 1024 + 1024) + 2 * (1024 * 1024 + 1024) + (1024 * 64 + 64));
  EXPECT_EQ(c.total, 0u) << "parameter_count allocated";

  Rng rng(136);
  std::vector<double> hist(bc.nx * bc.nv);
  for (double& h : hist) h = rng.uniform() < 0.5 ? 0.0 : std::floor(rng.uniform(0, 40));
  EXPECT_EQ(loaded->solve_histogram(hist), saved.solve_histogram(hist));
  std::remove(path.c_str());
  std::remove((path + ".model").c_str());
}

// A loaded model trains exactly like the model it was saved from: its
// gradients are created on the first training touch, zeroed, as the
// in-memory model's are.
TEST(Serialize, TrainAfterLoadMatchesInMemory) {
  MlpSpec mlp;
  mlp.input_dim = 16;
  mlp.output_dim = 4;
  mlp.hidden = 8;
  ResMlpSpec res;
  res.input_dim = 16;
  res.output_dim = 4;
  res.width = 8;
  res.blocks = 2;
  CnnSpec cnn;
  cnn.input_h = 4;
  cnn.input_w = 4;
  cnn.output_dim = 4;
  cnn.channels1 = 2;
  cnn.channels2 = 2;
  cnn.hidden = 8;
  Dataset train(16, 4);
  Rng rng(137);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x(16), y(4);
    for (double& v : x) v = rng.uniform(-1, 1);
    for (double& v : y) v = rng.uniform(-1, 1);
    train.add(x, y);
  }
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;  // 3 batches per epoch
  const std::string path = testing::TempDir() + "/dlpic_train_after_load.bin";
  for (const int arch : {0, 1, 2}) {
    auto build = [&] {
      return arch == 0 ? build_mlp(mlp) : arch == 1 ? build_resmlp(res) : build_cnn(cnn);
    };
    Sequential initial = build();
    Sequential in_memory = build();
    in_memory.save(path);
    Sequential loaded = Sequential::load_file(path);
    for (Sequential* model : {&in_memory, &loaded}) {
      Adam adam(1e-2);
      Trainer(cfg).fit(*model, adam, train);
    }
    const auto a = in_memory.params();
    const auto b = loaded.params();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].value->vec(), b[i].value->vec()) << "arch " << arch << " " << a[i].name;
      EXPECT_NE(a[i].value->vec(), initial.params()[i].value->vec()) << "did not train";
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(Sequential::load_file("/nonexistent/model.bin"), std::runtime_error);
}

TEST(ModelZoo, MlpArchitectureMatchesPaper) {
  // Paper §IV-A: 3 hidden fully-connected layers of 1024 ReLU neurons,
  // 64 linear outputs. Verified at paper scale (cheap: only allocation).
  MlpSpec spec;  // defaults are the paper values
  Sequential model = build_mlp(spec);
  EXPECT_EQ(model.layer_count(), 7u);  // 3x(dense+relu) + output dense
  EXPECT_EQ(model.output_shape({5, 64 * 64}), (std::vector<size_t>{5, 64}));
  // Parameter count: 4096*1024+1024 + 2*(1024*1024+1024) + 1024*64+64.
  const size_t expected = (4096 * 1024 + 1024) + 2 * (1024 * 1024 + 1024) + (1024 * 64 + 64);
  EXPECT_EQ(model.parameter_count(), expected);
}

TEST(ModelZoo, CnnArchitectureTopology) {
  CnnSpec spec;
  spec.input_h = 16;
  spec.input_w = 16;
  spec.output_dim = 8;
  spec.channels1 = 4;
  spec.channels2 = 8;
  spec.hidden = 32;
  Sequential model = build_cnn(spec);
  // reshape + 2x(conv relu conv relu pool) + flatten + 3x(dense relu) + out.
  EXPECT_EQ(model.layer_count(), 1u + 10u + 1u + 6u + 1u);
  EXPECT_EQ(model.output_shape({2, 256}), (std::vector<size_t>{2, 8}));
}

TEST(ModelZoo, CnnRejectsIndivisibleInput) {
  CnnSpec spec;
  spec.input_h = 10;  // not divisible by 4
  EXPECT_THROW(build_cnn(spec), std::invalid_argument);
}

TEST(ModelZoo, MlpForwardBackwardRunsAtReducedScale) {
  ExecutionContext ctx;
  MlpSpec spec;
  spec.input_dim = 32;
  spec.output_dim = 8;
  spec.hidden = 16;
  Sequential model = build_mlp(spec);
  Tensor x = random_tensor({4, 32}, 133);
  Tensor y = model.forward(ctx, x, true);
  EXPECT_EQ(y.shape(), (std::vector<size_t>{4, 8}));
  Tensor g(y.shape());
  g.fill(0.1);
  Tensor gin = model.backward(ctx, g);
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(ModelZoo, DeterministicGivenSeed) {
  ExecutionContext ctx;
  MlpSpec spec;
  spec.input_dim = 8;
  spec.output_dim = 2;
  spec.hidden = 4;
  Sequential a = build_mlp(spec);
  Sequential b = build_mlp(spec);
  Tensor x = random_tensor({2, 8}, 134);
  Tensor ya = a.predict(ctx, x);
  Tensor yb = b.predict(ctx, x);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya[i], yb[i]);
}

TEST(Sequential, EmptyModelThrows) {
  ExecutionContext ctx;
  Sequential model;
  Tensor x({1, 1});
  EXPECT_THROW(model.forward(ctx, x, false), std::runtime_error);
  EXPECT_THROW(model.backward(ctx, x), std::runtime_error);
  EXPECT_THROW(model.add(nullptr), std::invalid_argument);
}

TEST(Sequential, ParamNamesIncludeLayerIndex) {
  Rng rng(135);
  Sequential model;
  model.add(std::make_unique<Dense>(2, 2, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Dense>(2, 1, rng));
  auto params = model.params();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "layer0.weight");
  EXPECT_EQ(params[3].name, "layer2.bias");
}

}  // namespace
