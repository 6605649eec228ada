/// \file test_input_major.cpp
/// Loaded dense layers hold their weight input-major (W^T [in, out], model
/// format v2) and layers built in memory output-major (W [out, in]). These
/// tests pin the two orders to each other: the skinny NN kernel against
/// gemm_block on every backend, a loaded forward against a constructed one
/// bitwise over batch sizes, widths, signed zeros and NaN inputs, backends
/// and worker counts, and the round trips that put a loaded layer back
/// output-major (weight(), params(), training, the quantized weight cache)
/// or read a v1 file.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "math/linalg.hpp"
#include "math/rng.hpp"
#include "nn/backend.hpp"
#include "nn/dataset.hpp"
#include "nn/dense.hpp"
#include "nn/execution_context.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "util/binary_io.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dlpic;

std::vector<double> random_vec(size_t n, uint64_t seed) {
  math::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

std::vector<const nn::KernelBackend*> available_backends() {
  std::vector<const nn::KernelBackend*> out{&nn::scalar_backend()};
  if (const auto* be = nn::avx2_backend()) out.push_back(be);
  if (const auto* be = nn::avx512_backend()) out.push_back(be);
  return out;
}

bool bitwise_equal(const double* x, const double* y, size_t n) {
  return std::memcmp(x, y, n * sizeof(double)) == 0;
}

std::string temp_path(const std::string& name) { return testing::TempDir() + "/" + name; }

/// A model saved and loaded back: its dense layers are input-major.
nn::Sequential reload(const nn::Sequential& model, const std::string& name) {
  const std::string path = temp_path(name);
  model.save(path);
  nn::Sequential loaded = nn::Sequential::load_file(path);
  std::remove(path.c_str());
  return loaded;
}

nn::Dense& dense_at(nn::Sequential& model, size_t i) {
  return dynamic_cast<nn::Dense&>(model.layer(i));
}

// gemm_nn_block called directly, over every row count it takes (1..16),
// column counts around the 4- and 8-column groups and the one-row kernel's
// 1024-column strip, and depths around the 4- and 8-deep groups and past
// one 256-deep live list: on each backend it is bitwise that backend's
// gemm_block over the same panel, and avx512 is bitwise avx2. B and C are
// read and written at strides wider than the panel. The A rows hold zero
// runs, a lone -0 in an otherwise zero block, a NaN where every other row
// is zero, and histogram-like rows.
TEST(InputMajorKernel, NnBlockBitwiseEqualsPackedBlock) {
  const std::vector<size_t> nbs = {1, 3, 4, 5, 7, 8, 9, 17, 64, 70, 1030};
  const std::vector<size_t> kbs = {1, 3, 4, 5, 8, 9, 127, 256, 300};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const nn::KernelBackend* avx2 = nn::avx2_backend();
  const nn::KernelBackend* avx512 = nn::avx512_backend();
  for (const size_t kb : kbs) {
    for (const size_t mr : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}) {
      const auto dense = random_vec(mr * kb, 900 + kb * 17 + mr);
      std::vector<std::pair<std::string, std::vector<double>>> cases;
      cases.emplace_back("dense", dense);
      auto zeros = dense;  // index runs that are zero in every row
      for (size_t i = 0; i < mr; ++i)
        for (size_t p = 0; p < kb; ++p)
          if ((p / 3) % 3 == 1 || p % 7 == 2) zeros[i * kb + p] = 0.0;
      cases.emplace_back("zero runs", zeros);
      std::vector<double> lone(mr * kb, 0.0);
      lone[(mr / 2) * kb + kb / 2] = -0.0;
      cases.emplace_back("lone -0", lone);
      auto nan_index = zeros;  // a NaN at an index every other row skips
      nan_index[(mr - 1) * kb + (kb > 4 ? 4 : 0)] = nan;
      cases.emplace_back("NaN at a zero index", nan_index);
      std::vector<double> histogram(mr * kb, 0.0);
      for (size_t i = 0; i < mr; ++i)
        for (size_t p = 0; p < kb; ++p)
          if ((p + 11 * i) % 64 < 10) histogram[i * kb + p] = dense[i * kb + p];
      cases.emplace_back("histogram rows", histogram);
      for (const size_t nb : nbs) {
        const size_t ldb = nb + 3, ldc = nb + 2;
        const auto B = random_vec(kb * ldb, 1000 + nb * 13 + kb);
        std::vector<double> panel(kb * nb);  // the kb x nb panel gemm_block reads
        for (size_t p = 0; p < kb; ++p)
          for (size_t j = 0; j < nb; ++j) panel[p * nb + j] = B[p * ldb + j];
        const auto C0 = random_vec(mr * ldc, 1100 + nb + mr);
        for (const auto& [label, A] : cases) {
          std::vector<std::vector<double>> vector_results;
          for (const nn::KernelBackend* be : available_backends()) {
            auto packed = C0;
            auto in_place = C0;
            be->gemm_block(mr, nb, kb, A.data(), panel.data(), packed.data(), ldc);
            be->gemm_nn_block(mr, nb, kb, A.data(), B.data(), ldb, in_place.data(), ldc);
            ASSERT_TRUE(bitwise_equal(in_place.data(), packed.data(), packed.size()))
                << be->name() << " " << label << " mr=" << mr << " nb=" << nb
                << " kb=" << kb;
            if (be == avx2 || be == avx512) vector_results.push_back(std::move(in_place));
          }
          if (vector_results.size() == 2) {
            ASSERT_TRUE(bitwise_equal(vector_results[0].data(), vector_results[1].data(),
                                      vector_results[0].size()))
                << "avx512 vs avx2 " << label << " mr=" << mr << " nb=" << nb
                << " kb=" << kb;
          }
        }
      }
    }
  }
}

// A loaded (input-major) Dense forward is bitwise the constructed
// (output-major) one at every batch size the in-place paths and the packed
// path take, at output widths with and without a column tail, on inputs
// holding +0, -0 (ReLU passes -0 through) and a NaN, on every backend at
// 1, 2 and 4 workers. The NaN row comes out all NaN: a NaN input is never
// skipped.
TEST(InputMajorDense, LoadedForwardBitwiseEqualsConstructed) {
  const size_t in = 300;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const size_t out : {64, 128, 1024, 10}) {
    math::Rng rng(40 + out);
    nn::Sequential built;
    built.add(std::make_unique<nn::Dense>(in, out, rng));
    nn::Sequential loaded = reload(built, "dlpic_input_major_forward.bin");
    ASSERT_TRUE(dense_at(loaded, 0).input_major());
    ASSERT_FALSE(dense_at(built, 0).input_major());
    for (const size_t batch : {1, 2, 3, 4, 5, 8, 12, 16, 17, 32, 33, 64}) {
      nn::Tensor x({batch, in});
      const auto values = random_vec(batch * in, 50 + batch);
      for (size_t r = 0; r < batch; ++r)
        for (size_t p = 0; p < in; ++p) {
          const size_t slot = (p + 13 * r) % 40;  // a sparse histogram-like row
          x[r * in + p] = slot < 6 ? values[r * in + p] : slot < 9 ? -0.0 : 0.0;
        }
      const size_t nan_row = batch / 2;
      for (size_t r = 0; r < batch; ++r) x[r * in + 37] = r == nan_row ? nan : 0.0;
      for (const nn::KernelBackend* be : available_backends()) {
        for (const size_t workers : {1, 2, 4}) {
          util::ScopedMaxWorkers cap(workers);
          nn::ExecutionContext ctx_built(0, be), ctx_loaded(0, be);
          const nn::Tensor& want = built.forward(ctx_built, x, false);
          const nn::Tensor& got = loaded.forward(ctx_loaded, x, false);
          ASSERT_TRUE(bitwise_equal(want.data(), got.data(), batch * out))
              << be->name() << " out=" << out << " batch=" << batch
              << " workers=" << workers;
          for (size_t j = 0; j < out; ++j)
            ASSERT_TRUE(std::isnan(got[nan_row * out + j])) << be->name() << " j=" << j;
        }
      }
    }
  }
}

// After a load, weight() and params() hand back the saved bits, in the
// output-major order, and the layer has been put back output-major.
TEST(InputMajorDense, WeightAndParamsEqualTheSavedBits) {
  math::Rng rng(61);
  nn::Sequential built;
  built.add(std::make_unique<nn::Dense>(37, 23, rng));
  built.add(std::make_unique<nn::Dense>(23, 64, rng));
  dense_at(built, 0).weight()[0] = -0.0;
  nn::Sequential loaded = reload(built, "dlpic_input_major_params.bin");
  ASSERT_TRUE(dense_at(loaded, 0).input_major());
  const nn::Tensor& w = dense_at(loaded, 0).weight();
  EXPECT_FALSE(dense_at(loaded, 0).input_major());
  ASSERT_TRUE(w.same_shape(dense_at(built, 0).weight()));
  EXPECT_TRUE(bitwise_equal(w.data(), dense_at(built, 0).weight().data(), w.size()));
  EXPECT_TRUE(std::signbit(w[0]));

  const auto want = built.params();
  const auto got = loaded.params();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(got[i].value->same_shape(*want[i].value)) << want[i].name;
    EXPECT_TRUE(bitwise_equal(got[i].value->data(), want[i].value->data(),
                              want[i].value->size()))
        << want[i].name;
  }
  EXPECT_FALSE(dense_at(loaded, 1).input_major());
}

// A Trainer epoch on a loaded model is bitwise the same epoch on the model
// it was saved from.
TEST(InputMajorDense, TrainerStepOnLoadedModelEqualsConstructed) {
  nn::MlpSpec spec;
  spec.input_dim = 20;
  spec.output_dim = 6;
  spec.hidden = 16;
  nn::Sequential built = nn::build_mlp(spec);
  nn::Sequential loaded = reload(built, "dlpic_input_major_train.bin");
  nn::Dataset data(spec.input_dim, spec.output_dim);
  for (size_t s = 0; s < 16; ++s)
    data.add(random_vec(spec.input_dim, 70 + s), random_vec(spec.output_dim, 90 + s));
  nn::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  for (nn::Sequential* model : {&built, &loaded}) {
    nn::Adam adam(1e-3);
    nn::Trainer(config).fit(*model, adam, data);
  }
  const auto want = built.params();
  const auto got = loaded.params();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i)
    EXPECT_TRUE(bitwise_equal(got[i].value->data(), want[i].value->data(),
                              want[i].value->size()))
        << want[i].name;
}

// A quantized weight cache built from a loaded model reads W^T and holds
// the constructed model's codes and scales, at both precisions.
TEST(InputMajorDense, QuantizedCacheOfLoadedModelEqualsConstructed) {
  nn::MlpSpec spec;
  spec.input_dim = 48;
  spec.output_dim = 10;
  spec.hidden = 24;
  nn::Sequential built = nn::build_mlp(spec);
  nn::Sequential loaded = reload(built, "dlpic_input_major_quantize.bin");
  for (const nn::Precision precision : {nn::Precision::kInt8, nn::Precision::kInt16}) {
    const nn::QuantizedWeightCache want(built, precision);
    const nn::QuantizedWeightCache got(loaded, precision);
    for (size_t i = 0; i < built.layer_count(); i += 2) {
      const nn::Dense& b = dense_at(built, i);
      const nn::Dense& l = dense_at(loaded, i);
      ASSERT_TRUE(l.input_major());
      const size_t rows = b.out_features(), cols = b.in_features();
      if (precision == nn::Precision::kInt8) {
        const auto& w = want.weights<int8_t>(b, rows, cols);
        const auto& g = got.weights<int8_t>(l, rows, cols);
        EXPECT_EQ(w.q, g.q) << "layer " << i;
        EXPECT_EQ(w.scales, g.scales) << "layer " << i;
      } else {
        const auto& w = want.weights<int16_t>(b, rows, cols);
        const auto& g = got.weights<int16_t>(l, rows, cols);
        EXPECT_EQ(w.q, g.q) << "layer " << i;
        EXPECT_EQ(w.scales, g.scales) << "layer " << i;
      }
    }
  }
}

// A v1 model file (each weight output-major, written here byte by byte)
// still loads, as an output-major layer, and forwards bitwise as the model
// it describes.
TEST(InputMajorDense, VersionOneFileLoadsOutputMajor) {
  math::Rng rng(81);
  nn::Sequential built;
  built.add(std::make_unique<nn::Dense>(40, 12, rng));
  nn::Dense& d = dense_at(built, 0);
  const std::string path = temp_path("dlpic_model_v1.bin");
  {
    util::BinaryWriter w(path);
    w.write_u32(0x444c5043);  // "DLPC"
    w.write_u32(1);
    w.write_u64(1);
    w.write_string("dense");
    w.write_u64(d.in_features());
    w.write_u64(d.out_features());
    w.write_f64_vector(d.weight().vec());
    w.write_f64_vector(d.bias().vec());
    w.flush();
  }
  nn::Sequential loaded = nn::Sequential::load_file(path);
  std::remove(path.c_str());
  ASSERT_FALSE(dense_at(loaded, 0).input_major());
  nn::Tensor x({3, d.in_features()});
  const auto values = random_vec(x.size(), 82);
  std::copy(values.begin(), values.end(), x.data());
  nn::ExecutionContext ctx_built, ctx_loaded;
  const nn::Tensor& want = built.forward(ctx_built, x, false);
  const nn::Tensor& got = loaded.forward(ctx_loaded, x, false);
  EXPECT_TRUE(bitwise_equal(want.data(), got.data(), want.size()));
}

// Saving streams W^T whatever the order the layer is in: an output-major
// layer and the same layer loaded back (input-major) write the same bytes.
TEST(InputMajorDense, SaveWritesTheSameFileFromEitherOrder) {
  nn::MlpSpec spec;
  spec.input_dim = 4100;  // wider than one save buffer of 10-wide rows
  spec.output_dim = 10;
  spec.hidden = 8;
  nn::Sequential built = nn::build_mlp(spec);
  nn::Sequential loaded = reload(built, "dlpic_input_major_save_a.bin");
  const std::string a = temp_path("dlpic_input_major_save_b.bin");
  const std::string b = temp_path("dlpic_input_major_save_c.bin");
  built.save(a);
  loaded.save(b);
  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string fa = bytes(a), fb = bytes(b);
  std::remove(a.c_str());
  std::remove(b.c_str());
  EXPECT_FALSE(fa.empty());
  EXPECT_TRUE(fa == fb);
}

}  // namespace
