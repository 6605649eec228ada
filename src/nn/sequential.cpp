#include "nn/sequential.hpp"

#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/maxpool2d.hpp"
#include "nn/residual.hpp"

namespace dlpic::nn {

namespace {
constexpr uint32_t kModelMagic = 0x444c5043;  // "DLPC"
}  // namespace

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor& Sequential::forward(ExecutionContext& ctx, const Tensor& input, bool training) {
  if (layers_.empty()) throw std::runtime_error("Sequential::forward: empty model");
  const Tensor* x = &input;
  Tensor* out = nullptr;
  for (auto& l : layers_) {
    out = &l->forward(ctx, *x, training);
    x = out;
  }
  return *out;
}

Tensor& Sequential::backward(ExecutionContext& ctx, const Tensor& grad_output) {
  if (layers_.empty()) throw std::runtime_error("Sequential::backward: empty model");
  const Tensor* g = &grad_output;
  Tensor* out = nullptr;
  for (size_t i = layers_.size(); i-- > 0;) {
    out = &layers_[i]->backward(ctx, *g);
    g = out;
  }
  return *out;
}

std::vector<Param> Sequential::params() {
  std::vector<Param> out;
  for (size_t i = 0; i < layers_.size(); ++i) {
    for (auto& p : layers_[i]->params()) {
      p.name = "layer" + std::to_string(i) + "." + p.name;
      out.push_back(p);
    }
  }
  return out;
}

size_t Sequential::parameter_count() const {
  size_t n = 0;
  for (const auto& l : layers_) n += l->parameter_count();
  return n;
}

void Sequential::zero_grad() {
  for (auto& l : layers_) l->zero_grad();
}

std::vector<size_t> Sequential::output_shape(std::vector<size_t> input_shape) const {
  for (const auto& l : layers_) input_shape = l->output_shape(input_shape);
  return input_shape;
}

void Sequential::save(const std::string& path) const {
  util::BinaryWriter w(path);
  w.write_u32(kModelMagic);
  w.write_u32(kModelFormat);
  w.write_u64(layers_.size());
  for (const auto& l : layers_) {
    w.write_string(l->type());
    l->save(w);
  }
  w.flush();
}

Sequential Sequential::load_file(const std::string& path) {
  util::BinaryReader r(path);
  if (r.read_u32() != kModelMagic)
    throw std::runtime_error("Sequential::load_file: bad magic in " + path);
  const uint32_t format = r.read_u32();
  if (format != kModelFormat && format != kModelFormatOutputMajor)
    throw std::runtime_error("Sequential::load_file: unsupported version in " + path);
  const uint64_t count = r.read_u64();
  Sequential model;
  for (uint64_t i = 0; i < count; ++i) {
    const std::string type = r.read_string();
    if (type == "dense")
      model.add(Dense::load(r, format));
    else if (type == "relu")
      model.add(ReLU::load(r));
    else if (type == "leaky_relu")
      model.add(LeakyReLU::load(r));
    else if (type == "tanh")
      model.add(Tanh::load(r));
    else if (type == "conv2d")
      model.add(Conv2D::load(r));
    else if (type == "maxpool2d")
      model.add(MaxPool2D::load(r));
    else if (type == "flatten")
      model.add(Flatten::load(r));
    else if (type == "reshape4")
      model.add(Reshape4::load(r));
    else if (type == "residual_dense")
      model.add(ResidualDense::load(r, format));
    else
      throw std::runtime_error("Sequential::load_file: unknown layer type '" + type + "'");
  }
  return model;
}

}  // namespace dlpic::nn
