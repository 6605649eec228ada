#include "nn/execution_context.hpp"

namespace dlpic::nn {

Tensor& Workspace::tensor(const void* owner, int slot, std::initializer_list<size_t> dims) {
  Tensor& t = tensors_[Key{owner, slot}];
  t.resize(dims.begin(), dims.size());
  return t;
}

Tensor& Workspace::peek(const void* owner, int slot) { return tensors_[Key{owner, slot}]; }

std::vector<size_t>& Workspace::indices(const void* owner, int slot, size_t n) {
  std::vector<size_t>& v = indices_[Key{owner, slot}];
  v.resize(n);  // vector keeps capacity on shrink: grow-only storage
  return v;
}

std::vector<size_t>& Workspace::indices_peek(const void* owner, int slot) {
  return indices_[Key{owner, slot}];
}

void Workspace::clear() {
  tensors_.clear();
  std::apply([](auto&... maps) { (maps.clear(), ...); }, scratch_);
  indices_.clear();
}

size_t Workspace::bytes() const {
  size_t total = 0;
  for (const auto& [k, t] : tensors_) total += t.size() * sizeof(double);
  const auto add = [&](const auto& map) {
    for (const auto& [k, v] : map) total += v.capacity() * sizeof(v[0]);
  };
  std::apply([&](const auto&... maps) { (add(maps), ...); }, scratch_);
  add(indices_);
  return total;
}

}  // namespace dlpic::nn
