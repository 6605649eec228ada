#include "nn/execution_context.hpp"

namespace dlpic::nn {

Tensor& Workspace::tensor(const void* owner, int slot, std::initializer_list<size_t> dims) {
  Tensor& t = tensors_[Key{owner, slot}];
  t.resize(dims.begin(), dims.size());
  return t;
}

Tensor& Workspace::peek(const void* owner, int slot) { return tensors_[Key{owner, slot}]; }

std::vector<double>& Workspace::scratch(const void* owner, int slot, size_t n) {
  std::vector<double>& v = scratch_[Key{owner, slot}];
  if (v.size() < n) v.resize(n);
  return v;
}

std::vector<int8_t>& Workspace::scratch_i8(const void* owner, int slot, size_t n) {
  std::vector<int8_t>& v = scratch_i8_[Key{owner, slot}];
  if (v.size() < n) v.resize(n);
  return v;
}

std::vector<int16_t>& Workspace::scratch_i16(const void* owner, int slot, size_t n) {
  std::vector<int16_t>& v = scratch_i16_[Key{owner, slot}];
  if (v.size() < n) v.resize(n);
  return v;
}

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
  scratch_.clear();
  scratch_i8_.clear();
  scratch_i16_.clear();
  indices_.clear();
}

size_t Workspace::bytes() const {
  size_t total = 0;
  for (const auto& [k, t] : tensors_) total += t.size() * sizeof(double);
  for (const auto& [k, v] : scratch_) total += v.capacity() * sizeof(double);
  for (const auto& [k, v] : scratch_i8_) total += v.capacity();
  for (const auto& [k, v] : scratch_i16_) total += v.capacity() * sizeof(int16_t);
  for (const auto& [k, v] : indices_) total += v.capacity() * sizeof(size_t);
  return total;
}

}  // namespace dlpic::nn
