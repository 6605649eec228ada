#include "data/normalizer.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace dlpic::data {

namespace {

/// True when y = (x - min) / (max - min) is finite for finite x: both
/// bounds finite, max above min, and neither the width nor its reciprocal
/// overflowing.
bool usable_range(double min, double max) {
  return std::isfinite(min) && std::isfinite(max) && max > min &&
         std::isfinite(max - min) && std::isfinite(1.0 / (max - min));
}

}  // namespace

MinMaxNormalizer::MinMaxNormalizer(double min, double max) : min_(min), max_(max), fitted_(true) {
  if (!usable_range(min, max))
    throw std::invalid_argument(
        "MinMaxNormalizer: bounds must be finite with max above min and a finite width");
}

MinMaxNormalizer MinMaxNormalizer::fit(const nn::Dataset& data) {
  if (data.size() == 0) throw std::invalid_argument("MinMaxNormalizer::fit: empty dataset");
  double lo = data.input_row(0)[0];
  double hi = lo;
  for (size_t r = 0; r < data.size(); ++r) {
    const double* row = data.input_row(r);
    for (size_t i = 0; i < data.input_dim(); ++i) {
      lo = std::min(lo, row[i]);
      hi = std::max(hi, row[i]);
    }
  }
  if (!(hi > lo))
    throw std::runtime_error("MinMaxNormalizer::fit: degenerate data (min == max)");
  return MinMaxNormalizer(lo, hi);
}

void MinMaxNormalizer::apply(double* values, size_t n) const {
  if (!fitted_) throw std::runtime_error("MinMaxNormalizer: not fitted");
  const double inv = 1.0 / (max_ - min_);
  for (size_t i = 0; i < n; ++i) values[i] = (values[i] - min_) * inv;
}

nn::Dataset MinMaxNormalizer::apply_dataset(const nn::Dataset& data) const {
  nn::Dataset out(data.input_dim(), data.target_dim());
  std::vector<double> input(data.input_dim());
  for (size_t r = 0; r < data.size(); ++r) {
    const double* row = data.input_row(r);
    input.assign(row, row + data.input_dim());
    apply(input);
    const double* tg = data.target_row(r);
    out.add(input, {tg, tg + data.target_dim()});
  }
  return out;
}

double MinMaxNormalizer::inverse(double y) const {
  if (!fitted_) throw std::runtime_error("MinMaxNormalizer: not fitted");
  return min_ + y * (max_ - min_);
}

void MinMaxNormalizer::save(util::BinaryWriter& w) const {
  if (!fitted_) throw std::runtime_error("MinMaxNormalizer::save: not fitted");
  w.write_f64(min_);
  w.write_f64(max_);
}

MinMaxNormalizer MinMaxNormalizer::load(util::BinaryReader& r) {
  const double lo = r.read_f64();
  const double hi = r.read_f64();
  if (!usable_range(lo, hi))
    throw std::runtime_error("MinMaxNormalizer::load: unusable bounds [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "] at offset " +
                             std::to_string(r.offset()) + " in " + r.path());
  return MinMaxNormalizer(lo, hi);
}

}  // namespace dlpic::data
