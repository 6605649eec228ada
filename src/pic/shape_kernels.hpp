#pragma once
/// \file shape_kernels.hpp
/// Compile-time-specialized shape kernels for the PIC hot path.
///
/// stencil_for() (shape.cpp) selects the shape with a switch per particle —
/// fine for diagnostics, too slow for the inner loops. Here the shape is a
/// template parameter: dispatch_shape() branches once per *call*, and the
/// fused gather/push/deposit loops are instantiated per shape with the
/// stencil fully inlined (constant support, no Stencil struct, cheap
/// branchy wrap instead of a modulo).
///
/// Preconditions: particle positions lie in [0, L) (Grid1D::wrap_position
/// maintains this), so stencil nodes are at most one box outside [0, N) and
/// wrap_near() suffices.

#include <cmath>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "pic/grid.hpp"
#include "pic/shape.hpp"
#include "util/inline.hpp"

namespace dlpic::pic {

namespace shape_detail {

/// Periodic wrap for node indices within one box of the valid range
/// (i in [-n, 2n)); avoids the integer modulo of Grid1D::wrap_node.
DLPIC_ALWAYS_INLINE size_t wrap_near(long i, long n) {
  if (i < 0) return static_cast<size_t>(i + n);
  if (i >= n) return static_cast<size_t>(i - n);
  return static_cast<size_t>(i);
}

}  // namespace shape_detail

/// Stencil evaluation specialized per shape. `xi` is the particle position
/// in cell units (x / dx), `n` the node count; writes `support` node
/// indices and weights.
template <Shape S>
struct ShapeKernel;

template <>
struct ShapeKernel<Shape::NGP> {
  static constexpr size_t support = 1;
  DLPIC_ALWAYS_INLINE static void stencil(double xi, long n, size_t* node, double* w) {
    const long i = static_cast<long>(std::floor(xi + 0.5));
    node[0] = shape_detail::wrap_near(i, n);
    w[0] = 1.0;
  }
};

template <>
struct ShapeKernel<Shape::CIC> {
  static constexpr size_t support = 2;
  DLPIC_ALWAYS_INLINE static void stencil(double xi, long n, size_t* node, double* w) {
    const long i = static_cast<long>(std::floor(xi));
    const double frac = xi - static_cast<double>(i);
    node[0] = shape_detail::wrap_near(i, n);
    node[1] = shape_detail::wrap_near(i + 1, n);
    w[0] = 1.0 - frac;
    w[1] = frac;
  }
};

template <>
struct ShapeKernel<Shape::TSC> {
  static constexpr size_t support = 3;
  DLPIC_ALWAYS_INLINE static void stencil(double xi, long n, size_t* node, double* w) {
    const long i = static_cast<long>(std::floor(xi + 0.5));
    const double d = xi - static_cast<double>(i);  // in [-0.5, 0.5]
    node[0] = shape_detail::wrap_near(i - 1, n);
    node[1] = shape_detail::wrap_near(i, n);
    node[2] = shape_detail::wrap_near(i + 1, n);
    w[0] = 0.5 * (0.5 - d) * (0.5 - d);
    w[1] = 0.75 - d * d;
    w[2] = 0.5 * (0.5 + d) * (0.5 + d);
  }
};

/// Inlined gather of field `E` (n nodes) at cell-unit position `xi`.
template <Shape S>
DLPIC_ALWAYS_INLINE double gather_at(const double* E, double xi, long n) {
  size_t node[ShapeKernel<S>::support];
  double w[ShapeKernel<S>::support];
  ShapeKernel<S>::stencil(xi, n, node, w);
  double acc = 0.0;
  for (size_t s = 0; s < ShapeKernel<S>::support; ++s) acc += E[node[s]] * w[s];
  return acc;
}

/// Inlined scatter of `value` into accumulator `buf` at cell-unit `xi`.
template <Shape S>
DLPIC_ALWAYS_INLINE void scatter_at(double* buf, double xi, long n, double value) {
  size_t node[ShapeKernel<S>::support];
  double w[ShapeKernel<S>::support];
  ShapeKernel<S>::stencil(xi, n, node, w);
  for (size_t s = 0; s < ShapeKernel<S>::support; ++s) buf[node[s]] += value * w[s];
}

/// Calls f with the runtime shape lifted to a compile-time constant:
///   dispatch_shape(shape, [&](auto s) { kernel<decltype(s)::value>(...); });
/// One branch per call instead of one per particle.
template <class F>
decltype(auto) dispatch_shape(Shape shape, F&& f) {
  switch (shape) {
    case Shape::NGP:
      return std::forward<F>(f)(std::integral_constant<Shape, Shape::NGP>{});
    case Shape::CIC:
      return std::forward<F>(f)(std::integral_constant<Shape, Shape::CIC>{});
    case Shape::TSC:
      break;
  }
  return std::forward<F>(f)(std::integral_constant<Shape, Shape::TSC>{});
}

}  // namespace dlpic::pic
