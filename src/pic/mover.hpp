#pragma once
/// \file mover.hpp
/// Leap-frog particle mover (paper §II, Eqs. 1–2):
///   v^{n+1/2} = v^{n-1/2} + (q/m) E^n(x^n) dt
///   x^{n+1}   = x^n + v^{n+1/2} dt
/// Positions wrap periodically after the push.

#include <vector>

#include "pic/grid.hpp"
#include "pic/shape.hpp"
#include "pic/species.hpp"

namespace dlpic::pic {

/// Advances velocities by a full step given the per-particle field.
void push_velocities(Species& species, const std::vector<double>& E_particles, double dt);

/// Advances positions by a full step and wraps them into the box.
void push_positions(const Grid1D& grid, Species& species, double dt);

/// One combined kick-drift step: gather E at x^n, kick v, drift x. A
/// non-finite position throws std::invalid_argument naming the particle;
/// some particles may already be pushed.
void leapfrog_step(const Grid1D& grid, Shape shape, const std::vector<double>& E,
                   Species& species, double dt);

/// Initializes the leap-frog stagger: rewinds velocities by dt/2 using the
/// initial field so that v lives at t = -dt/2 (standard explicit PIC setup).
/// A non-finite position throws like leapfrog_step.
void stagger_velocities_back(const Grid1D& grid, Shape shape, const std::vector<double>& E,
                             Species& species, double dt);

}  // namespace dlpic::pic
