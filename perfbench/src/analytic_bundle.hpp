#pragma once
/// \file analytic_bundle.hpp
/// A paper-shaped DL field solver whose weights are written down instead of
/// trained, so the DL-PIC workload runs the paper's 4096 -> 3x1024 -> 64 MLP
/// with correct physics and no hours of training.
///
/// Construction, for a simulation of N electrons on n cells:
///  - start from nn::build_mlp with the paper spec and a MinMax(0, c)
///    normalizer, so every kernel sees a dense He-random network;
///  - hidden units 0..n-1 of the first layer compute +rho_e at each grid
///    node from the NGP histogram, q c / dx * (col[j-1] + col[j]) / 2 with
///    col[i] the sum over velocity bins of position column i; units n..2n-1
///    compute -rho_e, so the ReLU pair carries rho_e = h+ - h-;
///  - the next hidden layers pass those 2n units through with weight 1;
///  - the output layer is G (h+ - h-), G the n x n response of the
///    configured Poisson solver + efield_from_phi to unit node densities;
///  - every other hidden unit keeps its random weights and gets zero weight
///    into the analytic units and the output, so it costs compute but never
///    changes the field.

#include <cstddef>
#include <vector>

#include "core/dl_field_solver.hpp"
#include "pic/simulation.hpp"

namespace perfbench {

/// Normalizer upper bound c of the analytic bundle (counts per bin).
inline constexpr double kAnalyticNormalizerMax = 1000.0;

/// The paper-scale analytic solver for `config` (paper MLP widths; the
/// histogram has config.ncells position bins and 64 velocity bins).
dlpic::core::DlFieldSolver build_analytic_solver(const dlpic::pic::SimulationConfig& config);

/// Row-major n x n response G: column k is the field the traditional field
/// stage (Poisson solve + efield_from_phi) gives for a unit density at node k.
std::vector<double> field_response(const dlpic::pic::SimulationConfig& config);

}  // namespace perfbench
