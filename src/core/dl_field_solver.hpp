#pragma once
/// \file dl_field_solver.hpp
/// The paper's DL electric-field solver (§III, Fig. 2–3): bins the electron
/// phase space into a 2D histogram, min–max normalizes it, and runs one
/// network inference to produce the electric field on the grid — replacing
/// charge deposition + Poisson solve + gradient of the traditional method.

#include <string>
#include <vector>

#include "data/normalizer.hpp"
#include "nn/sequential.hpp"
#include "phase_space/binner.hpp"
#include "pic/species.hpp"

namespace dlpic::core {

/// Bundles the trained network, the input normalizer and the phase-space
/// binner geometry into a deployable field solver. To batch concurrent
/// solves, register model() and &normalizer() on a serve::InferenceServer
/// like any other bundle; the solver must then outlive the server and stay
/// put, since the server holds references to both.
class DlFieldSolver {
 public:
  /// Takes ownership of the trained model. The normalizer must be fitted on
  /// the same histogram distribution the model was trained with.
  DlFieldSolver(nn::Sequential model, data::MinMaxNormalizer normalizer,
                phase_space::BinnerConfig binner_config);

  DlFieldSolver(DlFieldSolver&&) = default;
  DlFieldSolver& operator=(DlFieldSolver&&) = default;
  DlFieldSolver(const DlFieldSolver&) = delete;
  DlFieldSolver& operator=(const DlFieldSolver&) = delete;
  ~DlFieldSolver() = default;

  /// Predicts E on the grid from the particle phase space.
  /// The output size equals the model's output dimension (grid cells).
  [[nodiscard]] std::vector<double> solve(const pic::Species& electrons);

  /// Predicts E from an already-binned raw (unnormalized) histogram.
  /// Inference runs on the solver's own execution context, so the per-step
  /// hot path of a DL-PIC run reuses one workspace instead of allocating
  /// activations every cycle.
  [[nodiscard]] std::vector<double> solve_histogram(const std::vector<double>& histogram);

  [[nodiscard]] const phase_space::BinnerConfig& binner_config() const {
    return binner_.config();
  }
  [[nodiscard]] const data::MinMaxNormalizer& normalizer() const { return normalizer_; }
  [[nodiscard]] nn::Sequential& model() { return model_; }

  /// Serializes the full solver bundle (model + normalizer + binner).
  void save(const std::string& path) const;

  /// Loads a bundle written by save().
  static DlFieldSolver load(const std::string& path);

 private:
  nn::Sequential model_;
  data::MinMaxNormalizer normalizer_;
  phase_space::PhaseSpaceBinner binner_;
  nn::ExecutionContext ctx_;
};

}  // namespace dlpic::core
