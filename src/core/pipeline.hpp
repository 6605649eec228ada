#pragma once
/// \file pipeline.hpp
/// End-to-end orchestration used by benches and examples: generate (or load
/// cached) datasets, fit the normalizer, train MLP/CNN field solvers, and
/// assemble deployable DlFieldSolver bundles. Artifacts are cached under
/// an artifacts directory keyed by preset name so that the Table I bench
/// and the Fig. 4–6 benches share one trained model.

#include <memory>
#include <string>

#include "core/dl_field_solver.hpp"
#include "core/presets.hpp"
#include "nn/trainer.hpp"

namespace dlpic::core {

/// The four splits of §IV-A1.
struct DataSplits {
  nn::Dataset train;
  nn::Dataset val;
  nn::Dataset test1;  ///< same-parameter test set (Table I "Test Set I")
  nn::Dataset test2;  ///< held-out-parameter test set ("Test Set II")
};

/// Training outcome of one architecture.
struct TrainedSolver {
  std::shared_ptr<DlFieldSolver> solver;
  nn::Metrics test1;           ///< Table I row inputs
  nn::Metrics test2;
  double train_seconds = 0.0;
  size_t parameters = 0;
};

/// Pipeline with on-disk caching.
class Pipeline {
 public:
  /// `artifacts_dir` is created if missing.
  explicit Pipeline(Preset preset, std::string artifacts_dir = "artifacts");

  /// Generates (or loads cached) training sweep + Test Set II, and splits
  /// train/val/test1 per the preset.
  DataSplits load_or_generate_data();

  /// Trains (or loads cached) the MLP field solver and evaluates Table I
  /// metrics. `force_retrain` ignores the cache.
  TrainedSolver train_mlp(const DataSplits& splits, bool force_retrain = false);

  /// Same for the CNN.
  TrainedSolver train_cnn(const DataSplits& splits, bool force_retrain = false);

  [[nodiscard]] const Preset& preset() const { return preset_; }
  [[nodiscard]] const std::string& artifacts_dir() const { return artifacts_dir_; }

  /// Path helpers (exposed for tooling/tests).
  [[nodiscard]] std::string dataset_path() const;
  [[nodiscard]] std::string test2_path() const;
  [[nodiscard]] std::string solver_path(const std::string& arch) const;

 private:
  TrainedSolver train_arch(const std::string& arch, const DataSplits& splits,
                           bool force_retrain);

  Preset preset_;
  std::string artifacts_dir_;
  nn::ExecutionContext ctx_;
};

}  // namespace dlpic::core
