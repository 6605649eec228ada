/// \file bench_ablation_arch.cpp
/// Ablation A2: sensitivity of the DL field solver to MLP width and depth
/// (the paper fixes 3 x 1024 without justification). Sweeps hidden width
/// and depth at fixed data/epochs and reports MAE and inference latency.
///
/// Usage: bench_ablation_arch [--preset=ci|paper]

#include <cstdio>

#include "bench_util.hpp"
#include "data/generator.hpp"
#include "data/normalizer.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "util/csv.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace dlpic;
  auto cfg = util::Config::from_args(argc, argv);
  auto preset = benchutil::resolve_preset(cfg);

  benchutil::banner("Ablation A2 — MLP width/depth sweep", preset.name);

  // One shared dataset for the whole sweep.
  auto gen = preset.generator;
  gen.runs_per_combination = 1;
  gen.steps_per_run = std::min<size_t>(gen.steps_per_run, 100);
  std::printf("generating dataset (%zu samples) ...\n", gen.total_samples());
  auto dataset = data::DatasetGenerator(gen).generate();
  math::Rng rng(778);
  const size_t n_test = dataset.size() / 10;
  auto parts = dataset.split({dataset.size() - n_test, n_test}, rng);
  auto normalizer = data::MinMaxNormalizer::fit(parts[0]);
  auto train_n = normalizer.apply_dataset(parts[0]);
  auto test_n = normalizer.apply_dataset(parts[1]);

  struct Case {
    size_t hidden, depth;
  };
  std::vector<Case> cases = {{32, 3}, {64, 3}, {128, 3}, {256, 3}, {128, 1}, {128, 5}};

  const std::string out = benchutil::resolve_artifacts(cfg) + "/ablation_arch_" +
                          preset.name + ".csv";
  util::CsvWriter csv(out, {"hidden", "depth", "params", "mae", "max_error",
                            "train_seconds", "inference_us"});

  std::printf("\n%-8s %-7s %-10s %-10s %-11s %-9s %-12s\n", "hidden", "depth", "params",
              "MAE", "max error", "train s", "infer (us)");
  benchutil::hrule(72);
  for (const auto& c : cases) {
    auto spec = preset.mlp;
    spec.hidden = c.hidden;
    spec.depth = c.depth;
    auto model = nn::build_mlp(spec);

    nn::TrainConfig tc = preset.train_mlp;
    tc.epochs = std::min<size_t>(tc.epochs, 20);
    nn::Adam adam(preset.learning_rate_mlp);
    nn::Trainer trainer(tc);
    util::Timer t;
    trainer.fit(model, adam, train_n);
    const double train_s = t.seconds();
    auto m = nn::Trainer::evaluate(model, test_n);

    // Single-sample inference latency (the per-PIC-step cost).
    nn::Tensor x({1, spec.input_dim});
    x.fill(0.5);
    nn::ExecutionContext ctx;
    util::Timer ti;
    const int reps = 200;
    for (int r = 0; r < reps; ++r) {
      auto y = model.predict(ctx, x);
      (void)y;
    }
    const double infer_us = ti.seconds() / reps * 1e6;

    std::printf("%-8zu %-7zu %-10zu %-10.5f %-11.5f %-9.1f %-12.1f\n", c.hidden, c.depth,
                model.parameter_count(), m.mae, m.max_error, train_s, infer_us);
    csv.row({static_cast<double>(c.hidden), static_cast<double>(c.depth),
             static_cast<double>(model.parameter_count()), m.mae, m.max_error, train_s,
             infer_us});
  }
  benchutil::hrule(72);
  std::printf("rows written to %s\n", out.c_str());
  return 0;
}
