// Training loop for MeshfreeFlowNet: Adam on L = Lp + gamma * Le over
// randomly sampled LR patches and query points (paper Sec. 5: Adam,
// random samples per epoch).
#pragma once

#include <vector>

#include "core/losses.h"
#include "core/meshfree_flownet.h"
#include "data/dataset.h"
#include "optim/adam.h"

namespace mfn::core {

struct TrainerConfig {
  int epochs = 20;
  /// Optimization steps (minibatches) per epoch.
  int batches_per_epoch = 12;
  /// Patches per minibatch: each Adam step runs on a stacked
  /// (batch_size, C, lt, lz, lx) input with batch_size *
  /// sampler.queries_per_patch query rows.
  int batch_size = 1;
  /// Equation-loss weight gamma (paper's ablation: gamma* = 0.0125).
  double gamma = 0.0125;
  optim::AdamConfig adam{.lr = 1e-3};
  /// Global gradient-norm clip (0 disables).
  double grad_clip = 5.0;
  /// Multiplicative learning-rate decay applied after every epoch
  /// (1.0 disables).
  double lr_decay = 1.0;
  std::uint64_t seed = 0;
};

struct EpochStats {
  double total_loss = 0.0;
  double pred_loss = 0.0;
  double eq_loss = 0.0;
  double wall_seconds = 0.0;
};

/// Loss of one (possibly batched) training forward: L = Lp + gamma * Le,
/// with both terms reduced over all N*Q query rows of the minibatch. This
/// is the single step used by Trainer, dist::train_effective_batch, and
/// the distributed worker (dist::run_train_worker).
struct StepLoss {
  ad::Var loss;        ///< scalar total, ready for ad::backward
  double pred = 0.0;   ///< prediction-term value
  double eq = 0.0;     ///< equation-term value (0 when gamma == 0)
};

StepLoss batched_step_loss(MeshfreeFlowNet& model,
                           const data::BatchedSample& batch,
                           const EquationLossConfig& eq_config,
                           double gamma);

class Trainer {
 public:
  /// The sampler may draw from several concatenated datasets (multi-IC /
  /// multi-Ra training); pass one sampler per dataset.
  Trainer(MeshfreeFlowNet& model,
          std::vector<const data::PatchSampler*> samplers,
          EquationLossConfig eq_config, TrainerConfig config);

  /// Convenience single-dataset constructor.
  Trainer(MeshfreeFlowNet& model, const data::PatchSampler& sampler,
          EquationLossConfig eq_config, TrainerConfig config);

  /// One pass of batches_per_epoch optimization steps.
  EpochStats run_epoch();

  /// Run config().epochs epochs; returns the per-epoch history.
  const std::vector<EpochStats>& train();

  const std::vector<EpochStats>& history() const { return history_; }
  const TrainerConfig& config() const { return config_; }
  MeshfreeFlowNet& model() { return *model_; }

 private:
  MeshfreeFlowNet* model_;
  std::vector<const data::PatchSampler*> samplers_;
  EquationLossConfig eq_config_;
  TrainerConfig config_;
  optim::Adam optimizer_;
  Rng rng_;
  std::vector<EpochStats> history_;
};

}  // namespace mfn::core
