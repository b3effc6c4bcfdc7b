#include "distributed/data_parallel.h"

#include <algorithm>

#include "common/error.h"
#include "core/trainer.h"

namespace mfn::dist {

std::vector<double> train_effective_batch(
    core::MeshfreeFlowNet& model, const data::PatchSampler& sampler,
    const core::EquationLossConfig& eq_config, int world_size, int epochs,
    int patches_per_epoch, const optim::AdamConfig& adam, double gamma,
    std::uint64_t seed) {
  MFN_CHECK(world_size >= 1, "world size must be >= 1");
  optim::Adam opt(model.parameters(), adam);
  Rng rng(seed * 0x2545F491ull + 4ull);
  model.set_training(true);
  const int steps_per_epoch = std::max(1, patches_per_epoch / world_size);

  std::vector<double> epoch_loss;
  for (int e = 0; e < epochs; ++e) {
    double loss_sum = 0.0;
    for (int s = 0; s < steps_per_epoch; ++s) {
      opt.zero_grad();
      // One true minibatch of W worker patches: the losses reduce over all
      // W * queries_per_patch rows, so the gradient equals the W-average
      // the serial replay used to accumulate.
      data::BatchedSample batch = sampler.sample_batch(world_size, rng);
      core::StepLoss step =
          core::batched_step_loss(model, batch, eq_config, gamma);
      ad::backward(step.loss);
      opt.step();
      loss_sum += step.loss.value().item();
    }
    epoch_loss.push_back(loss_sum / steps_per_epoch);
  }
  return epoch_loss;
}

}  // namespace mfn::dist
