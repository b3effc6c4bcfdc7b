// Effective-batch emulation of synchronous data parallelism (paper Sec.
// 3.4 / 5.4) for world sizes beyond the machine's core count.
//
// Real multi-worker training (ring allreduce over TCP, one process or
// thread per rank) lives in worker.h; this single-model emulation feeds
// the Fig. 7b/7c convergence curves, where only the averaged-gradient
// semantics matter.
#pragma once

#include <vector>

#include "core/losses.h"
#include "core/meshfree_flownet.h"
#include "data/dataset.h"
#include "optim/adam.h"

namespace mfn::dist {

/// Emulate W-way synchronous data parallelism on a single model with one
/// true minibatch step over a (W, ...) patch stack per update: the losses
/// reduce over all W * queries rows, so the gradient equals the average
/// of W workers' gradients. Returns the mean loss per epoch.
std::vector<double> train_effective_batch(
    core::MeshfreeFlowNet& model, const data::PatchSampler& sampler,
    const core::EquationLossConfig& eq_config, int world_size, int epochs,
    int patches_per_epoch, const optim::AdamConfig& adam,
    double gamma = 0.0, std::uint64_t seed = 0);

}  // namespace mfn::dist
