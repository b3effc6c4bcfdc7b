// Data-parallel training demo (paper Sec. 3.4): ranks of the real
// distributed worker (dist::run_train_worker) train model replicas in this
// process over loopback TCP, with a synchronous ring all-reduce of
// gradients every step, then the alpha-beta performance model used to
// reason about cluster-scale runs. `mfn dist-train` runs the same worker
// as separate processes.
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "distributed/comm_model.h"

int main() {
  using namespace mfn;
  std::printf("Data-parallel MeshfreeFlowNet training\n");
  std::printf("======================================\n");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("hardware threads: %d\n\n", hw);

  for (int world : {1, 2}) {
    dist::DistTrainConfig cfg;
    cfg.world = world;
    cfg.steps = 10;
    cfg.batch_size = 2;
    cfg.adam.lr = 3e-3;
    cfg.seed = 9;
    const bench::LoopbackRun run = bench::run_loopback_dist_train(cfg);
    std::printf("world=%d: %6.2f patches/s, loss per step:", world,
                run.patches_per_sec);
    for (double l : run.root.step_loss) std::printf(" %.4f", l);
    std::printf("\n");
    // Every rank applies the same averaged update, so the replicas must end
    // bit-identical; rank 0 audits that through the workers' digests.
    if (run.root.final_world != world || run.root.digest_mismatches != 0) {
      std::fprintf(stderr,
                   "world=%d: final world %d, %d replica digest mismatches\n",
                   world, run.root.final_world, run.root.digest_mismatches);
      return 1;
    }
  }

  std::printf("\nalpha-beta model for a V100-class cluster (ring "
              "all-reduce, 70%% comm/compute overlap):\n");
  dist::CommModelConfig cm;  // defaults documented in comm_model.h
  auto curve = dist::model_scaling_curve({1, 8, 32, 128}, 1.0, cm);
  std::printf("%8s %12s %10s\n", "workers", "samples/s", "effcy");
  for (const auto& p : curve)
    std::printf("%8d %12.1f %9.2f%%\n", p.workers, p.throughput,
                100.0 * p.efficiency);
  std::printf("(paper: 96.80%% scaling efficiency at 128 GPUs)\n");
  return 0;
}
