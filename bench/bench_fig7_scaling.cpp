// Figure 7 reproduction: data-parallel scaling study.
//
// 7a — throughput vs number of workers: measured with in-process
//      dist::run_train_worker ranks over loopback TCP (the synchronous
//      ring-allreduce trainer `mfn dist-train` runs, on its small model)
//      for world sizes up to the core count, then the alpha-beta ring
//      all-reduce model (calibrated on the measured single-rank step time
//      and that model's gradient size) extrapolated to 128 workers.
//      Paper: 96.8% efficiency at 128.
// 7b — training loss vs epochs for 1 / 2 / 16 / 128 workers (fixed global
//      samples per epoch; large effective batch converges slightly worse,
//      the paper's 128-GPU anomaly).
// 7c — the same losses vs modeled wall time (more workers => much faster).
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "distributed/comm_model.h"
#include "distributed/data_parallel.h"

int main() {
  using namespace mfn;
  std::printf("=== Figure 7: scaling study ===\n");
  const double Ra = 1e6, Pr = 1.0;
  data::SRPair pair = bench::cached_pair(Ra, 1, "rb_ra1e6_seed1");
  data::PatchSampler sampler(pair, bench::bench_patch_config());
  core::EquationLossConfig eq = bench::equation_config(sampler, Ra, Pr);

  // ---- measured throughput: real ranks over loopback TCP ----
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("\n--- Fig 7a (measured, loopback TCP ranks, %d hardware "
              "threads) ---\n",
              hw);
  std::printf("%8s %14s %14s %10s\n", "workers", "samples/s", "ideal",
              "effcy");
  // One patch per rank per step, the unit Fig. 7b/7c's modeled steps use.
  dist::DistTrainConfig dcfg;
  dcfg.steps = 8 * bench::scale();
  dcfg.batch_size = 1;
  dcfg.seed = 5;
  double measured_step_time = 0.05;
  {
    double thr1 = 0.0;
    for (int w = 1; w <= std::max(2, std::min(hw, 4)); w *= 2) {
      dcfg.world = w;
      const bench::LoopbackRun run = bench::run_loopback_dist_train(dcfg);
      if (w == 1) {
        thr1 = run.patches_per_sec;
        measured_step_time = 1.0 / run.patches_per_sec;
      }
      const double ideal = thr1 * w;
      std::printf("%8d %14.2f %14.2f %9.1f%%\n", w, run.patches_per_sec,
                  ideal, 100.0 * run.patches_per_sec / ideal);
      std::fflush(stdout);
    }
  }

  // ---- modeled throughput to 128 workers (V100-class parameters) ----
  std::printf("\n--- Fig 7a (alpha-beta ring-allreduce model, calibrated "
              "compute %.3fs/step) ---\n",
              measured_step_time);
  dist::CommModelConfig cm;
  cm.compute_time = measured_step_time;
  {
    // gradient payload = the measured model's parameter count * 4 bytes
    Rng rng(6);
    core::MeshfreeFlowNet model(dist::dist_tiny_model_config(), rng);
    cm.gradient_bytes =
        static_cast<double>(model.num_parameters()) * sizeof(float);
  }
  std::printf("%8s %14s %14s %10s\n", "workers", "samples/s", "ideal",
              "effcy");
  auto curve = dist::model_scaling_curve({1, 2, 4, 8, 16, 32, 64, 128},
                                         /*samples_per_batch=*/1.0, cm);
  for (const auto& p : curve)
    std::printf("%8d %14.2f %14.2f %9.2f%%\n", p.workers, p.throughput,
                p.ideal_throughput, 100.0 * p.efficiency);
  std::printf("(paper: 96.80%% efficiency at 128 GPUs)\n");

  // ---- Fig 7b / 7c: loss vs epochs and vs modeled wall time ----
  const int epochs = 6 * bench::scale();
  const int patches_per_epoch = 128;
  const std::vector<int> worlds = {1, 2, 16, 128};
  std::printf("\n--- Fig 7b/7c: loss per epoch (columns: W=1, 2, 16, 128) "
              "---\n");
  std::vector<std::vector<double>> losses;
  for (int w : worlds) {
    Rng rng(7);
    core::MeshfreeFlowNet model(bench::bench_model_config(), rng);
    losses.push_back(dist::train_effective_batch(
        model, sampler, eq, w, epochs, patches_per_epoch,
        optim::AdamConfig{.lr = 3e-3}, /*gamma=*/0.0, /*seed=*/9));
    std::fflush(stdout);
  }
  std::printf("%6s", "epoch");
  for (int w : worlds) std::printf("  loss(W=%-3d)  t_wall(s)", w);
  std::printf("\n");
  for (int e = 0; e < epochs; ++e) {
    std::printf("%6d", e + 1);
    for (std::size_t wi = 0; wi < worlds.size(); ++wi) {
      const double t =
          (e + 1) * dist::epoch_seconds(worlds[wi], patches_per_epoch, cm);
      std::printf("  %11.5f  %9.2f",
                  losses[wi][static_cast<std::size_t>(e)], t);
    }
    std::printf("\n");
  }
  std::printf("\n(paper shape: similar loss-vs-epoch curves; wall time "
              "drops near-linearly with workers; the largest world size "
              "converges slightly worse per epoch)\n");
  return 0;
}
