// Shared infrastructure for the paper-reproduction benchmarks.
//
// Each bench_table*/bench_fig* binary regenerates one table or figure of
// the paper's evaluation (Sec. 5) at CPU-friendly scale. Set
// MFN_BENCH_SCALE=2 (or higher) to enlarge datasets/training toward the
// paper's configuration; the default (1) keeps every binary in the
// minutes range on a 2-core machine.
//
// Datasets are cached under ./bench_cache so repeated bench runs and
// different binaries share the expensive DNS solves.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/evaluation.h"
#include "core/losses.h"
#include "core/meshfree_flownet.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "distributed/tcp_channel.h"
#include "distributed/worker.h"

namespace mfn::bench {

/// Global scale knob (>= 1).
inline int scale() {
  if (const char* env = std::getenv("MFN_BENCH_SCALE")) {
    const int s = std::atoi(env);
    if (s >= 1) return s;
  }
  return 1;
}

/// The standard bench dataset geometry: HR (nt=32s, nz=32, nx=64s) with
/// dt=4, ds=4 super-resolution factors (paper: 400 frames of 128 x 512,
/// dt=4, ds=8 — scaled to CPU budgets, see EXPERIMENTS.md).
struct BenchDataset {
  static constexpr int kTimeFactor = 4;
  static constexpr int kSpaceFactor = 4;

  static data::DatasetConfig dataset_config(double Ra, std::uint64_t seed,
                                            solver::InitialCondition ic =
                                                solver::InitialCondition::kRandom) {
    data::DatasetConfig cfg;
    cfg.solver.Ra = Ra;
    cfg.solver.Pr = 1.0;
    cfg.solver.nx = 64;
    cfg.solver.nz = 33;
    cfg.solver.seed = seed;
    cfg.solver.ic = ic;
    cfg.spinup_time = 8.0;
    cfg.duration = 8.0;
    cfg.num_snapshots = 32 * scale();
    return cfg;
  }
};

/// Generate-or-load a dataset keyed by its physical/seed parameters.
inline data::Grid4D cached_dataset(const data::DatasetConfig& cfg,
                                   const std::string& tag) {
  namespace fs = std::filesystem;
  fs::create_directories("bench_cache");
  const std::string path =
      "bench_cache/" + tag + "_s" + std::to_string(scale()) + ".grid";
  if (fs::exists(path)) {
    std::printf("[data] cache hit: %s\n", path.c_str());
    return data::Grid4D::load_file(path);
  }
  std::printf("[data] running DNS for %s (Ra=%.1e, seed=%llu)...\n",
              tag.c_str(), cfg.solver.Ra,
              static_cast<unsigned long long>(cfg.solver.seed));
  data::Grid4D grid = data::generate_rb_dataset(cfg);
  grid.save_file(path);
  return grid;
}

inline data::SRPair cached_pair(double Ra, std::uint64_t seed,
                                const std::string& tag,
                                solver::InitialCondition ic =
                                    solver::InitialCondition::kRandom) {
  return data::make_sr_pair(
      cached_dataset(BenchDataset::dataset_config(Ra, seed, ic), tag),
      BenchDataset::kTimeFactor, BenchDataset::kSpaceFactor);
}

/// The standard bench-scale MeshfreeFlowNet (paper-shaped, CPU-sized).
inline core::MFNConfig bench_model_config() {
  core::MFNConfig cfg;
  cfg.unet.in_channels = 4;
  cfg.unet.out_channels = 16;
  cfg.unet.base_filters = 8;
  cfg.unet.max_filters = 64;
  cfg.unet.pools = {{1, 2, 2}, {2, 2, 2}};
  cfg.decoder.latent_channels = 16;
  cfg.decoder.out_channels = 4;
  cfg.decoder.hidden = {32, 32};
  cfg.decoder.activation = nn::Activation::kSoftplus;
  return cfg;
}

inline data::PatchSamplerConfig bench_patch_config() {
  data::PatchSamplerConfig cfg;
  cfg.patch_nt = 4;
  cfg.patch_nz = 8;
  cfg.patch_nx = 8;
  cfg.queries_per_patch = 384;
  return cfg;
}

inline core::TrainerConfig bench_trainer_config(double gamma,
                                                std::uint64_t seed = 0) {
  core::TrainerConfig cfg;
  cfg.epochs = 50 * scale();
  cfg.batches_per_epoch = 16;
  cfg.gamma = gamma;
  cfg.adam.lr = 3e-3;
  cfg.grad_clip = 5.0;
  cfg.lr_decay = 0.97;
  cfg.seed = seed;
  return cfg;
}

inline core::EquationLossConfig equation_config(
    const data::PatchSampler& sampler, double Ra, double Pr = 1.0) {
  core::EquationLossConfig eq;
  eq.constants = core::RBConstants::from_ra_pr(Ra, Pr);
  eq.cell_size = sampler.lr_cell_size();
  eq.stats = sampler.stats();
  return eq;
}

/// Train a fresh model on the given samplers; returns it.
inline std::unique_ptr<core::MeshfreeFlowNet> train_model(
    const std::vector<const data::PatchSampler*>& samplers,
    const core::EquationLossConfig& eq, double gamma,
    std::uint64_t seed = 0) {
  Rng rng(seed + 41);
  auto model =
      std::make_unique<core::MeshfreeFlowNet>(bench_model_config(), rng);
  core::Trainer trainer(*model, samplers, eq,
                        bench_trainer_config(gamma, seed));
  trainer.train();
  return model;
}

/// One in-process data-parallel job and its measured throughput.
struct LoopbackRun {
  dist::DistTrainResult root;     ///< rank 0's result
  double seconds = 0.0;           ///< wall time until rank 0 returns
  double patches_per_sec = 0.0;   ///< committed global patches per second
};

/// Run a `base.world`-rank dist::run_train_worker job in this process:
/// ranks 1..world-1 on their own threads, rank 0 on the caller, talking
/// over loopback TCP exactly as the processes of `mfn dist-train` do.
/// Rank 0 insists on the full world (min_world), so the timing never
/// covers a straggler subset. The rendezvous port is picked here. Every
/// rank's thread is joined before the first failure (rank 0's first) is
/// rethrown.
inline LoopbackRun run_loopback_dist_train(dist::DistTrainConfig base) {
  base.port = dist::pick_free_port();
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(base.world));
  auto run_rank = [&errors](const dist::DistTrainConfig& c,
                            dist::DistTrainResult* out) {
    try {
      dist::DistTrainResult r = dist::run_train_worker(c);
      if (out != nullptr) *out = std::move(r);
    } catch (...) {
      errors[static_cast<std::size_t>(c.rank)] = std::current_exception();
    }
  };
  std::vector<std::thread> peers;
  Stopwatch sw;
  for (int r = 1; r < base.world; ++r) {
    dist::DistTrainConfig c = base;
    c.rank = r;
    peers.emplace_back(run_rank, c, nullptr);
  }
  dist::DistTrainConfig c0 = base;
  c0.rank = 0;
  c0.min_world = base.world;
  LoopbackRun run;
  run_rank(c0, &run.root);
  run.seconds = sw.seconds();
  for (auto& t : peers) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  run.patches_per_sec = static_cast<double>(run.root.step_loss.size()) *
                        base.world * base.batch_size / run.seconds;
  return run;
}

}  // namespace mfn::bench
