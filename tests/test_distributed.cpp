// Distributed tests that need no network: the alpha-beta scaling model
// and the effective-batch emulation behind the Fig. 7b/7c curves. The TCP
// ring all-reduce is tested in test_tcp_channel, the multi-rank trainer in
// test_dist_train.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/losses.h"
#include "core/meshfree_flownet.h"
#include "data/dataset.h"
#include "distributed/comm_model.h"
#include "distributed/data_parallel.h"

namespace mfn::dist {
namespace {

TEST(CommModel, SingleWorkerHasNoComm) {
  CommModelConfig cfg;
  EXPECT_EQ(ring_allreduce_seconds(1, 1e6, cfg), 0.0);
  EXPECT_NEAR(step_seconds(1, cfg), cfg.compute_time, 1e-12);
}

TEST(CommModel, CommGrowsWithWorldSize) {
  CommModelConfig cfg;
  EXPECT_LT(ring_allreduce_seconds(2, 4e6, cfg),
            ring_allreduce_seconds(64, 4e6, cfg));
}

TEST(CommModel, BandwidthTermSaturates) {
  // 2(W-1)/W -> 2: the bandwidth term approaches a constant for large W.
  CommModelConfig cfg;
  cfg.alpha = 0.0;
  const double t128 = ring_allreduce_seconds(128, 4e6, cfg);
  const double t1024 = ring_allreduce_seconds(1024, 4e6, cfg);
  EXPECT_NEAR(t128, t1024, t128 * 0.01);
}

TEST(CommModel, ScalingCurveShape) {
  CommModelConfig cfg;  // defaults tuned to the paper's ~97% at 128
  auto curve = model_scaling_curve({1, 2, 4, 8, 16, 32, 64, 128}, 512, cfg);
  ASSERT_EQ(curve.size(), 8u);
  EXPECT_NEAR(curve[0].efficiency, 1.0, 1e-9);
  // efficiency decreases monotonically but stays high (paper: 96.8%)
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].efficiency, curve[i - 1].efficiency + 1e-12);
    EXPECT_GT(curve[i].efficiency, 0.90);
  }
  EXPECT_GT(curve.back().efficiency, 0.93);
  // throughput is near-linear in W
  EXPECT_GT(curve.back().throughput, 100.0 * curve[0].throughput);
}

TEST(CommModel, EpochSecondsScalesDown) {
  CommModelConfig cfg;
  const double t1 = epoch_seconds(1, 128, cfg);
  const double t16 = epoch_seconds(16, 128, cfg);
  EXPECT_GT(t1, 10.0 * t16);  // near-linear epoch speedup
}

// ---- effective-batch training on a tiny dataset ----
class DataParallelIntegration : public ::testing::Test {
 protected:
  static data::SRPair& pair() {
    static data::SRPair p = [] {
      data::DatasetConfig dcfg;
      dcfg.solver.nx = 32;
      dcfg.solver.nz = 17;
      dcfg.solver.Ra = 1e5;
      dcfg.solver.seed = 5;
      dcfg.spinup_time = 5.0;
      dcfg.duration = 2.0;
      dcfg.num_snapshots = 8;
      return data::make_sr_pair(data::generate_rb_dataset(dcfg), 2, 2);
    }();
    return p;
  }

  static core::MFNConfig tiny_config() {
    core::MFNConfig cfg = core::MFNConfig::small_default();
    cfg.unet.base_filters = 4;
    cfg.unet.out_channels = 8;
    cfg.unet.pools = {{1, 2, 2}};
    cfg.decoder.latent_channels = 8;
    cfg.decoder.hidden = {16};
    return cfg;
  }

  static data::PatchSamplerConfig patch_config() {
    data::PatchSamplerConfig pcfg;
    pcfg.patch_nt = 2;
    pcfg.patch_nz = 4;
    pcfg.patch_nx = 4;
    pcfg.queries_per_patch = 32;
    return pcfg;
  }
};

TEST_F(DataParallelIntegration, EffectiveBatchEmulationTrains) {
  Rng rng(2);
  core::MeshfreeFlowNet model(tiny_config(), rng);
  data::PatchSampler sampler(pair(), patch_config());
  core::EquationLossConfig eq;
  eq.constants = core::RBConstants::from_ra_pr(1e5, 1.0);
  eq.cell_size = sampler.lr_cell_size();
  eq.stats = pair().stats;

  auto hist = train_effective_batch(model, sampler, eq, /*world=*/4,
                                    /*epochs=*/3, /*patches_per_epoch=*/8,
                                    optim::AdamConfig{.lr = 3e-3});
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_LT(hist.back(), hist.front());
}

}  // namespace
}  // namespace mfn::dist
