// train_pde: physics-loss training (gamma > 0) on Rayleigh-Benard data the
// in-tree solver generates at set-up. About 90% of a step is the derivative
// decode and its backward, so jet and sampling work shows here; no serving
// code runs.
#include <cmath>
#include <memory>

#include "backend/workspace.h"
#include "common.h"
#include "core/losses.h"
#include "core/meshfree_flownet.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "optim/adam.h"
#include "optim/optimizer.h"

namespace perfbench {
namespace {

using namespace mfn;

/// Set-ups per untraced run; setup_s is their median. Each runs the DNS,
/// about 1.7 s.
constexpr int kSetupRepeats = 3;
constexpr int kBatch = 4;
constexpr std::int64_t kQueries = 384;
constexpr double kGamma = 0.0125;
/// Steps averaged into one "epoch" for the loss curve (TrainerConfig's
/// default batches_per_epoch).
constexpr std::size_t kEpochSteps = 12;
/// Steps excluded from step timings while the allocator cache fills.
constexpr std::size_t kWarmupSteps = 2;
/// Steps per window for the end-to-end figures (about 0.6 s of training).
/// Short windows keep some stall-free ones even when host interference
/// stalls one step in five.
constexpr std::size_t kWindowSteps = 10;
/// train.time_to_target_s is the wall time until a kEpochSteps-step
/// epoch-mean loss is at or below this.
constexpr double kTargetLoss = 0.6;
/// Gate: the last epoch-mean loss must be below the first by more than this.
/// The benchmark trains serially, which repeats exactly; 4-thread training
/// does not (runs of the same seed differed by up to 0.0028 per step), so
/// the margin is several times that spread and holds at either thread count.
constexpr double kLossDropTolerance = 0.01;

struct Setup {
  data::SRPair pair;
  std::unique_ptr<data::PatchSampler> sampler;
  core::EquationLossConfig eq;
  double dns_s = 0.0;
};

std::unique_ptr<Setup> make_setup(std::uint64_t seed, SpanRecorder* rec) {
  auto s = std::make_unique<Setup>();
  data::DatasetConfig dc;
  dc.solver.Ra = 1e6;
  dc.solver.Pr = 1.0;
  dc.solver.nx = 64;
  dc.solver.nz = 33;
  dc.solver.seed = seed;
  dc.spinup_time = 8.0;
  dc.duration = 8.0;
  dc.num_snapshots = 32;
  const Clock::time_point t0 = Clock::now();
  data::Grid4D hr = [&] {
    ScopedSpan span(rec, "solver.dns", 0);
    return data::generate_rb_dataset(dc);
  }();
  s->dns_s = seconds_since(t0);
  s->pair = data::make_sr_pair(hr, 4, 4);
  data::PatchSamplerConfig pc;
  pc.patch_nt = 4;
  pc.patch_nz = 8;
  pc.patch_nx = 8;
  pc.queries_per_patch = kQueries;
  s->sampler = std::make_unique<data::PatchSampler>(s->pair, pc);
  s->eq.constants = core::RBConstants::from_ra_pr(1e6, 1.0);
  s->eq.cell_size = s->sampler->lr_cell_size();
  s->eq.stats = s->pair.stats;
  return s;
}

core::TrainerConfig trainer_config(std::uint64_t seed) {
  core::TrainerConfig tc;
  tc.epochs = 1;
  tc.batches_per_epoch = 1;  // one run_epoch() call == one timed step
  tc.batch_size = kBatch;
  tc.gamma = kGamma;
  tc.seed = seed;
  return tc;
}

std::unique_ptr<core::MeshfreeFlowNet> make_model(std::uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<core::MeshfreeFlowNet>(
      core::MFNConfig::small_default(), rng);
}

/// Means of consecutive kEpochSteps-step groups (a partial tail is dropped).
std::vector<double> epoch_means(const std::vector<double>& losses) {
  std::vector<double> out;
  for (std::size_t i = 0; i + kEpochSteps <= losses.size(); i += kEpochSteps) {
    double sum = 0.0;
    for (std::size_t j = i; j < i + kEpochSteps; ++j) sum += losses[j];
    out.push_back(sum / static_cast<double>(kEpochSteps));
  }
  return out;
}

struct TrainRun {
  std::vector<double> step_ms;  // every step, warm-up included
  std::vector<double> loss;
  double time_to_target_s = -1.0;
};

/// Untraced: the public Trainer, one step per run_epoch(), for `seconds`.
TrainRun train_untraced(const Setup& s, std::uint64_t seed, double seconds,
                        double target_loss) {
  auto model = make_model(seed);
  core::Trainer trainer(*model, *s.sampler, s.eq, trainer_config(seed));
  TrainRun r;
  const Clock::time_point t0 = Clock::now();
  double epoch_sum = 0.0;
  while (seconds_since(t0) < seconds) {
    const core::EpochStats st = trainer.run_epoch();
    r.step_ms.push_back(st.wall_seconds * 1e3);
    r.loss.push_back(st.total_loss);
    epoch_sum += st.total_loss;
    if (r.loss.size() % kEpochSteps == 0) {
      if (r.time_to_target_s < 0.0 &&
          epoch_sum / static_cast<double>(kEpochSteps) <= target_loss)
        r.time_to_target_s = seconds_since(t0);
      epoch_sum = 0.0;
    }
  }
  return r;
}

struct TracedStep {
  double tensor_allocs = 0.0;
  double heap_allocs = 0.0;
};

/// Traced: the same step as Trainer::run_epoch, spelled out through the
/// public calls it is built from (predict_with_derivatives is encode
/// followed by decode_with_derivatives), with a span around each layer.
/// Starts from the same weights and sampling stream as a fresh Trainer.
class TracedTrainer {
 public:
  TracedTrainer(const Setup& s, std::uint64_t seed)
      : s_(s),
        tc_(trainer_config(seed)),
        model_(make_model(seed)),
        adam_(model_->parameters(), tc_.adam),
        rng_(tc_.seed * 0x51ED2701ull + 77ull) {
    model_->set_training(true);
  }

  void step(std::size_t i, SpanRecorder& rec, TrainRun* r,
            std::vector<TracedStep>* allocs) {
    const Clock::time_point ts = Clock::now();
    ScopedSpan step(&rec, "train.step", i);
    rng_.uniform_int(0, 1);  // Trainer's sampler pick (one sampler)
    data::BatchedSample batch = [&] {
      ScopedSpan sp(&rec, "data.sample", i);
      return s_.sampler->sample_batch(tc_.batch_size, rng_);
    }();
    {
      ScopedSpan sp(&rec, "optim.step", i);
      adam_.zero_grad();
    }
    ad::Var latent = [&] {
      ScopedSpan sp(&rec, "nn.encode_fwd", i);
      return model_->encode(batch.lr_patches);
    }();
    core::DecodeDerivs d = [&] {
      ScopedSpan sp(&rec, "core.decoder.jet_fwd", i);
      return model_->decoder().decode_with_derivatives(latent,
                                                       batch.query_coords);
    }();
    ad::Var loss = [&] {
      ScopedSpan sp(&rec, "core.losses.residual", i);
      ad::Var lp = core::prediction_loss(d.value, batch.targets);
      core::EquationResiduals res = core::equation_loss(d, s_.eq);
      return ad::add(lp,
                     ad::mul_scalar(res.total, static_cast<float>(tc_.gamma)));
    }();
    {
      ScopedSpan sp(&rec, "autodiff.backward", i);
      ad::backward(loss);
    }
    {
      ScopedSpan sp(&rec, "optim.step", i);
      optim::clip_grad_norm(adam_.params(), tc_.grad_clip);
      adam_.step();
    }
    backend::CachingAllocator::instance().next_step();
    const auto st = backend::CachingAllocator::instance().stats();
    allocs->push_back({static_cast<double>(st.allocs_last_step),
                       static_cast<double>(st.heap_allocs_last_step)});
    r->loss.push_back(loss.value().item());
    r->step_ms.push_back(ms_between(ts, Clock::now()));
  }

 private:
  const Setup& s_;
  const core::TrainerConfig tc_;
  std::unique_ptr<core::MeshfreeFlowNet> model_;
  optim::Adam adam_;
  Rng rng_;
};

std::vector<double> drop_warmup(const std::vector<double>& v) {
  if (v.size() <= kWarmupSteps) return v;
  return std::vector<double>(v.begin() + kWarmupSteps, v.end());
}

bool all_finite(const std::vector<double>& v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

void loss_gates(Result& res, const std::vector<double>& loss) {
  res.gate(all_finite(loss), "train_pde: every step loss is finite");
  const std::vector<double> ep = epoch_means(loss);
  res.gate(ep.size() >= 2, "train_pde: at least two loss epochs ran");
  if (ep.size() >= 2)
    res.gate(ep.back() < ep.front() - kLossDropTolerance,
             "train_pde: last epoch-mean loss is below the first by more "
             "than the 4-thread spread tolerance");
}

}  // namespace

Result run_train_pde(const Options& opt) {
  Result res;
  if (!opt.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Setup> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point t0 = Clock::now();
      setup = make_setup(opt.seed, nullptr);
      setup_s.push_back(seconds_since(t0));
    }
    const TrainRun r =
        train_untraced(*setup, opt.seed, opt.seconds, kTargetLoss);
    const std::vector<double> timed = drop_warmup(r.step_ms);
    const Summary step = summarize(timed);
    const WindowFigures fig = back_to_back_figures(timed, kWindowSteps);
    const double patches_per_s = fig.per_s * kBatch;
    const double step_p50 = fig.p50;
    const double step_p90 = fig.p90;
    const double final_loss =
        epoch_means(r.loss).empty() ? r.loss.back() : epoch_means(r.loss).back();

    res.attempted = r.loss.size();
    res.failed = 0;
    loss_gates(res, r.loss);
    res.gate(step.tail_p > 0.0, "train_pde: enough steps for a tail percentile");

    const double ok = res.correct ? 1.0 : 0.0;
    res.metric("setup_s", median(setup_s), "s", setup_s.size());
    res.metric("ok_ratio", ok, "ratio", r.loss.size());
    res.metric("throughput_per_s", patches_per_s, "1/s", timed.size());
    res.metric("p50_ms", step_p50, "ms", step.n);
    res.metric("p90_ms", step_p90, "ms", step.n);

    res.info("train.patches_per_s", patches_per_s, "1/s", timed.size());
    res.info("train.step_p50_ms", step_p50, "ms", step.n);
    res.info("train.step_p90_ms", step_p90, "ms", step.n);
    res.info("train.step_p" + std::to_string(int(step.tail_p)) + "_ms.pooled",
             step.tail, "ms", step.n);
    res.info("train.time_to_target_s", r.time_to_target_s, "s");
    res.info("train.final_loss", final_loss, "loss", kEpochSteps);
    res.info("solver.dns_s", setup->dns_s, "s");
    if (r.time_to_target_s < 0.0)
      res.notes.push_back("train.time_to_target_s: target loss not reached "
                          "within the run (reported as -1)");
    return res;
  }

  // Traced run: untraced Trainer steps and traced steps alternate (so host
  // noise hits both alike), each from an identical model and sampling
  // stream; the untraced ones give phase coverage, the tracing overhead
  // and the loss comparison.
  SpanRecorder rec;
  std::unique_ptr<Setup> setup = make_setup(opt.seed, &rec);
  auto plain_model = make_model(opt.seed);
  core::Trainer trainer(*plain_model, *setup->sampler, setup->eq,
                        trainer_config(opt.seed));
  TracedTrainer traced_trainer(*setup, opt.seed);
  TrainRun plain, traced;
  std::vector<TracedStep> allocs;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; seconds_since(t0) < opt.seconds; ++i) {
    const core::EpochStats st = trainer.run_epoch();
    plain.step_ms.push_back(st.wall_seconds * 1e3);
    plain.loss.push_back(st.total_loss);
    traced_trainer.step(i, rec, &traced, &allocs);
  }

  const std::vector<Span> spans = rec.spans();
  const std::vector<double> self = self_times(spans);
  std::vector<Span> step_spans;  // only the timed (post-warm-up) steps
  std::vector<double> step_self;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name != "solver.dns" && spans[i].request >= kWarmupSteps) {
      step_spans.push_back(spans[i]);
      step_self.push_back(self[i]);
    }
  const double untraced_p50 = median(drop_warmup(plain.step_ms));
  const double traced_p50 = median(drop_warmup(traced.step_ms));
  double phase_sum = 0.0;
  for (const auto& [name, metric] :
       std::vector<std::pair<std::string, std::string>>{
           {"data.sample", "data.sample_ms"},
           {"nn.encode_fwd", "nn.encode_fwd_ms"},
           {"core.decoder.jet_fwd", "core.decoder.jet_fwd_ms"},
           {"core.losses.residual", "core.losses.residual_ms"},
           {"autodiff.backward", "autodiff.backward_ms"},
           {"optim.step", "optim.step_ms"}}) {
    const double ms = per_request_self_ms(step_spans, step_self, name);
    phase_sum += ms;
    res.metric(metric, ms, "ms", traced.loss.size() - kWarmupSteps);
  }
  std::vector<double> tensor_allocs, heap_allocs;
  for (std::size_t i = kWarmupSteps; i < allocs.size(); ++i) {
    tensor_allocs.push_back(allocs[i].tensor_allocs);
    heap_allocs.push_back(allocs[i].heap_allocs);
  }
  res.metric("backend.tensor_allocs_per_step", median(tensor_allocs), "count",
             tensor_allocs.size());
  res.metric("backend.heap_allocs_per_step", median(heap_allocs), "count",
             heap_allocs.size());
  res.metric("train.phase_coverage", phase_sum / untraced_p50, "ratio");
  res.metric("solver.dns_s", setup->dns_s, "s");
  res.metric("bench.trace_overhead_pct", overhead_pct(traced_p50, untraced_p50),
             "%");

  double max_loss_gap = 0.0;
  for (std::size_t i = 0; i < traced.loss.size(); ++i)
    max_loss_gap = std::max(max_loss_gap,
                            std::fabs(traced.loss[i] - plain.loss[i]));
  res.attempted = plain.loss.size() + traced.loss.size();
  loss_gates(res, plain.loss);
  loss_gates(res, traced.loss);
  res.info("train.step_p50_ms.untraced", untraced_p50, "ms",
           plain.step_ms.size());
  res.info("train.step_p50_ms.traced", traced_p50, "ms",
           traced.step_ms.size());
  res.info("train.final_loss.untraced", plain.loss.back(), "loss");
  res.info("train.final_loss.traced", traced.loss.back(), "loss");
  res.info("train.max_step_loss_gap", max_loss_gap, "loss",
           traced.loss.size());
  rec.dump(opt.work_dir + "/spans-train_pde.jsonl");
  return res;
}

}  // namespace perfbench
