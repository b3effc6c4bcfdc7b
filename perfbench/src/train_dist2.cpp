// train_dist2: data-parallel training at world 2, two in-process ranks of
// dist::run_train_worker over loopback TCP, with gamma = 0. The only
// workload that runs distributed/ (channel, elastic ring, worker); without
// the derivative decode it is the control for jet work.
#include <cmath>
#include <memory>
#include <thread>

#include <unistd.h>

#include "common.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "distributed/elastic.h"
#include "distributed/tcp_channel.h"
#include "distributed/worker.h"
#include "optim/adam.h"

namespace perfbench {
namespace {

using namespace mfn;

/// Set-ups per untraced run; setup_s is their median. A set-up is one
/// 1-step job, about 50 ms, so many are cheap.
constexpr int kSetupRepeats = 9;
constexpr int kWorld = 2;
/// Patches per rank per step: enough compute (about 14 ms per rank) that
/// loopback message latency and thread wake-ups are a small share of a step.
/// At 2 patches a step took about 2 ms and its time swung by 40% between
/// runs of the same code.
constexpr int kBatch = 16;
/// Jobs run in pairs, a short one and a long one. Each job's wall time
/// includes its start-up (model and data on both ranks, rendezvous with
/// its dial back-off); the pair's difference over the difference in steps
/// is the time of a step alone.
constexpr int kShortSteps = 4;
constexpr int kLongSteps = 40;
/// Pairs per window for the end-to-end figures (about 4 s).
constexpr std::size_t kWindowPairs = 3;

/// A free loopback port for rank 0's rendezvous, taken from [20000, 32000):
/// below Linux's ephemeral range, so no ephemeral bind (rank 1's listener,
/// a dialing socket) can take it between this probe and rank 0's own bind.
int rendezvous_port() {
  constexpr int kBase = 20000, kSpan = 12000;
  static int next = static_cast<int>(::getpid() % kSpan);
  for (int i = 0; i < kSpan; ++i) {
    const int port = kBase + (next++ % kSpan);
    try {
      dist::TcpSocket::listen_on("127.0.0.1", port);
      return port;
    } catch (const std::exception&) {
      // in use; try the next one
    }
  }
  throw std::runtime_error("no free rendezvous port in [20000, 32000)");
}

struct Job {
  double wall_s = 0.0;
  dist::DistTrainResult rank0;
  bool rank1_ok = false;
  std::string rank1_error;
};

/// One world-2 job: rank 0 and rank 1 on their own threads, to completion.
Job run_job(std::uint64_t seed, int steps) {
  dist::DistTrainConfig cfg;
  cfg.world = kWorld;
  cfg.port = rendezvous_port();
  cfg.steps = steps;
  cfg.batch_size = kBatch;
  cfg.gamma = 0.0;
  cfg.seed = seed;
  Job job;
  const Clock::time_point t0 = Clock::now();
  std::thread rank1([&] {
    dist::DistTrainConfig c = cfg;
    c.rank = 1;
    try {
      dist::run_train_worker(c);
      job.rank1_ok = true;
    } catch (const std::exception& e) {
      job.rank1_error = e.what();
    }
  });
  try {
    job.rank0 = dist::run_train_worker(cfg);
  } catch (...) {
    rank1.join();
    throw;
  }
  rank1.join();
  job.wall_s = seconds_since(t0);
  return job;
}

void job_gates(Result& res, const Job& job) {
  res.gate(job.rank1_ok,
           "train_dist2: rank 1 finished cleanly" +
               (job.rank1_error.empty() ? "" : " (" + job.rank1_error + ")"));
  res.gate(job.rank0.digest_mismatches == 0,
           "train_dist2: digest_mismatches == 0");
  res.gate(job.rank0.final_world == kWorld, "train_dist2: final_world == 2");
  res.gate(job.rank0.retries == 0, "train_dist2: retries == 0");
  bool finite = !job.rank0.step_loss.empty();
  for (const double l : job.rank0.step_loss) finite = finite && std::isfinite(l);
  res.gate(finite, "train_dist2: every step loss is finite");
}

struct Pairs {
  std::vector<double> step_ms;  // per pair: step time with start-up removed
  double final_loss = 0.0;
};

/// Back-to-back job pairs for `seconds` into `plain`. With a recorder,
/// every other pair runs inside "dist.job" spans and goes to `traced`.
void run_pairs(Result& res, std::uint64_t seed, double seconds,
               SpanRecorder* rec, Pairs* plain, Pairs* traced) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i == 0 || seconds_since(t0) < seconds; ++i) {
    const bool trace = rec != nullptr && i % 2 == 1;
    Pairs& out = trace ? *traced : *plain;
    double wall_s[2] = {0.0, 0.0};
    for (const int steps : {kShortSteps, kLongSteps}) {
      const Job job = [&] {
        ScopedSpan span(trace ? rec : nullptr, "dist.job", i);
        return run_job(seed, steps);
      }();
      job_gates(res, job);
      wall_s[steps == kLongSteps] = job.wall_s;
      out.final_loss = job.rank0.step_loss.back();
    }
    out.step_ms.push_back((wall_s[1] - wall_s[0]) * 1e3 /
                          (kLongSteps - kShortSteps));
  }
}

/// One rank's compute phase spelled out: the worker's synthetic data and
/// model, then step loss + backward + Adam per step.
std::vector<double> time_compute(std::uint64_t seed, int steps,
                                 SpanRecorder& rec, std::int64_t* grad_elems) {
  Rng model_rng(seed);
  core::MeshfreeFlowNet model(dist::dist_tiny_model_config(), model_rng);
  model.set_training(true);
  dist::DistTrainConfig defaults;
  optim::Adam adam(model.parameters(), defaults.adam);
  data::SyntheticConfig scfg;
  scfg.seed = seed + 7;
  const data::SRPair pair =
      data::make_sr_pair(data::generate_synthetic_waves(scfg), 2, 2);
  data::PatchSamplerConfig pcfg;
  pcfg.queries_per_patch = 128;
  const data::PatchSampler sampler(pair, pcfg);
  const core::EquationLossConfig eq;
  Rng data_rng(seed * 0x9E3779B97F4A7C15ull + 1);
  *grad_elems = 0;
  for (ad::Var* p : model.parameters()) *grad_elems += p->value().numel();
  std::vector<double> ms;
  for (int i = 0; i < steps; ++i) {
    data::BatchedSample batch = sampler.sample_batch(kBatch, data_rng);
    ScopedSpan span(&rec, "distributed.compute", static_cast<std::uint64_t>(i));
    const Clock::time_point t0 = Clock::now();
    adam.zero_grad();
    core::StepLoss step = core::batched_step_loss(model, batch, eq, 0.0);
    ad::backward(step.loss);
    adam.step();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return ms;
}

/// ring_allreduce_average at the model's gradient size over a world-2 ring
/// of two in-process channels.
std::vector<double> time_allreduce(std::int64_t count, int reps,
                                   SpanRecorder& rec) {
  std::vector<std::unique_ptr<dist::TcpChannel>> ch;
  dist::Ring ring;
  ring.epoch = 1;
  for (int r = 0; r < kWorld; ++r) {
    ch.push_back(std::make_unique<dist::TcpChannel>(r, dist::TcpChannelConfig{}));
    ring.members.push_back(
        dist::Member{r, static_cast<std::int32_t>(ch.back()->listen_port())});
  }
  std::vector<std::vector<float>> buf(kWorld,
                                      std::vector<float>(std::size_t(count)));
  std::vector<double> ms;
  std::string error;
  std::thread peer([&] {
    try {
      dist::establish_ring(*ch[1], ring, 4000);
      for (int i = 0; i < reps; ++i) {
        std::fill(buf[1].begin(), buf[1].end(), 1.0f);
        dist::ring_allreduce_average(*ch[1], ring, buf[1].data(), count, 4000);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  try {
    dist::establish_ring(*ch[0], ring, 4000);
    for (int i = 0; i < reps; ++i) {
      std::fill(buf[0].begin(), buf[0].end(), 3.0f);
      ScopedSpan span(&rec, "distributed.allreduce", static_cast<std::uint64_t>(i));
      const Clock::time_point t0 = Clock::now();
      dist::ring_allreduce_average(*ch[0], ring, buf[0].data(), count, 4000);
      ms.push_back(ms_between(t0, Clock::now()));
    }
  } catch (...) {
    peer.join();
    throw;
  }
  peer.join();
  if (!error.empty()) throw std::runtime_error("allreduce peer: " + error);
  for (const float v : buf[0])
    if (v != 2.0f) throw std::runtime_error("allreduce average is not 2");
  return ms;
}

}  // namespace

Result run_train_dist2(const Options& opt) {
  Result res;
  std::vector<double> setup_s;
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    // Set-up = time to a first committed step: rendezvous, model and data
    // construction on both ranks, one step.
    const Clock::time_point t0 = Clock::now();
    job_gates(res, run_job(opt.seed, 1));
    setup_s.push_back(seconds_since(t0));
  }

  SpanRecorder rec;
  Pairs pairs, traced;
  run_pairs(res, opt.seed, opt.seconds, opt.trace ? &rec : nullptr, &pairs,
            &traced);
  // Windows of kWindowPairs pairs; the per-step rate times patches per step.
  const WindowFigures fig = back_to_back_figures(pairs.step_ms, kWindowPairs);
  const double patches_per_s = fig.per_s * kWorld * kBatch;
  const Summary step = summarize(pairs.step_ms);
  const std::size_t jobs = 2 * (pairs.step_ms.size() + traced.step_ms.size());
  res.attempted = jobs;
  res.failed = res.correct ? 0 : jobs;
  res.info("dist.patches_per_s", patches_per_s, "1/s", pairs.step_ms.size());
  res.info("dist.final_loss", pairs.final_loss, "loss", 1);
  res.info("dist.step_p50_ms", fig.p50, "ms", step.n);
  res.info("dist.step_p" + std::to_string(int(step.tail_p)) + "_ms.pooled",
           step.tail, "ms", step.n);
  if (!opt.trace) {
    res.metric("setup_s", median(setup_s), "s", setup_s.size());
    res.metric("ok_ratio", res.correct ? 1.0 : 0.0, "ratio", jobs);
    res.metric("throughput_per_s", patches_per_s, "1/s", step.n);
    res.metric("p50_ms", fig.p50, "ms", step.n);
    res.metric("p90_ms", fig.p90, "ms", step.n);
    return res;
  }

  std::int64_t grad_elems = 0;
  const std::vector<double> compute = time_compute(opt.seed, 40, rec, &grad_elems);
  const std::vector<double> allreduce = time_allreduce(grad_elems, 100, rec);
  const double grad_bytes = double(grad_elems) * sizeof(float);
  res.metric("distributed.allreduce_ms", median(allreduce), "ms",
             allreduce.size());
  res.metric("distributed.compute_ms", median(compute), "ms", compute.size());
  res.metric("distributed.bytes_per_step",
             2.0 * (kWorld - 1) / kWorld * grad_bytes, "B");
  res.metric("bench.trace_overhead_pct",
             overhead_pct(median(traced.step_ms), step.p50), "%");
  rec.dump(opt.work_dir + "/spans-train_dist2.jsonl");
  return res;
}

}  // namespace perfbench
