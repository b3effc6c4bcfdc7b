// serve_hot: open-loop serving against a warm latent cache. One dispatcher
// thread sends Poisson arrivals at fixed absolute rates; one harvester
// thread collects the results. Every request hits the cache, so admission,
// batcher, plan replay and demux do all the work and encode does none.
#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "autodiff/variable.h"
#include "common.h"
#include "core/decode_plan.h"
#include "serving.h"

namespace perfbench {
namespace {

using namespace mfn;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Fixed absolute open-loop arrival rates (requests/s), never recalibrated
/// per run, so a capacity gain shows as a gain. They span the knee of the
/// serial engine (MFN_NUM_THREADS=1) on this host class (4 vCPU, avx512).
/// The first is the nominal (sub-knee) rate, the last the over-capacity
/// rate: about twice capacity, so the bounded queue stays full and goodput
/// is not capped by the offered rate.
constexpr std::array<double, 5> kRates = {250, 750, 1000, 1500, 4000};
constexpr double kNominalRps = kRates.front();
constexpr double kOverloadRps = kRates.back();
/// The nominal and the over-capacity steps carry the end-to-end figures, one
/// window per step, so each pass runs them several times; the rates between
/// only probe the SLO and run once. A p99 needs a thousand samples: two
/// passes pool that many at the nominal rate, three at every probe rate.
constexpr double kNominalStepSeconds = 1.0;
constexpr int kNominalSteps = 4;
constexpr double kOverloadStepSeconds = 0.5;
constexpr int kOverloadSteps = 4;
constexpr double kProbeStepSeconds = 0.5;
/// Gate: at most one nominal-rate step in kMaxDisturbedShare may have a
/// shed, expired or degraded request.
constexpr std::size_t kMaxDisturbedShare = 4;
constexpr double kSloP99Ms = 5.0;
constexpr double kDeadlineMs = 50.0;

constexpr int kPatches = 8;
constexpr int kCoordSets = 64;
/// Seconds of arrivals per ladder rate during set-up warm-up (fills the plan
/// cache at every flush shape and precision tier the ladder reaches).
constexpr double kWarmupSeconds = 0.15;
/// Every kSampleEvery-th answered nominal-rate request is kept and checked
/// against a direct predict after the run.
constexpr std::size_t kSampleEvery = 37;

struct Setup {
  std::unique_ptr<serve::InferenceEngine> engine;
  std::unique_ptr<core::MeshfreeFlowNet> reference;  // same weights, eval
  std::vector<Tensor> patches;
  std::vector<Tensor> coords;
};

struct Sampled {
  int patch = 0, coords = 0;
  Tensor out;
};

struct StepResult {
  std::size_t attempted = 0, ok = 0, ok_in_deadline = 0;
  std::size_t shed = 0, expired = 0, errors = 0;
  std::uint64_t degraded = 0;
  std::vector<double> latency_ms;  // answered requests, from due time
  std::vector<double> lag_ms;      // dispatcher lateness per request
  double schedule_s = 0.0;         // span of the arrival schedule
  bool backlog = false;
  std::vector<Sampled> samples;
};

struct LadderStep {
  double rate = 0.0, seconds = 0.0;
};

/// One pass over the ladder, in ascending rate order.
std::vector<LadderStep> pass_plan() {
  std::vector<LadderStep> plan;
  for (const double rate : kRates) {
    if (rate == kNominalRps)
      plan.insert(plan.end(), kNominalSteps, {rate, kNominalStepSeconds});
    else if (rate == kOverloadRps)
      plan.insert(plan.end(), kOverloadSteps, {rate, kOverloadStepSeconds});
    else
      plan.push_back({rate, kProbeStepSeconds});
  }
  return plan;
}

/// Per-step seeds: every input of step k of pass p is a function of these.
std::uint64_t step_seed(std::uint64_t seed, std::uint64_t pass,
                        std::uint64_t step) {
  return ((seed * 1000003ull + pass) * 7919ull + step) * 104729ull;
}

/// One open-loop step: `count` Poisson arrivals at `rate`. Latency runs
/// from each request's due time to the moment the harvester saw it done.
StepResult run_step(Setup& s, double rate, std::size_t count,
                    std::uint64_t seed, double deadline_ms, bool keep_samples,
                    std::uint64_t request_base, SpanRecorder* rec) {
  StepResult r;
  r.attempted = count;
  const std::vector<double> due_s = poisson_schedule(seed, rate, count);
  r.schedule_s = due_s.empty() ? 0.0 : due_s.back();
  std::vector<int> pick_patch(count), pick_coords(count);
  BenchRng pick(seed ^ 0xC0FFEEull);
  for (std::size_t i = 0; i < count; ++i) {
    pick_patch[i] = static_cast<int>(pick.below(kPatches));
    pick_coords[i] = static_cast<int>(pick.below(kCoordSets));
  }

  struct InFlight {
    std::size_t i;
    Clock::time_point due;
    std::future<Tensor> fut;
    int span;
  };
  std::mutex mu;
  std::vector<InFlight> handoff;
  bool dispatch_done = false;
  r.lag_ms.assign(count, 0.0);
  std::vector<double> latency(count, -1.0);
  std::vector<char> outcome(count, 0);  // 0 ok, 1 shed, 2 expired, 3 error
  std::vector<Tensor> outputs(count);

  const serve::QueryBatcher::Stats before = s.engine->batcher_stats();
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  const auto deadline = std::chrono::microseconds(
      static_cast<std::int64_t>(deadline_ms * 1e3));

  std::thread dispatcher([&] {
    for (std::size_t i = 0; i < count; ++i) {
      const Clock::time_point due =
          start + std::chrono::nanoseconds(
                      static_cast<std::int64_t>(due_s[i] * 1e9));
      std::this_thread::sleep_until(due);
      r.lag_ms[i] = ms_between(due, Clock::now());
      const int span =
          rec ? rec->open_at("bench.request", request_base + i, -1,
                             rec->at_ms(due))
              : -1;
      const int p = pick_patch[i];
      const int sub =
          rec ? rec->open("serve.engine.submit", request_base + i, span) : -1;
      try {
        std::future<Tensor> fut = s.engine->query(
            serve::kDefaultTenant, static_cast<std::uint64_t>(p),
            s.patches[static_cast<std::size_t>(p)],
            s.coords[static_cast<std::size_t>(pick_coords[i])], std::nullopt,
            due + deadline);
        if (rec) rec->close(sub);
        std::lock_guard<std::mutex> lk(mu);
        handoff.push_back({i, due, std::move(fut), span});
        continue;
      } catch (const serve::Overloaded&) {
        outcome[i] = 1;
      } catch (const serve::DeadlineExceeded&) {
        outcome[i] = 2;
      } catch (const std::exception&) {
        outcome[i] = 3;
      }
      // Refused at submit: the request ends here.
      if (rec) {
        rec->close(sub);
        rec->close(span);
      }
    }
    std::lock_guard<std::mutex> lk(mu);
    dispatch_done = true;
  });

  std::thread harvester([&] {
    std::vector<InFlight> pending;
    for (;;) {
      bool finished = false;
      {
        std::lock_guard<std::mutex> lk(mu);
        for (auto& f : handoff) pending.push_back(std::move(f));
        handoff.clear();
        finished = dispatch_done;
      }
      // Scan every pending future, so one slow request cannot delay when
      // the ones behind it are seen to finish.
      bool progressed = false;
      for (std::size_t k = 0; k < pending.size();) {
        InFlight& f = pending[k];
        if (f.fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++k;
          continue;
        }
        const Clock::time_point done = Clock::now();
        try {
          outputs[f.i] = f.fut.get();
          latency[f.i] = ms_between(f.due, done);
        } catch (const serve::Overloaded&) {
          outcome[f.i] = 1;
        } catch (const serve::DeadlineExceeded&) {
          outcome[f.i] = 2;
        } catch (const std::exception&) {
          outcome[f.i] = 3;
        }
        if (rec) rec->close_at(f.span, rec->at_ms(done));
        pending[k] = std::move(pending.back());
        pending.pop_back();
        progressed = true;
      }
      if (finished && pending.empty()) {
        std::lock_guard<std::mutex> lk(mu);
        if (handoff.empty()) break;
        continue;
      }
      if (!progressed)
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  dispatcher.join();
  harvester.join();

  const serve::QueryBatcher::Stats after = s.engine->batcher_stats();
  r.degraded = after.degraded_requests - before.degraded_requests;
  std::vector<double> first_q, last_q;
  for (std::size_t i = 0; i < count; ++i) {
    switch (outcome[i]) {
      case 1: ++r.shed; continue;
      case 2: ++r.expired; continue;
      case 3: ++r.errors; continue;
      default: break;
    }
    ++r.ok;
    if (latency[i] <= deadline_ms) ++r.ok_in_deadline;
    r.latency_ms.push_back(latency[i]);
    if (i < count / 4) first_q.push_back(latency[i]);
    if (i >= count - count / 4) last_q.push_back(latency[i]);
    if (keep_samples && i % kSampleEvery == 0)
      r.samples.push_back({pick_patch[i], pick_coords[i], outputs[i]});
  }
  // A backlog that grows over the step shows as late requests waiting much
  // longer than early ones.
  r.backlog = !first_q.empty() && !last_q.empty() &&
              median(last_q) > 2.0 * median(first_q) + 1.0;
  return r;
}

/// Synchronous trickle until the brownout ladder is back at fp32, so an
/// over-capacity step cannot leave the next step degraded.
void recover_brownout(Setup& s) {
  for (int i = 0; i < 400 && s.engine->batcher_stats().brownout_level > 0;
       ++i)
    s.engine->query_sync(static_cast<std::uint64_t>(i % kPatches),
                         s.patches[static_cast<std::size_t>(i % kPatches)],
                         s.coords[static_cast<std::size_t>(i % kCoordSets)]);
}

std::unique_ptr<Setup> make_setup(const Options& opt) {
  auto s = std::make_unique<Setup>();
  BenchRng rng(opt.seed * 0x9E3779B97F4A7C15ull + 101);
  for (int i = 0; i < kPatches; ++i)
    s->patches.push_back(
        random_patch(rng, kPatchChannels, kPatchT, kPatchZ, kPatchX));
  for (int i = 0; i < kCoordSets; ++i)
    s->coords.push_back(
        random_coords(rng, kServeQueries, kPatchT, kPatchZ, kPatchX));
  Rng model_rng(opt.seed), ref_rng(opt.seed);
  auto model = std::make_unique<core::MeshfreeFlowNet>(
      core::MFNConfig::small_default(), model_rng);
  s->reference = std::make_unique<core::MeshfreeFlowNet>(
      core::MFNConfig::small_default(), ref_rng);
  s->reference->set_training(false);
  s->engine = std::make_unique<serve::InferenceEngine>(
      std::move(model), hardened_engine_config());
  for (int i = 0; i < kPatches; ++i)
    s->engine->prewarm(static_cast<std::uint64_t>(i),
                       s->patches[static_cast<std::size_t>(i)]);
  for (std::size_t k = 0; k < kRates.size(); ++k) {
    run_step(*s, kRates[k],
             static_cast<std::size_t>(kRates[k] * kWarmupSeconds),
             step_seed(opt.seed, 999, k), kDeadlineMs, false, 0, nullptr);
    recover_brownout(*s);
  }
  return s;
}

std::size_t verify_samples(Setup& s, const std::vector<Sampled>& samples,
                           double* worst) {
  std::map<std::pair<int, int>, Tensor> refs;
  std::size_t bad = 0;
  ad::NoGradGuard ng;
  for (const Sampled& smp : samples) {
    auto key = std::make_pair(smp.patch, smp.coords);
    auto it = refs.find(key);
    if (it == refs.end())
      it = refs.emplace(key, s.reference
                                 ->predict(s.patches[std::size_t(smp.patch)],
                                           s.coords[std::size_t(smp.coords)])
                                 .value())
               .first;
    const double d = max_abs_diff(smp.out, it->second);
    *worst = std::max(*worst, d);
    if (!(d <= kParityBound)) ++bad;
  }
  return bad;
}

struct Ladder {
  std::map<double, std::vector<double>> latency;  // pooled per rate
  std::map<double, StepResult> totals;            // summed counts per rate
  // One entry per step (window): nominal-rate p50, over-capacity p90 and
  // goodput; one per pass: the pass's answered share over every rate.
  std::vector<double> step_p50, over_p90, over_goodput, pass_ok;
  // Nominal-rate steps, and those with a shed, expired or degraded request.
  std::size_t nominal_steps = 0, nominal_disturbed = 0;
  std::vector<double> lag_ms;
  std::vector<Sampled> samples;
};

/// Run `passes` ascending passes over the rate ladder into `plain`. With a
/// recorder, every other pass is traced instead and goes to `traced` (so
/// host noise hits both alike); the hooks run around each traced step.
void run_ladder(Setup& s, std::uint64_t seed, std::size_t passes,
                SpanRecorder* rec, Ladder* plain, Ladder* traced,
                const std::function<void(double)>& before_step = {},
                const std::function<void(double)>& after_step = {}) {
  std::uint64_t req_base = 0;
  for (std::size_t p = 0; p < passes; ++p) {
    const bool trace = rec != nullptr && p % 2 == 1;
    Ladder& L = trace ? *traced : *plain;
    std::size_t pass_ok = 0, pass_attempted = 0;
    const std::vector<LadderStep> plan = pass_plan();
    for (std::size_t k = 0; k < plan.size(); ++k) {
      const double rate = plan[k].rate;
      if (trace && before_step) before_step(rate);
      const auto count = static_cast<std::size_t>(rate * plan[k].seconds);
      StepResult r = run_step(s, rate, count, step_seed(seed, p, k),
                              kDeadlineMs, rate == kNominalRps, req_base,
                              trace ? rec : nullptr);
      if (trace && after_step) after_step(rate);
      req_base += count;
      auto& lat = L.latency[rate];
      lat.insert(lat.end(), r.latency_ms.begin(), r.latency_ms.end());
      L.lag_ms.insert(L.lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
      const bool disturbed = r.shed + r.expired + r.degraded > 0;
      if (rate == kNominalRps) {
        ++L.nominal_steps;
        L.nominal_disturbed += disturbed;
      }
      // A degraded step's responses may be reduced precision by design;
      // only an undisturbed step's are held to fp32 parity.
      if (!disturbed)
        for (auto& smp : r.samples) L.samples.push_back(std::move(smp));
      StepResult& t = L.totals[rate];
      t.attempted += r.attempted;
      t.ok += r.ok;
      t.ok_in_deadline += r.ok_in_deadline;
      t.shed += r.shed;
      t.expired += r.expired;
      t.errors += r.errors;
      t.degraded += r.degraded;
      t.schedule_s += r.schedule_s;
      t.backlog = t.backlog || r.backlog;
      pass_ok += r.ok;
      pass_attempted += r.attempted;
      if (rate == kNominalRps)
        L.step_p50.push_back(percentile(r.latency_ms, 50.0));
      if (rate == kOverloadRps) {
        L.over_p90.push_back(percentile(r.latency_ms, 90.0));
        L.over_goodput.push_back(static_cast<double>(r.ok_in_deadline) /
                                 r.schedule_s);
      }
      recover_brownout(s);
    }
    L.pass_ok.push_back(static_cast<double>(pass_ok) /
                        static_cast<double>(pass_attempted));
  }
}

}  // namespace

Result run_serve_hot(const Options& opt) {
  Result res;
  double ladder_s = 0.0;
  for (const LadderStep& step : pass_plan()) ladder_s += step.seconds + 0.05;

  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = make_setup(opt);
    setup_s.push_back(seconds_since(t0));
  }

  // Traced, passes alternate untraced and traced; three give two untraced.
  const std::size_t passes = std::max<std::size_t>(
      opt.trace ? 3 : 1, static_cast<std::size_t>(opt.seconds / ladder_s));
  Ladder L, T;
  SpanRecorder rec;
  // Traced run: timing capture at the nominal rate, batcher deltas at the
  // over-capacity rate, both on the traced passes only.
  serve::QueryBatcher::Stats b0, nominal_delta, o0;
  std::uint64_t over_shed = 0, over_expired = 0, over_degraded = 0,
                over_enters = 0;
  serve::QueryBatcher::TimingSamples timing;
  const serve::LatentCache::Stats c0 = s->engine->cache_stats();
  run_ladder(
      *s, opt.seed, passes, opt.trace ? &rec : nullptr, &L, &T,
      [&](double rate) {
        if (rate == kNominalRps) {
          b0 = s->engine->batcher_stats();
          s->engine->batcher().set_timing_capture(true);
        }
        if (rate == kOverloadRps) o0 = s->engine->batcher_stats();
      },
      [&](double rate) {
        if (rate == kNominalRps) {
          s->engine->batcher().set_timing_capture(false);
          const serve::QueryBatcher::Stats b1 = s->engine->batcher_stats();
          nominal_delta.requests += b1.requests - b0.requests;
          nominal_delta.decode_calls += b1.decode_calls - b0.decode_calls;
          auto t = s->engine->batcher().take_timing_samples();
          timing.queue_wait_ms.insert(timing.queue_wait_ms.end(),
                                      t.queue_wait_ms.begin(),
                                      t.queue_wait_ms.end());
          timing.decode_ms.insert(timing.decode_ms.end(), t.decode_ms.begin(),
                                  t.decode_ms.end());
        }
        if (rate == kOverloadRps) {
          const serve::QueryBatcher::Stats o1 = s->engine->batcher_stats();
          over_shed += o1.admission_shed - o0.admission_shed;
          over_expired += (o1.expired_queue + o1.expired_submit) -
                          (o0.expired_queue + o0.expired_submit);
          over_degraded += o1.degraded_requests - o0.degraded_requests;
          over_enters += o1.brownout_enters - o0.brownout_enters;
        }
      });
  const serve::LatentCache::Stats c1 = s->engine->cache_stats();

  // Gates and totals, over the traced passes too.
  std::size_t attempted = 0, failed = 0;
  double worst = 0.0;
  for (const Ladder* lad : {&L, &T}) {
    // A host stall of 30-50 ms (seen on a contended 4-vCPU VM) queues enough
    // nominal-rate requests to cross the brownout watermark or the deadline
    // in the step it hits; an engine that sheds, expires or degrades at the
    // nominal rate by itself disturbs every step.
    res.gate(lad->nominal_disturbed * kMaxDisturbedShare <= lad->nominal_steps,
             "serve_hot: at most 1 in " + std::to_string(kMaxDisturbedShare) +
                 " nominal-rate steps has a shed, expired or degraded request");
    // Failed means answered with an error (or, below, a wrong answer). A
    // shed or expired request is the engine's overload answer: every
    // over-capacity step sheds by design, and a host stall can make a
    // nominal-rate step shed a few. Those count against ok_ratio and the
    // disturbed-step gate above, not here.
    for (const auto& [rate, t] : lad->totals) {
      attempted += t.attempted;
      failed += t.errors;
      res.gate(t.errors == 0,
               "serve_hot: no request failed with an error at " +
                   std::to_string(int(rate)) + " rps");
    }
  }
  const std::size_t bad = verify_samples(*s, L.samples, &worst) +
                          verify_samples(*s, T.samples, &worst);
  res.gate(!L.samples.empty() && bad == 0,
           "serve_hot: sampled responses match a direct no-grad predict "
           "within the fp32 parity bound");
  res.attempted = attempted;
  res.failed = failed + bad;

  // Each nominal or over-capacity step is one window of the end-to-end
  // figures; ok_ratio has one window per pass.
  const Summary nominal = summarize(L.latency.at(kNominalRps));
  const StepResult& over = L.totals.at(kOverloadRps);
  const double p50 = fast_quartile(L.step_p50, Better::kLower);
  const double over_p90 = fast_quartile(L.over_p90, Better::kLower);
  const double goodput = fast_quartile(L.over_goodput, Better::kHigher);
  double rps_at_slo = 0.0;
  for (const auto& [rate, t] : L.totals) {
    const Summary sm = summarize(L.latency.at(rate));
    const bool clean = t.ok == t.attempted && !t.backlog && sm.tail_p >= 99.0;
    if (clean && sm.tail <= kSloP99Ms) rps_at_slo = std::max(rps_at_slo, rate);
    res.info("serve.p50_ms@" + std::to_string(int(rate)), sm.p50, "ms", sm.n);
    res.info("serve.p" + std::to_string(sm.tail_p).substr(0, 4) + "_ms@" +
                 std::to_string(int(rate)),
             sm.tail, "ms", sm.n);
    res.info("serve.ok@" + std::to_string(int(rate)),
             double(t.ok) / double(t.attempted), "ratio", t.attempted);
    res.info("serve.shed@" + std::to_string(int(rate)), double(t.shed),
             "count", t.attempted);
    res.info("serve.expired@" + std::to_string(int(rate)), double(t.expired),
             "count", t.attempted);
    res.info("serve.degraded@" + std::to_string(int(rate)),
             double(t.degraded), "count", t.attempted);
  }
  res.gate(nominal.tail_p >= 99.0,
           "serve_hot: enough nominal-rate samples for a p99");
  res.info("serve.p50_ms", p50, "ms", nominal.n);
  res.info("serve.p99_ms", nominal.tail, "ms", nominal.n);
  res.info("serve.rps_at_slo", rps_at_slo, "1/s", L.totals.size());
  res.info("serve.goodput_rps", goodput, "1/s", over.attempted);
  res.info("serve.overload_p90_ms", over_p90, "ms", over.ok);
  res.info("serve.passes", double(L.pass_ok.size()), "count");
  res.info("serve.nominal_disturbed_steps", double(L.nominal_disturbed),
           "count", L.nominal_steps);
  res.info("serve.parity_max_abs_err", worst, "abs",
           L.samples.size() + T.samples.size());
  const Summary lag = summarize(L.lag_ms);

  if (!opt.trace) {
    res.info("bench.gen_lag_p" + std::to_string(int(lag.tail_p)) + "_ms",
             lag.tail, "ms", lag.n);
    res.metric("setup_s", median(setup_s), "s", setup_s.size());
    res.metric("ok_ratio",
               res.correct ? fast_quartile(L.pass_ok, Better::kHigher) : 0.0,
               "ratio", attempted);
    res.metric("throughput_per_s", goodput, "1/s", over.attempted);
    res.metric("p50_ms", p50, "ms", nominal.n);
    res.metric("p90_ms", over_p90, "ms", over.ok);
    return res;
  }

  const std::vector<Span> spans = rec.spans();
  const std::vector<double> self = self_times(spans);
  std::vector<double> submit_ms;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == "serve.engine.submit") submit_ms.push_back(self[i]);
  const Summary qw = summarize(timing.queue_wait_ms);
  const Summary dec = summarize(timing.decode_ms);

  // DecodePlan::execute at the dominant sub-knee flush shape: one request's
  // 256 queries against one latent.
  double execute_us = 0.0;
  {
    ad::NoGradGuard ng;
    const Tensor latent = s->reference->encode(s->patches[0]).value();
    auto snap = s->engine->registry().require(serve::kDefaultTenant)->current();
    auto plan = s->engine->plans().get_or_compile(
        snap->prepared, 1, kServeQueries, latent.dim(2), latent.dim(3),
        latent.dim(4));
    std::vector<double> us;
    for (int i = 0; i < 400; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Tensor out = plan->execute(latent, s->coords[std::size_t(i % kCoordSets)]);
      us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    execute_us = median(us);
  }

  const Summary traced_nominal = summarize(T.latency.at(kNominalRps));
  const Summary traced_lag = summarize(T.lag_ms);
  const double reqs = static_cast<double>(nominal_delta.requests);
  const double decodes = static_cast<double>(nominal_delta.decode_calls);
  const double lookups = static_cast<double>((c1.hits + c1.misses) -
                                             (c0.hits + c0.misses));
  res.metric("serve.engine.submit_ms", median(submit_ms), "ms", submit_ms.size());
  res.metric("serve.query_batcher.queue_wait_p50_ms", qw.p50, "ms", qw.n);
  res.metric("serve.query_batcher.queue_wait_p99_ms",
             percentile(timing.queue_wait_ms, 99.0), "ms", qw.n);
  res.metric("serve.query_batcher.decode_p50_ms", dec.p50, "ms", dec.n);
  res.metric("serve.query_batcher.decode_p99_ms",
             percentile(timing.decode_ms, 99.0), "ms", dec.n);
  res.metric("serve.query_batcher.requests_per_decode",
             decodes > 0 ? reqs / decodes : 0.0, "ratio");
  res.metric("serve.query_batcher.shed", double(over_shed), "count");
  res.metric("serve.query_batcher.expired", double(over_expired), "count");
  res.metric("serve.query_batcher.degraded_requests", double(over_degraded),
             "count");
  res.metric("serve.query_batcher.brownout_enters", double(over_enters),
             "count");
  res.metric("core.decode_plan.execute_us", execute_us, "us", 400);
  res.metric("serve.latent_cache.hit_rate",
             lookups > 0 ? double(c1.hits - c0.hits) / lookups : 0.0, "ratio");
  res.metric("bench.gen_lag_p99_ms", percentile(T.lag_ms, 99.0), "ms",
             traced_lag.n);
  res.metric("bench.trace_overhead_pct",
             overhead_pct(traced_nominal.p50, nominal.p50), "%");
  res.info("serve.p50_ms.traced", traced_nominal.p50, "ms", traced_nominal.n);
  rec.dump(opt.work_dir + "/spans-serve_hot.jsonl");
  return res;
}

}  // namespace perfbench
