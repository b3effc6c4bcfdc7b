// serve_churn: closed-loop serving with writes beside reads. Three clients
// send to four tenants with Zipf(1.1) popularity over patch working sets
// four times each tenant's cache budget, while a reloader thread hot-reloads
// tenants from checkpoints at fixed request counts. Encode, eviction,
// single-flight dedup, snapshot prepare and plan recompiles dominate.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "autodiff/variable.h"
#include "common.h"
#include "core/checkpoint.h"
#include "optim/adam.h"
#include "serving.h"

namespace perfbench {
namespace {

using namespace mfn;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
constexpr int kTenants = 4;
constexpr double kZipf = 1.1;
constexpr int kClients = 3;
/// Latents each tenant's cache holds, and patches each tenant serves.
constexpr int kBudgetLatents = 8;
constexpr int kWorkingSet = 4 * kBudgetLatents;
constexpr int kCoordSets = 64;
constexpr std::size_t kSampleEvery = 29;
constexpr std::size_t kWarmupRequests = 300;
/// The reloader hot-reloads the next tenant (round robin) every
/// kReloadEvery completed requests, alternating each tenant between two
/// checkpoints written at set-up.
constexpr std::uint64_t kReloadEvery = 300;

/// Two weight sets (A and B) per tenant; reloads alternate between them.
struct TenantState {
  std::unique_ptr<core::MeshfreeFlowNet> ref[2];  // eval-mode references
  std::string ckpt[2];
  std::vector<Tensor> patches;
  int live = 0;  // which weight set the engine serves (reloader thread only)
};

struct Setup {
  std::unique_ptr<serve::InferenceEngine> engine;
  TenantState tenant[kTenants];
  std::vector<Tensor> coords;
};

std::unique_ptr<core::MeshfreeFlowNet> make_model(std::uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<core::MeshfreeFlowNet>(
      core::MFNConfig::small_default(), rng);
}

std::uint64_t weight_seed(std::uint64_t seed, int tenant, int set) {
  return seed * 64 + static_cast<std::uint64_t>(tenant * 2 + set) + 1;
}

std::unique_ptr<Setup> make_setup(const Options& opt) {
  auto s = std::make_unique<Setup>();
  BenchRng rng(opt.seed * 0x9E3779B97F4A7C15ull + 202);
  for (int i = 0; i < kCoordSets; ++i)
    s->coords.push_back(
        random_coords(rng, kServeQueries, kPatchT, kPatchZ, kPatchX));
  const std::size_t latent_bytes =
      sizeof(float) * static_cast<std::size_t>(
                          core::MFNConfig::small_default().unet.out_channels *
                          kPatchT * kPatchZ * kPatchX);
  serve::InferenceEngineConfig cfg = hardened_engine_config();
  cfg.cache_bytes = kTenants * kBudgetLatents * latent_bytes;
  for (int t = 0; t < kTenants; ++t) {
    TenantState& ts = s->tenant[t];
    for (int i = 0; i < kWorkingSet; ++i)
      ts.patches.push_back(
          random_patch(rng, kPatchChannels, kPatchT, kPatchZ, kPatchX));
    for (int set = 0; set < 2; ++set) {
      auto m = make_model(weight_seed(opt.seed, t, set));
      optim::Adam adam(m->parameters());
      ts.ckpt[set] = opt.work_dir + "/tenant" + std::to_string(t) + "_" +
                     std::to_string(set) + ".ckpt";
      core::save_checkpoint(ts.ckpt[set], *m, adam, core::CheckpointData{});
      m->set_training(false);
      ts.ref[set] = std::move(m);
    }
    auto serving = make_model(weight_seed(opt.seed, t, 0));
    if (t == 0)
      s->engine =
          std::make_unique<serve::InferenceEngine>(std::move(serving), cfg);
    else
      s->engine->add_tenant(static_cast<serve::TenantId>(t),
                            std::move(serving));
  }
  // Warm the plan caches at the serving shape.
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    const int t = static_cast<int>(i % kTenants);
    const int p = static_cast<int>(rng.below(kWorkingSet));
    s->engine->query_sync(static_cast<serve::TenantId>(t),
                          static_cast<std::uint64_t>(p),
                          s->tenant[t].patches[std::size_t(p)],
                          s->coords[i % kCoordSets]);
  }
  return s;
}

struct Sampled {
  int tenant = 0, patch = 0, coords = 0;
  Tensor out;
};

struct ChurnRun {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // completion time of each answered request
  std::vector<double> reload_ms;
  std::vector<Sampled> samples;
  std::size_t attempted = 0, failed = 0;
  double wall_s = 0.0;
  std::uint64_t reloads = 0;
};

/// Sums of the engine's per-tenant counters, for before/after deltas.
struct EngineTotals {
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::uint64_t encodes = 0, dedup = 0;
  std::uint64_t plan_hits = 0, plan_misses = 0, compiles = 0;
  std::uint64_t reloads = 0, rollbacks = 0;
};

EngineTotals totals(const serve::InferenceEngine& e) {
  EngineTotals x;
  for (int t = 0; t < kTenants; ++t) {
    const auto id = static_cast<serve::TenantId>(t);
    const auto c = e.cache_stats(id);
    const auto enc = e.encode_stats(id);
    const auto p = e.plan_stats(id);
    x.hits += c.hits;
    x.misses += c.misses;
    x.evictions += c.evictions;
    x.encodes += enc.encodes;
    x.dedup += enc.dedup_encodes;
    x.plan_hits += p.hits;
    x.plan_misses += p.misses;
    x.compiles += p.compiles;
  }
  const auto r = e.reload_stats();
  x.reloads = r.reloads;
  x.rollbacks = r.rollbacks;
  return x;
}

/// Counter growth from `before` to `after`, added into `acc`.
void add_delta(EngineTotals* acc, const EngineTotals& before,
               const EngineTotals& after) {
  acc->hits += after.hits - before.hits;
  acc->misses += after.misses - before.misses;
  acc->evictions += after.evictions - before.evictions;
  acc->encodes += after.encodes - before.encodes;
  acc->dedup += after.dedup - before.dedup;
  acc->plan_hits += after.plan_hits - before.plan_hits;
  acc->plan_misses += after.plan_misses - before.plan_misses;
  acc->compiles += after.compiles - before.compiles;
  acc->reloads += after.reloads - before.reloads;
  acc->rollbacks += after.rollbacks - before.rollbacks;
}

ChurnRun run_churn(Setup& s, double seconds,
                   std::uint64_t stream, SpanRecorder* rec) {
  ChurnRun run;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::mutex mu;  // guards the merged client results below
  const std::vector<double> cdf = zipf_cdf(kTenants, kZipf);
  const Clock::time_point start = Clock::now();

  auto client = [&](int c) {
    BenchRng rng(stream * 131 + static_cast<std::uint64_t>(c) * 7 + 3);
    std::vector<double> lat, done;
    std::vector<Sampled> samples;
    std::size_t attempted = 0, failed = 0;
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const int t = zipf_pick(cdf, rng.uniform());
      const int p = static_cast<int>(rng.below(kWorkingSet));
      const int q = static_cast<int>(rng.below(kCoordSets));
      const std::uint64_t req = stream * 1000000000ull +
                                static_cast<std::uint64_t>(c) * 100000000ull + i;
      ++attempted;
      const Clock::time_point t0 = Clock::now();
      ScopedSpan span(rec, "bench.request", req);
      try {
        std::future<Tensor> fut = [&] {
          ScopedSpan sub(rec, "serve.engine.submit", req);
          return s.engine->query(static_cast<serve::TenantId>(t),
                                 static_cast<std::uint64_t>(p),
                                 s.tenant[t].patches[std::size_t(p)],
                                 s.coords[std::size_t(q)]);
        }();
        Tensor out = fut.get();
        const Clock::time_point t1 = Clock::now();
        lat.push_back(ms_between(t0, t1));
        done.push_back(ms_between(start, t1) / 1e3);
        if (i % kSampleEvery == 0) samples.push_back({t, p, q, std::move(out)});
      } catch (const std::exception&) {
        ++failed;
      }
      completed.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lk(mu);
    run.latency_ms.insert(run.latency_ms.end(), lat.begin(), lat.end());
    run.done_s.insert(run.done_s.end(), done.begin(), done.end());
    for (auto& smp : samples) run.samples.push_back(std::move(smp));
    run.attempted += attempted;
    run.failed += failed;
  };

  // Reloader: at every kReloadEvery completed requests, hot-reload the
  // next tenant (round robin) onto its other weight set.
  auto reloader = [&] {
    std::uint64_t next = kReloadEvery;
    for (int k = 0;; ++k) {
      while (!stop.load() && completed.load() < next)
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      if (stop.load()) return;
      next += kReloadEvery;
      const int t = k % kTenants;
      TenantState& ts = s.tenant[t];
      const Clock::time_point t0 = Clock::now();
      try {
        ScopedSpan span(rec, "serve.engine.reload", static_cast<std::uint64_t>(k));
        s.engine->reload_from_checkpoint(static_cast<serve::TenantId>(t),
                                         ts.ckpt[1 - ts.live]);
        ts.live = 1 - ts.live;
      } catch (const std::exception&) {
        // Rolled back: counted by reload_stats() and failed by the gate.
      }
      run.reload_ms.push_back(ms_between(t0, Clock::now()));
      ++run.reloads;
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  std::thread reload_thread(reloader);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& th : threads) th.join();
  reload_thread.join();
  run.wall_s = seconds_since(start);
  return run;
}

/// The run's figures over one-second windows of completions.
WindowFigures churn_figures(const ChurnRun& run) {
  const auto n = static_cast<std::size_t>(run.wall_s);
  std::vector<std::vector<double>> win(std::max<std::size_t>(n, 1));
  for (std::size_t i = 0; i < run.latency_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(run.done_s[i]);
    if (w < win.size()) win[w].push_back(run.latency_ms[i]);
  }
  return window_figures(win, std::vector<double>(win.size(), 1.0));
}

/// Each sampled response must equal, within the parity bound, the direct
/// predict of wholly one of the tenant's two weight sets.
std::size_t verify(Setup& s, const std::vector<Sampled>& samples,
                   double* worst) {
  std::size_t bad = 0;
  ad::NoGradGuard ng;
  for (const Sampled& smp : samples) {
    TenantState& ts = s.tenant[smp.tenant];
    double best = INFINITY;
    for (int set = 0; set < 2; ++set) {
      const Tensor ref = ts.ref[set]
                             ->predict(ts.patches[std::size_t(smp.patch)],
                                       s.coords[std::size_t(smp.coords)])
                             .value();
      best = std::min(best, max_abs_diff(smp.out, ref));
    }
    *worst = std::max(*worst, best);
    if (!(best <= kParityBound)) ++bad;
  }
  return bad;
}

void gates(Result& res, Setup& s, const ChurnRun& run,
           const EngineTotals& delta) {
  double worst = 0.0;
  const std::size_t bad = verify(s, run.samples, &worst);
  res.gate(!run.samples.empty() && bad == 0,
           "serve_churn: every sampled response matches wholly the old or "
           "wholly the new snapshot");
  res.gate(delta.rollbacks == 0, "serve_churn: zero reload rollbacks");
  res.gate(run.reloads >= 1, "serve_churn: at least one reload ran");
  res.gate(run.failed == 0, "serve_churn: no request failed");
  res.info("churn.parity_max_abs_err", worst, "abs", run.samples.size());
}

}  // namespace

Result run_serve_churn(const Options& opt) {
  Result res;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = make_setup(opt);
    setup_s.push_back(seconds_since(t0));
  }

  // Traced run: untraced and traced segments alternate (U T U T), so host
  // noise hits both alike.
  SpanRecorder rec;
  const int segments = opt.trace ? 4 : 1;
  ChurnRun run, traced;
  EngineTotals run_delta, traced_delta;
  for (int k = 0; k < segments; ++k) {
    const bool trace = k % 2 == 1;
    const EngineTotals before = totals(*s->engine);
    ChurnRun seg = run_churn(*s, opt.seconds / segments,
                             static_cast<std::uint64_t>(k + 1),
                             trace ? &rec : nullptr);
    add_delta(trace ? &traced_delta : &run_delta, before, totals(*s->engine));
    ChurnRun& into = trace ? traced : run;
    if (into.attempted == 0) {
      into = std::move(seg);
      continue;
    }
    into.latency_ms.insert(into.latency_ms.end(), seg.latency_ms.begin(),
                           seg.latency_ms.end());
    into.reload_ms.insert(into.reload_ms.end(), seg.reload_ms.begin(),
                          seg.reload_ms.end());
    for (auto& smp : seg.samples) into.samples.push_back(std::move(smp));
    into.attempted += seg.attempted;
    into.failed += seg.failed;
    into.reloads += seg.reloads;
  }
  gates(res, *s, run, run_delta);
  const Summary lat = summarize(run.latency_ms);
  res.attempted = run.attempted;
  res.failed = run.failed;
  res.info("churn.p" + std::to_string(int(lat.tail_p)) + "_ms", lat.tail, "ms",
           lat.n);
  res.info("churn.reloads", double(run.reloads), "count");
  res.info("churn.latent_hit_rate",
           double(run_delta.hits) / double(run_delta.hits + run_delta.misses),
           "ratio");
  if (!opt.trace) {
    const WindowFigures w = churn_figures(run);
    res.info("churn.rps", w.per_s, "1/s", run.latency_ms.size());
    res.info("churn.p50_ms", w.p50, "ms", lat.n);
    res.info("churn.p90_ms", w.p90, "ms", lat.n);
    res.gate(lat.tail_p >= 99.0, "serve_churn: enough requests for a p99");
    res.metric("setup_s", median(setup_s), "s", setup_s.size());
    res.metric("ok_ratio",
               double(run.latency_ms.size()) / double(run.attempted) *
                   (res.correct ? 1.0 : 0.0),
               "ratio", run.attempted);
    res.metric("throughput_per_s", w.per_s, "1/s", run.latency_ms.size());
    res.metric("p50_ms", w.p50, "ms", lat.n);
    res.metric("p90_ms", w.p90, "ms", lat.n);
    return res;
  }

  gates(res, *s, traced, traced_delta);
  res.attempted += traced.attempted;
  res.failed += traced.failed;

  // Direct timings of the two calls a miss and a reload are built from.
  std::vector<double> encode_ms, load_ms;
  {
    ad::NoGradGuard ng;
    core::MeshfreeFlowNet& m = *s->tenant[0].ref[0];
    for (int i = 0; i < 100; ++i) {
      ScopedSpan span(&rec, "nn.encode_nograd", static_cast<std::uint64_t>(i));
      const Clock::time_point a = Clock::now();
      const Tensor lat = m.encode(s->tenant[0].patches[std::size_t(i % kWorkingSet)]).value();
      encode_ms.push_back(ms_between(a, Clock::now()));
    }
  }
  {
    auto m = make_model(0);
    for (int i = 0; i < 20; ++i) {
      ScopedSpan span(&rec, "core.checkpoint.load", static_cast<std::uint64_t>(i));
      const Clock::time_point a = Clock::now();
      core::load_checkpoint_weights(s->tenant[0].ckpt[i % 2], *m);
      load_ms.push_back(ms_between(a, Clock::now()));
    }
  }
  const std::vector<Span> spans = rec.spans();
  const std::vector<double> self = self_times(spans);
  std::vector<double> submit_ms;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == "serve.engine.submit") submit_ms.push_back(self[i]);
  const EngineTotals& t = traced_delta;
  const double reqs = static_cast<double>(traced.latency_ms.size());
  const double lookups = double(t.hits + t.misses);
  const double plan_lookups = double(t.plan_hits + t.plan_misses);
  const double encodes = double(t.encodes), dedup = double(t.dedup);
  const double reloads = double(t.reloads);
  res.metric("serve.engine.submit_ms", median(submit_ms), "ms", submit_ms.size());
  res.metric("core.decode_plan.hit_rate",
             plan_lookups > 0 ? double(t.plan_hits) / plan_lookups : 0.0,
             "ratio");
  res.metric("core.decode_plan.compiles_per_reload",
             reloads > 0 ? double(t.compiles) / reloads : 0.0,
             "count");
  res.metric("serve.latent_cache.hit_rate",
             lookups > 0 ? double(t.hits) / lookups : 0.0, "ratio");
  res.metric("serve.latent_cache.evictions_per_req",
             double(t.evictions) / reqs, "count");
  res.metric("serve.model_registry.encodes_per_req", encodes / reqs, "count");
  res.metric("serve.model_registry.dedup_ratio",
             encodes + dedup > 0 ? dedup / (encodes + dedup) : 0.0, "ratio");
  res.metric("nn.encode_nograd_ms", median(encode_ms), "ms", encode_ms.size());
  res.metric("serve.engine.reload_ms", median(traced.reload_ms), "ms",
             traced.reload_ms.size());
  res.metric("core.checkpoint.load_ms", median(load_ms), "ms", load_ms.size());
  res.metric("bench.trace_overhead_pct",
             overhead_pct(median(traced.latency_ms), lat.p50), "%");
  res.info("churn.p50_ms.untraced", lat.p50, "ms", lat.n);
  res.info("churn.p50_ms.traced", median(traced.latency_ms), "ms",
           traced.latency_ms.size());
  rec.dump(opt.work_dir + "/spans-serve_churn.jsonl");
  return res;
}

}  // namespace perfbench
