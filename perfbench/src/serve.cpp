// Serving workloads: serve_ckat (unsharded hot-swap gateway over a
// CKAT -> BPR-MF -> popularity chain), serve_sharded (the 1M-user scale
// tier behind 4 shards x 2 replicas of mmap'd slices) and
// refresh_under_load (serve_ckat's gateway at a fixed rate while an
// OnlineRefresher ingests stream windows on its own thread).
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "baselines/bprmf.hpp"
#include "config.hpp"
#include "eval/evaluator.hpp"
#include "eval/metrics.hpp"
#include "facility/scale.hpp"
#include "facility/stream.hpp"
#include "loadgen.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "serve/gateway.hpp"
#include "serve/popularity.hpp"
#include "serve/refresh.hpp"
#include "serve/shard.hpp"
#include "serve/swap.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ckat;

namespace {

serve::GatewayConfig gateway_config() {
  serve::GatewayConfig config;
  config.threads = kGatewayThreads;
  config.queue_depth = kQueueDepth;
  config.default_deadline_ms = kDeadlineMs;
  config.keep_versions = kKeepVersions;
  return config;
}

std::string tag(const Options& opt) {
  return opt.workdir + "/" + opt.workload + "-" + std::to_string(getpid());
}

/// Uniform draw over [0, n) from the generator's 64-bit random value.
UserDraw uniform_users(std::size_t n) {
  return [n](std::uint64_t r) { return static_cast<std::uint32_t>(r % n); };
}

/// The serve.* and loadgen.* rows of one open-loop run.
void report_serve_layers(Report& report, const LoadResult& r) {
  const LagSummary lag = r.lag();
  report.metric("loadgen.lag_p99_ms", lag.p99_ms, "ms");
  report.metric("loadgen.achieved_qps", lag.achieved_rate, "1/s");
  if (lag.p99_ms > kMaxGeneratorLagP99Ms) {
    report.info("loadgen_flag", "generator lagged: p99 " + std::to_string(lag.p99_ms) +
                                    " ms behind schedule");
  }
  report.metric("serve.submit_us_p50", percentile(r.submit_us, 50.0), "us");
  report.metric("serve.submit_us_p99", percentile(r.submit_us, 99.0), "us");
  report.metric("serve.queue_wait_p50_ms", percentile(r.queue_ms, 50.0), "ms");
  report.metric("serve.queue_wait_p99_ms", percentile(r.queue_ms, 99.0), "ms");
  report.metric("serve.service_p50_ms", percentile(r.service_ms, 50.0), "ms");
  report.metric("serve.service_p99_ms", percentile(r.service_ms, 99.0), "ms");
  const double n = std::max<double>(1.0, static_cast<double>(r.submitted));
  report.metric("serve.shed_frac", static_cast<double>(r.shed) / n, "ratio");
  report.metric("serve.zero_filled_frac", static_cast<double>(r.zero_filled) / n, "ratio");
  report.metric("serve.partial_frac", static_cast<double>(r.served_partial) / n, "ratio");
}

/// Reports one nominal-rate run's metrics under both the benchmark's
/// end-to-end names and the serving names they stand for.
void report_nominal(Report& report, const LoadResult& r, std::size_t windows) {
  const double tail_pct = std::min(tail_percentile(r.latency_ms.size() / windows), 99.0);
  const double p50 = r.latency(50.0, windows);
  const double tail = r.latency(tail_pct, windows);
  report.metric("serve_p50_ms", p50, "ms");
  report.metric("serve_p99_ms", tail, "ms");
  // The request's time on a worker: no generator lag, no queue wait.
  std::vector<double> answered_offsets;
  for (std::size_t i = 0; i < r.offset_s.size(); ++i) {
    if (r.answered_flag[i]) answered_offsets.push_back(r.offset_s[i]);
  }
  report.metric("work_ms",
                windowed_percentile(answered_offsets, r.service_ms, r.span_s, windows, 50.0),
                "ms");
  report.metric("failed_frac", r.failed_frac(), "ratio");
  report.metric("ok_frac", 1.0 - r.failed_frac(), "ratio");
  report.info("serve_samples", std::to_string(r.latency_ms.size()));
  report.info("serve_highest_supported_percentile", std::to_string(tail_pct));
  report.info("serve_latency_slices", std::to_string(windows));
  report_serve_layers(report, r);
  // The result's `failed` counts requests the program got wrong: futures
  // that never resolved. Sheds, zero-filled and partial answers miss the
  // latency limit because of timing, which a shared host varies from run
  // to run; they are measured by ok_frac and failed_frac above.
  report.count(r.submitted, r.unresolved());
  const LagSummary lag = r.lag();
  std::printf("  nominal %.0f req/s: %llu submitted, p50 %.3f ms, p%.1f %.3f ms, "
              "failed %.4f, generator lag p50/p99/max %.3f/%.3f/%.3f ms\n",
              r.rate, static_cast<unsigned long long>(r.submitted), p50, tail_pct, tail,
              r.failed_frac(), lag.p50_ms, lag.p99_ms, lag.max_ms);
}

/// Warm-up, the nominal rate, then the fixed ladder; reports the knee.
/// Returns the nominal run (its sampled rows feed the checks).
LoadResult measure_serving(const Options& opt, Report& report,
                           serve::ServeGateway& gateway, const UserDraw& draw,
                           const RateLadder& rates) {
  (void)run_open_loop(gateway, {rates.nominal, kWarmupSeconds, opt.seed ^ 0xA5A5, kDeadlineMs, 0},
                      draw);
  const ProcSample p0 = proc_sample();
  LoadResult nominal = run_open_loop(
      gateway, {rates.nominal, opt.seconds * kNominalShare, opt.seed, kDeadlineMs, kSampleEvery},
      draw);
  const ProcSample p1 = proc_sample();
  report_proc(report, p0, p1);
  report_nominal(report, nominal, kNominalWindows);

  std::vector<LadderStep> steps;
  const double step_s =
      opt.seconds * (1.0 - kNominalShare) / static_cast<double>(rates.ladder.size());
  std::uint64_t i = 0;
  for (const double rate : rates.ladder) {
    const LoadResult r = run_open_loop(
        gateway, {rate, step_s, opt.seed * 1000 + ++i, kDeadlineMs, 0}, draw);
    const LadderStep step = summarize_slices(rate, r.slices(kStepWindows));
    steps.push_back(step);
    std::printf("  ladder %6.0f req/s: p99 %8.3f ms, failed %.4f, backlog %s, lag p99 %.3f ms\n",
                rate, step.p99_ms, step.failed_frac, step.backlog_grows ? "grows" : "flat",
                r.lag().p99_ms);
    if (!step_sustained(step, kDeadlineMs)) break;  // higher rungs cannot count
  }
  const double knee = knee_rate(steps, kDeadlineMs);
  report.metric("knee_qps", knee, "1/s");
  report.metric("throughput_per_s", knee, "1/s");
  if (knee == 0.0) {
    report.info("knee_note", "even the lowest ladder rate missed the limits");
  }
  return nominal;
}

/// Gateway conservation over its whole life, total and per version.
void check_conservation(Report& report, const serve::GatewayStats& s) {
  report.check(
      "gateway conservation: submitted == served + partial + zero_filled + sheds",
      s.submitted == s.served + s.served_partial + s.zero_filled + s.shed_total(),
      "submitted " + std::to_string(s.submitted));
  std::uint64_t served = 0, partial = 0, zero = 0;
  for (const auto& v : s.by_version) {
    served += v.served;
    partial += v.served_partial;
    zero += v.zero_filled;
  }
  report.check("gateway per-version lanes sum to the totals",
               served == s.served && partial == s.served_partial && zero == s.zero_filled);
  report.metric("serve.queue_high_water", static_cast<double>(s.queue_high_water), "count");
}

void check_resolved(Report& report, const LoadResult& r, const std::string& what) {
  report.check(what + ": every future resolved exactly once", r.resolved == r.submitted,
               std::to_string(r.resolved) + "/" + std::to_string(r.submitted));
}

/// Everything serve_ckat serves; the gateway is declared last so it
/// shuts down before the models it reads are destroyed.
struct CkatStack {
  std::unique_ptr<facility::FacilityDataset> dataset;
  std::unique_ptr<graph::CollaborativeKg> ckg;
  std::unique_ptr<core::CkatModel> ckat;
  std::unique_ptr<baselines::BprmfModel> bprmf;
  std::unique_ptr<serve::PopularityRecommender> popularity;
  std::vector<const eval::Recommender*> tiers;
  std::unique_ptr<serve::ServeGateway> gateway;
};

std::unique_ptr<CkatStack> build_ckat_stack(std::uint64_t seed) {
  auto s = std::make_unique<CkatStack>();
  s->dataset = std::make_unique<facility::FacilityDataset>(make_gage(seed));
  s->ckg = std::make_unique<graph::CollaborativeKg>(s->dataset->build_default_ckg());
  const graph::InteractionSet& train = s->dataset->split().train;
  s->ckat = std::make_unique<core::CkatModel>(*s->ckg, train,
                                              paper_config(seed, nproc(), kServeFitEpochs));
  s->ckat->fit();
  baselines::BprmfConfig bpr;
  bpr.epochs = kServeBprEpochs;
  bpr.seed = seed;
  s->bprmf = std::make_unique<baselines::BprmfModel>(train, bpr);
  s->bprmf->fit();
  s->popularity = std::make_unique<serve::PopularityRecommender>(train);
  s->tiers = {s->ckat.get(), s->bprmf.get(), s->popularity.get()};
  auto handle = std::make_shared<serve::ModelHandle>(kSwapMaxRetries);
  handle->publish(s->tiers, s->ckat->n_users(), s->ckat->n_items());
  s->gateway = std::make_unique<serve::ServeGateway>(handle, gateway_config());
  return s;
}

}  // namespace

void run_serve_ckat(const Options& opt, Report& report) {
  std::vector<double> setups;
  double spent = 0.0;
  std::unique_ptr<CkatStack> stack;
  for (int i = 0; more_setups(i, spent); ++i) {
    stack.reset();
    const std::int64_t t0 = now_ns();
    stack = build_ckat_stack(opt.seed);
    setups.push_back(seconds_since(t0));
    spent += setups.back();
  }
  report_setups(report, setups);
  const std::size_t n_users = stack->ckat->n_users();
  const std::size_t n_items = stack->ckat->n_items();
  std::printf("serve_ckat: %zu users x %zu items, chain CKAT -> BPRMF -> Popularity\n",
              n_users, n_items);

  const LoadResult nominal =
      measure_serving(opt, report, *stack->gateway, uniform_users(n_users), kServeCkatRates);
  check_resolved(report, nominal, "serve_ckat nominal");

  // Served rows must be bit-identical to the serving tier's direct score.
  std::size_t compared = 0, identical = 0;
  std::vector<float> row(n_items);
  for (const SampledRow& s : nominal.samples) {
    if (s.result.status != serve::RequestStatus::kServed || s.result.tier < 0) continue;
    stack->tiers[static_cast<std::size_t>(s.result.tier)]->score_items(s.user, row);
    ++compared;
    if (s.result.scores.size() == n_items &&
        same_bits(s.result.scores.data(), row.data(), n_items)) {
      ++identical;
    }
  }
  report.check("serve_ckat: sampled served rows bit-identical to direct score_items",
               compared > 0 && identical == compared,
               std::to_string(identical) + "/" + std::to_string(compared));

  eval::EvalConfig eval_config;
  eval_config.threads = kEvalThreads;
  eval_config.block_size = kEvalBlock;
  report.metric("recall_at_20",
                eval::evaluate_topk(*stack->ckat, stack->dataset->split(), eval_config).recall,
                "ratio");
  stack->gateway->shutdown();
  check_conservation(report, stack->gateway->stats());
}

namespace {

struct ShardStack {
  std::unique_ptr<facility::ScaleTier> tier;
  std::string dir;
  std::shared_ptr<serve::ShardRouter> router;
  std::unique_ptr<serve::ServeGateway> gateway;
};

serve::ShardRouterConfig router_config() {
  serve::ShardRouterConfig config;  // pins every CKAT_SHARD_* knob
  config.n_shards = 4;
  config.replicas = 2;
  config.probe_interval_ms = 25.0;
  config.hedge_min_ms = 1.0;
  return config;
}

std::unique_ptr<ShardStack> build_shard_stack(const Options& opt) {
  auto s = std::make_unique<ShardStack>();
  facility::ScaleTierParams params;  // 1M users, 10,240 items, dim 16
  params.seed ^= opt.seed;
  s->tier = std::make_unique<facility::ScaleTier>(params);
  s->dir = tag(opt) + "-shards";
  std::filesystem::remove_all(s->dir);
  std::filesystem::create_directories(s->dir);
  const facility::ScaleTier* tier = s->tier.get();
  const serve::ShardRouterConfig config = router_config();
  serve::ShardRouter::write_catalog(
      s->dir, static_cast<std::size_t>(config.n_shards),
      static_cast<std::size_t>(config.replicas), tier->n_items(), tier->dim(),
      [tier](std::uint32_t item, std::span<float> v) { tier->item_vector(item, v); });
  s->router = std::make_shared<serve::ShardRouter>(
      s->dir, tier->n_users(), tier->n_items(), tier->dim(),
      [tier](std::uint32_t user, std::span<float> v) { tier->user_vector(user, v); }, config);
  s->gateway = std::make_unique<serve::ServeGateway>(s->router, gateway_config());
  return s;
}

void destroy_shard_stack(std::unique_ptr<ShardStack>& s) {
  if (!s) return;
  const std::string dir = s->dir;
  s.reset();
  std::filesystem::remove_all(dir);
}

/// recall@20 of the sharded answers: each sampled user's 20 queries are
/// drawn from the scale tier's affinity mixture; the top-20 of the
/// user's fanned-out score row is judged against them.
double sharded_recall(serve::ShardRouter& router, const facility::ScaleTier& tier,
                      std::uint64_t seed) {
  util::Rng rng(seed ^ 0xBEEF);
  std::vector<float> row(tier.n_items());
  double sum = 0.0;
  constexpr int kUsers = 200;
  for (int i = 0; i < kUsers; ++i) {
    const std::uint32_t user = tier.sample_user(rng);
    std::set<std::uint32_t> relevant;
    for (int q = 0; q < 20; ++q) relevant.insert(tier.sample_object(user, rng));
    router.score(user, row);
    std::size_t hits = 0;
    for (const std::uint32_t item : eval::top_k_indices(row, 20)) hits += relevant.count(item);
    sum += static_cast<double>(hits) / static_cast<double>(relevant.size());
  }
  return sum / kUsers;
}

}  // namespace

void run_serve_sharded(const Options& opt, Report& report) {
  std::vector<double> setups;
  double spent = 0.0;
  std::unique_ptr<ShardStack> stack;
  for (int i = 0; more_setups(i, spent); ++i) {
    destroy_shard_stack(stack);
    const std::int64_t t0 = now_ns();
    stack = build_shard_stack(opt);
    setups.push_back(seconds_since(t0));
    spent += setups.back();
  }
  report_setups(report, setups);
  const facility::ScaleTier& tier = *stack->tier;
  std::printf("serve_sharded: %zu users x %zu items, dim %zu, %zu shards x %zu replicas\n",
              tier.n_users(), tier.n_items(), tier.dim(), stack->router->n_shards(),
              stack->router->replicas_per_shard());

  const std::uint64_t draw_seed = opt.seed;
  const UserDraw zipf = [&tier, draw_seed](std::uint64_t r) {
    util::Rng rng(draw_seed ^ r);
    return tier.sample_user(rng);
  };
  const LoadResult nominal = measure_serving(opt, report, *stack->gateway, zipf,
                                             kServeShardedRates);
  check_resolved(report, nominal, "serve_sharded nominal");

  // Served rows must equal the direct user . item dot products (same
  // accumulation order as the slice tier) with full coverage.
  const std::size_t dim = tier.dim();
  std::vector<float> items(tier.n_items() * dim);
  for (std::uint32_t i = 0; i < tier.n_items(); ++i) {
    tier.item_vector(i, std::span<float>(items.data() + i * dim, dim));
  }
  std::size_t compared = 0, identical = 0;
  std::vector<float> u(dim), row(tier.n_items());
  for (const SampledRow& s : nominal.samples) {
    if (s.result.status != serve::RequestStatus::kServed) continue;  // a failed request
    ++compared;
    if (s.result.coverage != 1.0) continue;
    tier.user_vector(s.user, u);
    for (std::size_t i = 0; i < tier.n_items(); ++i) {
      float dot = 0.0F;
      for (std::size_t d = 0; d < dim; ++d) dot += u[d] * items[i * dim + d];
      row[i] = dot;
    }
    if (s.result.scores.size() == row.size() &&
        same_bits(s.result.scores.data(), row.data(), row.size())) {
      ++identical;
    }
  }
  report.check("serve_sharded: sampled served rows equal direct ScaleTier dot products, coverage 1.0",
               compared > 0 && identical == compared,
               std::to_string(identical) + "/" + std::to_string(compared));

  report.metric("recall_at_20", sharded_recall(*stack->router, tier, opt.seed), "ratio");

  stack->gateway->shutdown();
  check_conservation(report, stack->gateway->stats());
  const serve::ShardRouterStats rs = stack->router->stats();
  report.check("router: requests == full + partial + zero_filled",
               rs.requests == rs.served_full + rs.served_partial + rs.zero_filled);
  bool per_shard = true;
  for (const auto& shard : rs.shards) per_shard = per_shard && shard.ok + shard.failed == rs.requests;
  report.check("router: ok + failed == requests for every shard", per_shard);
  const double n = std::max<double>(1.0, static_cast<double>(rs.requests));
  report.metric("serve.shard_hedge_frac", static_cast<double>(rs.hedges) / n, "ratio");
  report.metric("serve.shard_failover_frac", static_cast<double>(rs.failovers) / n, "ratio");
  destroy_shard_stack(stack);
}

namespace {

/// Published generations' item widths, written by the refresh thread
/// and read after the run.
class VersionBook {
 public:
  void record(std::uint64_t version, std::size_t n_items) {
    std::lock_guard<std::mutex> lock(mutex_);
    items_[version] = n_items;
  }
  [[nodiscard]] bool consistent(std::uint64_t version, std::size_t width) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = items_.find(version);
    return it != items_.end() && it->second == width;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::size_t> items_;  // guarded by mutex_
};

/// The refresher, its stream and the gateway serving its handle. The
/// gateway is declared last so it drains before the refresher goes.
struct RefreshStack {
  std::unique_ptr<facility::FacilityDataset> dataset;
  std::unique_ptr<facility::FacilityStream> stream;
  std::shared_ptr<serve::ModelHandle> handle;
  std::unique_ptr<serve::OnlineRefresher> refresher;
  std::size_t bootstrap_users = 0;
  std::string checkpoint;
  std::unique_ptr<serve::ServeGateway> gateway;
};

std::unique_ptr<RefreshStack> build_refresh_stack(const Options& opt) {
  auto s = std::make_unique<RefreshStack>();
  s->dataset = std::make_unique<facility::FacilityDataset>(make_gage(opt.seed));
  facility::StreamParams params;
  params.n_windows = kRefreshWindows;
  params.bootstrap_queries = kRefreshBootstrapQueries;
  params.queries_per_window = kRefreshWindowQueries;
  params.seed = opt.seed;
  s->stream = std::make_unique<facility::FacilityStream>(
      s->dataset->model(), s->dataset->users(), facility::TraceParams{}, params);
  s->bootstrap_users = s->stream->active_users();
  graph::InteractionSet all(s->stream->active_users(), s->stream->active_items());
  for (const facility::QueryRecord& q : s->stream->bootstrap_queries()) all.add(q.user, q.object);
  all.finalize();
  util::Rng split_rng(opt.seed ^ 0x5151);
  graph::InteractionSplit split = graph::split_interactions(all, 0.8, split_rng);

  serve::RefreshConfig config;  // pins CKAT_REFRESH_EPOCHS / _GUARDRAIL_EPS
  config.epochs = 1;
  config.guardrail_eps = 1.0;  // every window publishes: the swap path always runs
  config.eval_k = 20;
  config.model = paper_config(opt.seed, nproc(), kServeFitEpochs);
  s->checkpoint = tag(opt) + ".ckpt";
  config.checkpoint_path = s->checkpoint;
  config.ckg_options.sources = {facility::kSourceLoc, facility::kSourceDkg};
  s->handle = std::make_shared<serve::ModelHandle>(kSwapMaxRetries);
  s->refresher = std::make_unique<serve::OnlineRefresher>(
      s->handle, std::move(split), s->stream->bootstrap_user_pairs(10),
      s->stream->bootstrap_sources(), config);
  const serve::RefreshOutcome boot = s->refresher->bootstrap();
  if (boot.status != serve::RefreshOutcome::Status::kPublished) {
    throw std::runtime_error("refresher bootstrap failed: " + boot.error);
  }
  s->gateway = std::make_unique<serve::ServeGateway>(s->handle, gateway_config());
  return s;
}

void destroy_refresh_stack(std::unique_ptr<RefreshStack>& s) {
  if (!s) return;
  const std::string checkpoint = s->checkpoint;
  s.reset();
  std::filesystem::remove(checkpoint);
  std::filesystem::remove(checkpoint + ".tmp");
}

}  // namespace

void run_refresh_under_load(const Options& opt, Report& report) {
  std::vector<double> setups;
  double spent = 0.0;
  std::unique_ptr<RefreshStack> stack;
  for (int i = 0; more_setups(i, spent); ++i) {
    destroy_refresh_stack(stack);
    const std::int64_t t0 = now_ns();
    stack = build_refresh_stack(opt);
    setups.push_back(seconds_since(t0));
    spent += setups.back();
  }
  report_setups(report, setups);
  VersionBook book;
  book.record(stack->refresher->serving_version(), stack->refresher->serving_items());
  std::printf("refresh_under_load: bootstrap %zu users x %zu items, %.0f req/s\n",
              stack->refresher->serving_users(), stack->refresher->serving_items(),
              kRefreshRate);

  const UserDraw draw = uniform_users(stack->bootstrap_users);
  (void)run_open_loop(*stack->gateway, {kRefreshRate, kWarmupSeconds, opt.seed ^ 0xA5A5,
                                        kDeadlineMs, 0},
                      draw);

  // The refresh thread ingests windows back to back until the load
  // ends (and at least kRecallWindows of them); only cycles that
  // finished while the load ran are timed.
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> load_end_ns{0};
  std::vector<double> cycle_s;
  std::vector<double> ingest_rate;
  std::uint64_t cycles = 0, published = 0;
  std::vector<double> recalls;
  std::exception_ptr refresh_error;
  std::thread refresher([&] {
    try {
      while ((!stop.load() || cycles < kRecallWindows) && !stack->stream->exhausted()) {
        const facility::StreamWindow window = stack->stream->stream_window();
        const std::int64_t t0 = now_ns();
        serve::RefreshOutcome outcome;
        {
          Span span("serve.refresh_cycle");
          outcome = stack->refresher->ingest(window.delta);
        }
        const std::int64_t t1 = now_ns();
        ++cycles;
        if (outcome.status == serve::RefreshOutcome::Status::kPublished) {
          ++published;
          book.record(outcome.version, stack->refresher->serving_items());
        }
        if (cycles <= kRecallWindows) recalls.push_back(outcome.candidate_recall);
        const std::int64_t end = load_end_ns.load();
        if (end == 0 || t1 <= end) {
          const double s = static_cast<double>(t1 - t0) / 1e9;
          cycle_s.push_back(s);
          ingest_rate.push_back(static_cast<double>(window.delta.interactions.size()) / s);
        }
      }
    } catch (...) {
      refresh_error = std::current_exception();
    }
  });
  const ProcSample p0 = proc_sample();
  const LoadResult load = run_open_loop(
      *stack->gateway, {kRefreshRate, opt.seconds, opt.seed, kDeadlineMs, 0}, draw);
  const ProcSample p1 = proc_sample();
  load_end_ns.store(now_ns());
  stop.store(true);
  refresher.join();
  if (refresh_error) std::rethrow_exception(refresh_error);

  report_proc(report, p0, p1);
  report_nominal(report, load,
                 std::max<std::size_t>(3, static_cast<std::size_t>(opt.seconds / kRefreshWindowSeconds)));
  check_resolved(report, load, "refresh_under_load");
  std::size_t bad_width = 0;
  for (const auto& [version, width] : load.widths) {
    if (!book.consistent(version, width)) ++bad_width;
  }
  report.check("refresh: every answer's row width matches its model_version's n_items",
               bad_width == 0 && !load.widths.empty(),
               std::to_string(bad_width) + " mismatches in " + std::to_string(load.widths.size()));
  report.check("refresh: at least one window refreshed while serving", !cycle_s.empty(),
               std::to_string(cycle_s.size()) + " timed of " + std::to_string(cycles));

  const double cycle = median(cycle_s);
  report.metric("refresh_cycle_s", cycle, "s");
  report.metric("throughput_per_s", median(ingest_rate), "1/s");
  double recall = 0.0;
  for (const double r : recalls) recall += r;
  report.metric("recall_at_20", recalls.empty() ? 0.0 : recall / static_cast<double>(recalls.size()),
                "ratio");
  report.info("refresh_cycles", std::to_string(cycles) + " ingested, " +
                                    std::to_string(cycle_s.size()) + " timed under load");

  auto& registry = obs::MetricsRegistry::global();
  const obs::Histogram& fit = registry.histogram(obs::metric_names::kRefreshFitSeconds);
  report.metric("serve.refresh_fit_s", fit.count() > 0 ? fit.sum() / static_cast<double>(fit.count()) : 0.0, "s");
  report.metric("serve.refresh_published_frac",
                cycles > 0 ? static_cast<double>(published) / static_cast<double>(cycles) : 0.0,
                "ratio");
  report.metric("serve.torn_read_retries",
                static_cast<double>(stack->handle->torn_read_retries()), "count");

  stack->gateway->shutdown();
  check_conservation(report, stack->gateway->stats());
  destroy_refresh_stack(stack);
}

void probe_serving_layers(const Options& opt, Report& report,
                          const std::vector<const eval::Recommender*>& tiers) {
  auto handle = std::make_shared<serve::ModelHandle>(kSwapMaxRetries);
  handle->publish(tiers, tiers.front()->n_users(), tiers.front()->n_items());
  serve::ServeGateway gateway(handle, gateway_config());
  const LoadResult r = run_open_loop(
      gateway, {kProbeRate, kProbeSeconds, opt.seed, kDeadlineMs, 0},
      uniform_users(tiers.front()->n_users()));
  report_serve_layers(report, r);
  gateway.shutdown();
  report.metric("serve.queue_high_water",
                static_cast<double>(gateway.stats().queue_high_water), "count");
}

}  // namespace perfbench
