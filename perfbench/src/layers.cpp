// Per-layer probe of a traced run. Each row times a call into one
// layer's public function on the seed's inputs, or reads a metric or
// span the program already exports; every call is wrapped in a
// benchmark span named after the row. Rows the workload measured in
// situ (serving lanes, refresh counters, proc.*) are kept as measured.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>

#include "config.hpp"
#include "core/attention.hpp"
#include "core/trainer.hpp"
#include "core/transr.hpp"
#include "eval/ranker.hpp"
#include "facility/model.hpp"
#include "facility/scale.hpp"
#include "facility/stream.hpp"
#include "facility/users.hpp"
#include "graph/adjacency.hpp"
#include "nn/kernels.hpp"
#include "nn/optim.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/popularity.hpp"
#include "serve/refresh.hpp"
#include "serve/resilient.hpp"
#include "serve/shard.hpp"
#include "serve/swap.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ckat;

namespace {

/// Median ms of `reps` calls of `fn`, each inside a span `name`.
template <typename Fn>
double timed_ms(const char* name, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    {
      Span span(name);
      fn(i);
    }
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

void fill_random(nn::Tensor& t, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> u(-0.1F, 0.1F);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = u(rng);
}

/// Per-epoch phase times of the fit that started at `since_us`, from the
/// program's own ckat.epoch / ckat.cf_phase / ckat.kg_phase spans, read
/// back from CKAT_TRACE_FILE.
void report_phases(Report& report, std::uint64_t since_us) {
  double epoch = 0.0, cf = 0.0, kg = 0.0;
  int epochs = 0;
  const char* trace_file = util::env_raw("CKAT_TRACE_FILE");
  std::ifstream in(trace_file != nullptr ? trace_file : "");
  std::string line;
  auto field = [&](const char* key) -> double {
    const auto at = line.find(key);
    return at == std::string::npos ? -1.0 : std::stod(line.substr(at + std::strlen(key)));
  };
  while (std::getline(in, line)) {
    if (line.find("\"cat\":\"span\"") == std::string::npos) continue;
    if (field("\"start_us\":") < static_cast<double>(since_us)) continue;
    const double s = field("\"dur_us\":") / 1e6;
    if (line.find("\"name\":\"ckat.epoch\"") != std::string::npos) {
      epoch += s;
      ++epochs;
    } else if (line.find("\"name\":\"ckat.cf_phase\"") != std::string::npos) {
      cf += s;
    } else if (line.find("\"name\":\"ckat.kg_phase\"") != std::string::npos) {
      kg += s;
    }
  }
  const double n = std::max(epochs, 1);
  report.metric("core.cf_phase_s", cf / n, "s");
  report.metric("core.kg_phase_s", kg / n, "s");
  report.metric("core.epoch_other_s", (epoch - cf - kg) / n, "s");
  if (epochs == 0) report.info("phase_note", "no ckat.epoch spans in the program trace");
}

/// A small facility refreshed over a few windows, for workloads whose own
/// run has no refresher: fills serve.refresh_fit_s and
/// serve.refresh_published_frac, the share of windows the guardrail let
/// through at the program's default tolerance.
void probe_refresh(const Options& opt, Report& report) {
  util::Rng facility_rng(opt.seed ^ 11);
  const facility::FacilityModel model = facility::make_gage_model(facility_rng, 60);
  facility::PopulationParams pop;
  pop.n_users = 48;
  pop.n_cities = 10;
  pop.n_organizations = 6;
  util::Rng pop_rng(opt.seed ^ 12);
  const facility::UserPopulation users(model, pop, pop_rng);
  facility::StreamParams params;
  params.n_windows = kProbeRefreshWindows;
  params.queries_per_window = 300;
  params.bootstrap_queries = 900;
  params.seed = opt.seed;
  facility::FacilityStream stream(model, users, facility::TraceParams{}, params);
  graph::InteractionSet all(stream.active_users(), stream.active_items());
  for (const facility::QueryRecord& q : stream.bootstrap_queries()) all.add(q.user, q.object);
  all.finalize();
  util::Rng split_rng(opt.seed);
  serve::RefreshConfig config;
  config.epochs = 1;
  config.guardrail_eps = kProbeGuardrailEps;
  config.model = paper_config(opt.seed, nproc(), 1);
  config.model.embedding_dim = 16;
  config.model.layer_dims = {8};
  config.checkpoint_path = opt.workdir + "/probe-refresh-" + opt.workload + ".ckpt";
  config.ckg_options.sources = {facility::kSourceLoc, facility::kSourceDkg};
  auto handle = std::make_shared<serve::ModelHandle>(kSwapMaxRetries);
  {
    serve::OnlineRefresher refresher(handle,
                                     graph::split_interactions(all, 0.8, split_rng),
                                     stream.bootstrap_user_pairs(2),
                                     stream.bootstrap_sources(), config);
    (void)refresher.bootstrap();
    std::size_t published = 0;
    for (std::size_t w = 0; w < kProbeRefreshWindows; ++w) {
      Span span("serve.refresh_cycle");
      published += refresher.ingest(stream.stream_window().delta).status ==
                   serve::RefreshOutcome::Status::kPublished;
    }
    report.metric("serve.refresh_published_frac",
                  static_cast<double>(published) / static_cast<double>(kProbeRefreshWindows),
                  "ratio");
  }
  std::filesystem::remove(config.checkpoint_path);
  const obs::Histogram& fit =
      obs::MetricsRegistry::global().histogram(obs::metric_names::kRefreshFitSeconds);
  report.metric("serve.refresh_fit_s",
                fit.count() > 0 ? fit.sum() / static_cast<double>(fit.count()) : 0.0, "s");
}

}  // namespace

void run_layer_probe(const Options& opt, Report& report) {
  std::printf("layer probe (traced run)\n");
  // facility, graph
  std::unique_ptr<facility::FacilityDataset> dataset;
  report.metric("facility.dataset_build_s", timed_ms("facility.dataset_build", 3, [&](int) {
                  dataset = std::make_unique<facility::FacilityDataset>(make_gage(opt.seed));
                }) / 1e3,
                "s");
  std::unique_ptr<graph::CollaborativeKg> ckg;
  report.metric("graph.ckg_build_s", timed_ms("graph.ckg_build", 3, [&](int) {
                  ckg = std::make_unique<graph::CollaborativeKg>(dataset->build_default_ckg());
                }) / 1e3,
                "s");
  std::unique_ptr<graph::Adjacency> adjacency;
  report.metric("graph.adjacency_build_s", timed_ms("graph.adjacency_build", 3, [&](int) {
                  adjacency = std::make_unique<graph::Adjacency>(
                      ckg->triples(), ckg->n_entities(), ckg->n_relations(), true);
                }) / 1e3,
                "s");
  {
    facility::StreamParams params;
    params.n_windows = 3;
    params.bootstrap_queries = kRefreshBootstrapQueries;
    params.queries_per_window = kRefreshWindowQueries;
    params.seed = opt.seed;
    facility::FacilityStream stream(dataset->model(), dataset->users(),
                                    facility::TraceParams{}, params);
    graph::InteractionSet all(stream.active_users(), stream.active_items());
    for (const facility::QueryRecord& q : stream.bootstrap_queries()) all.add(q.user, q.object);
    all.finalize();
    graph::CkgOptions options;
    options.sources = {facility::kSourceLoc, facility::kSourceDkg};
    graph::CollaborativeKg current(all, stream.bootstrap_user_pairs(10),
                                   stream.bootstrap_sources(), options);
    std::vector<double> ms;
    for (std::size_t w = 0; w < params.n_windows; ++w) {
      const facility::StreamWindow window = stream.stream_window();
      // Windows build on each other; each applies to a copy of the graph
      // grown so far, as the refresher does.
      graph::CollaborativeKg copy = current;
      const std::int64_t t0 = now_ns();
      {
        Span span("graph.apply_delta");
        copy.apply_delta(window.delta);
      }
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      current = std::move(copy);
    }
    report.metric("graph.apply_delta_ms", median(ms), "ms");
  }

  // core fit with the program's spans, then the kernels on its state.
  core::CkatModel model(*ckg, dataset->split().train, paper_config(opt.seed, nproc(), 1));
  const std::uint64_t fit_start_us = obs::trace_now_us();
  {
    Span span("core.fit");
    model.fit();
  }
  obs::flush_trace();
  report_phases(report, fit_start_us);

  const core::PropagationMatrix& prop = model.propagation_matrix();
  const std::size_t n = ckg->n_entities();
  nn::Tensor x(n, 64);
  fill_random(x, opt.seed);
  nn::Tensor out(n, 64);
  const double fwd = timed_ms("nn.spmm_fwd", 20, [&](int) { nn::spmm(prop.forward, x, out); });
  const double bwd = timed_ms("nn.spmm_bwd", 20, [&](int) { nn::spmm(prop.backward, x, out); });
  report.metric("nn.spmm_fwd_ms", fwd, "ms");
  report.metric("nn.spmm_bwd_ms", bwd, "ms");
  // Computed bytes per forward call: CSR values + column indices + row
  // offsets, the gathered rows of x and the written output.
  const double bytes = static_cast<double>(prop.forward.nnz()) * (4.0 + 4.0 + 64.0 * 4.0) +
                       static_cast<double>(n + 1) * 8.0 + static_cast<double>(n) * 64.0 * 4.0;
  report.metric("nn.spmm_gbps", bytes / (fwd / 1e3) / 1e9, "GB/s");

  nn::Tensor a(n, 128), b(128, 64), c(n, 64);
  fill_random(a, opt.seed + 1);
  fill_random(b, opt.seed + 2);
  report.metric("nn.gemm_ms", timed_ms("nn.gemm", 20, [&](int) { nn::gemm(a, b, c); }), "ms");

  const nn::Tensor& repr = model.final_representations();
  const std::size_t width = repr.cols();
  const std::size_t n_users = model.n_users();
  const std::size_t n_items = model.n_items();
  std::vector<float> scores(64 * n_items);
  report.metric("nn.gemm_nt_into_ms", timed_ms("nn.gemm_nt_into", 20, [&](int) {
                  nn::gemm_nt_into({repr.data(), 64 * width}, 64, width,
                                   {repr.data() + n_users * width, n_items * width}, n_items,
                                   scores);
                }),
                "ms");

  // TransR state for attention, the KG step and Adam.
  nn::ParamStore store;
  util::Rng init_rng(opt.seed);
  core::TransR transr(store, n, adjacency->n_relations(), core::TransRConfig{64, 64, 1.0F},
                      init_rng);
  report.metric("core.attention_refresh_ms", timed_ms("core.attention_refresh", 5, [&](int) {
                  (void)core::build_attention_matrix(*adjacency, transr);
                }),
                "ms");
  std::mt19937_64 rng(opt.seed);
  std::vector<core::KgEdge> batch(4096);
  std::vector<std::uint32_t> negatives(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t e = rng() % adjacency->n_edges();
    batch[i] = {adjacency->heads()[e], adjacency->relations()[e], adjacency->tails()[e]};
    negatives[i] = static_cast<std::uint32_t>(rng() % n);
  }
  for (const int threads : {nproc(), 1}) {
    core::MinibatchTrainer trainer(threads);
    nn::AdamOptimizer adam(0.01F);
    const double ms = timed_ms(threads == 1 ? "core.kg_step_1t" : "core.kg_step", 10, [&](int) {
      (void)trainer.kg_step(transr, batch, negatives, store, adam);
    });
    report.metric(threads == 1 ? "core.kg_step_1t_ms" : "core.kg_step_ms", ms, "ms");

    util::WorkerPool pool(static_cast<std::size_t>(threads));
    nn::Parameter& entity = transr.entity_embedding();
    const double adam_ms = timed_ms(threads == 1 ? "nn.adam_step_1t" : "nn.adam_step", 20,
                                    [&](int) {
                                      for (const core::KgEdge& edge : batch) {
                                        entity.mark_row(edge.head);
                                        entity.mark_row(edge.tail);
                                      }
                                      adam.step(store, pool);
                                    });
    report.metric(threads == 1 ? "nn.adam_step_1t_ms" : "nn.adam_step_ms", adam_ms, "ms");
  }

  std::vector<float> row(n_items);
  report.metric("core.score_items_us", 1e3 * timed_ms("core.score_items", 500, [&](int i) {
                  model.score_items(static_cast<std::uint32_t>(i % n_users), row);
                }),
                "us");

  // eval
  {
    eval::RankerConfig config;
    config.k = 20;
    config.block_size = kEvalBlock;
    config.threads = kEvalThreads;
    const eval::BatchRanker ranker(model, config);
    std::vector<std::uint32_t> users(n_users);
    for (std::size_t u = 0; u < n_users; ++u) users[u] = static_cast<std::uint32_t>(u);
    const double ms = timed_ms("eval.rank", 3, [&](int) {
      ranker.rank(users, {}, [](std::size_t, std::uint32_t, std::span<const std::uint32_t>) {});
    });
    report.metric("eval.rank_users_per_s", static_cast<double>(n_users) / (ms / 1e3), "1/s");
  }

  // util
  {
    util::WorkerPool pool(static_cast<std::size_t>(nproc()));
    report.metric("util.pool_run_us",
                  1e3 * timed_ms("util.pool_run", 2000, [&](int) { pool.run([](std::size_t) {}); }),
                  "us");
  }

  // serve: direct tier walk, swap publish/acquire, shard fan-out.
  const serve::PopularityRecommender popularity(dataset->split().train);
  const std::vector<const eval::Recommender*> tiers = {&model, &popularity};
  {
    serve::ResilientRecommender chain(tiers);
    report.metric("serve.tier_walk_us", 1e3 * timed_ms("serve.tier_walk", 500, [&](int i) {
                    chain.score_with_budget(static_cast<std::uint32_t>(i % n_users), row,
                                            kDeadlineMs);
                  }),
                  "us");
    serve::ModelHandle handle(kSwapMaxRetries);
    report.metric("serve.swap_publish_ms", timed_ms("serve.swap_publish", 50, [&](int) {
                    handle.publish(tiers, n_users, n_items);
                  }),
                  "ms");
    // Readers acquire while another thread keeps publishing, as they do
    // during a refresh; a torn snapshot seen here is a real one.
    std::atomic<bool> stop{false};
    std::thread publisher([&] {
      while (!stop.load()) handle.publish(tiers, n_users, n_items);
    });
    struct Join {
      std::atomic<bool>& stop;
      std::thread& thread;
      ~Join() {
        stop = true;
        thread.join();
      }
    };
    double acquire_ms = 0.0;
    {
      const Join join{stop, publisher};
      acquire_ms = timed_ms("serve.swap_acquire", 2000, [&](int) { (void)handle.acquire(); });
    }
    report.metric("serve.swap_acquire_us", 1e3 * acquire_ms, "us");
    if (!report.has("serve.torn_read_retries")) {
      report.metric("serve.torn_read_retries", static_cast<double>(handle.torn_read_retries()),
                    "count");
    }
  }
  {
    facility::ScaleTierParams params;
    params.seed ^= opt.seed;
    const facility::ScaleTier tier(params);
    const std::string dir = opt.workdir + "/probe-shards-" + opt.workload;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    serve::ShardRouterConfig config;
    config.n_shards = 4;
    config.replicas = 2;
    config.probe_interval_ms = 25.0;
    config.hedge_min_ms = 1.0;
    serve::ShardRouter::write_catalog(dir, 4, 2, tier.n_items(), tier.dim(),
                                      [&tier](std::uint32_t i, std::span<float> v) {
                                        tier.item_vector(i, v);
                                      });
    {
      serve::ShardRouter router(
          dir, tier.n_users(), tier.n_items(), tier.dim(),
          [&tier](std::uint32_t u, std::span<float> v) { tier.user_vector(u, v); }, config);
      std::vector<float> shard_row(tier.n_items());
      report.metric("serve.shard_fanout_us", 1e3 * timed_ms("serve.shard_fanout", 500, [&](int i) {
                      router.score(static_cast<std::uint32_t>((i * 7919) % tier.n_users()),
                                   shard_row, kDeadlineMs);
                    }),
                    "us");
      if (!report.has("serve.shard_hedge_frac")) {
        const serve::ShardRouterStats s = router.stats();
        const double calls = std::max<double>(1.0, static_cast<double>(s.requests));
        report.metric("serve.shard_hedge_frac", static_cast<double>(s.hedges) / calls, "ratio");
        report.metric("serve.shard_failover_frac", static_cast<double>(s.failovers) / calls,
                      "ratio");
      }
    }
    std::filesystem::remove_all(dir);
  }
  if (!report.has("serve.submit_us_p50")) probe_serving_layers(opt, report, tiers);
  if (!report.has("serve.refresh_fit_s")) probe_refresh(opt, report);
}

}  // namespace perfbench
