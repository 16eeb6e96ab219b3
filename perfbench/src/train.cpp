// Workload `train`: CkatModel::fit on GAGE at Table-I scale with the
// default architecture after a warm-up fit, three of every four fits at
// train_threads = nproc and one at 1, ending with evaluate_topk on the
// held-out split.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "config.hpp"
#include "eval/evaluator.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ckat;

double expected_train_recall(std::uint64_t seed) {
  // recall_at_20 of one kTrainEpochsPerFit fit, recorded on the seed
  // commit. Training is bit-identical at every thread count and ISA, so
  // any change here is a change in what the model learns.
  switch (seed) {
    case 1: return 0.18176667696009718;
    case 2: return 0.16820164002999566;
    case 3: return 0.18091186241010246;
    case 4: return 0.17152858953283176;
    case 5: return 0.18422241770855197;
    case 6: return 0.18700441568753579;
    case 7: return 0.1387582275659218;
    case 8: return 0.16593299481379786;
    case 9: return 0.15208368939632133;
    case 10: return 0.15849818230613508;
    default: return 0.0;
  }
}

void run_train(const Options& opt, Report& report) {
  // Set-up, repeated: dataset, CKG, model construction.
  std::vector<double> setups;
  double spent = 0.0;
  std::unique_ptr<facility::FacilityDataset> dataset;
  std::unique_ptr<graph::CollaborativeKg> ckg;
  for (int i = 0; more_setups(i, spent); ++i) {
    ckg.reset();
    dataset.reset();
    const std::int64_t t0 = now_ns();
    dataset = std::make_unique<facility::FacilityDataset>(make_gage(opt.seed));
    ckg = std::make_unique<graph::CollaborativeKg>(dataset->build_default_ckg());
    core::CkatModel probe(*ckg, dataset->split().train,
                          paper_config(opt.seed, nproc(), kTrainEpochsPerFit));
    setups.push_back(seconds_since(t0));
    spent += setups.back();
  }
  report_setups(report, setups);
  std::printf("train: %zu users, %zu items, %zu entities, %zu triples, %zu train pairs\n",
              dataset->n_users(), dataset->n_items(), ckg->n_entities(),
              ckg->triples().size(), dataset->split().train.size());

  std::unique_ptr<core::CkatModel> last;  // latest nproc fit, evaluated below
  auto fit = [&](int t, std::vector<float>& repr) {
    auto model = std::make_unique<core::CkatModel>(
        *ckg, dataset->split().train, paper_config(opt.seed, t, kTrainEpochsPerFit));
    const std::int64_t t0 = now_ns();
    {
      Span span(t == 1 ? "core.fit_1t" : "core.fit");
      model->fit();
    }
    const double s = seconds_since(t0);
    const nn::Tensor& r = model->final_representations();
    repr.assign(r.data(), r.data() + r.size());
    if (t != 1) last = std::move(model);
    return s / kTrainEpochsPerFit;
  };

  std::vector<float> reference;
  (void)fit(nproc(), reference);  // warm-up
  // Peak memory of a fixed amount of work: set-up and one fit. The
  // process peak creeps by up to 20 MB over later fits as the heap
  // fragments, and how many fits a run makes depends on its speed.
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  const ProcSample p0 = proc_sample();
  std::vector<double> epoch_s[2];
  std::uint64_t fits = 0;
  std::uint64_t identical = 0;
  const std::int64_t start = now_ns();
  for (int i = 0; i < 2 || seconds_since(start) < opt.seconds; ++i) {
    const bool single = i % 4 == 1;
    const int threads = single ? 1 : nproc();
    std::vector<float> repr;
    epoch_s[single].push_back(fit(threads, repr));
    std::printf("train: fit %d at train_threads %d: %.3f s per epoch\n", i, threads,
                epoch_s[single].back());
    ++fits;
    if (repr.size() == reference.size() &&
        same_bits(repr.data(), reference.data(), repr.size())) {
      ++identical;
    }
  }
  const ProcSample p1 = proc_sample();
  report_proc(report, p0, p1);
  report.count(fits, fits - identical);
  report.check("train: final representations bit-identical at train_threads 1 and nproc",
               identical == fits,
               std::to_string(identical) + "/" + std::to_string(fits) + " fits");

  eval::EvalConfig eval_config;
  eval_config.threads = kEvalThreads;
  eval_config.block_size = kEvalBlock;
  double recall = 0.0;
  {
    Span span("eval.evaluate_topk");
    recall = eval::evaluate_topk(*last, dataset->split(), eval_config).recall;
  }
  const double expected = expected_train_recall(opt.seed);
  if (expected > 0.0) {
    report.check("train: recall_at_20 equals the value recorded for the seed",
                 recall == expected, "got " + std::to_string(recall));
  } else {
    report.info("recall_note", "no recall recorded for this seed; only the "
                               "thread-count bit-identity check applies");
  }

  // The fastest fit of each kind: on a shared host, other tenants slow
  // whole stretches of a run, and the fastest fit is the one they slowed
  // least. Medians are recorded alongside.
  const double fit_s = *std::min_element(epoch_s[0].begin(), epoch_s[0].end());
  const double fit_1t_s = *std::min_element(epoch_s[1].begin(), epoch_s[1].end());
  report.metric("fit_epoch_s", fit_s, "s");
  report.metric("fit_epoch_1t_s", fit_1t_s, "s");
  report.metric("recall_at_20", recall, "ratio");
  report.metric("work_ms", fit_s * 1e3, "ms");
  report.metric("throughput_per_s",
                static_cast<double>(dataset->split().train.size()) / fit_s, "1/s");
  report.metric("ok_frac", static_cast<double>(identical) / static_cast<double>(fits),
                "ratio");
  report.info("train_fits", std::to_string(epoch_s[0].size()) + " at nproc, " +
                                std::to_string(epoch_s[1].size()) + " at 1 thread");
  report.info("train_run_peak_rss_mb", std::to_string(peak_rss_mb()));
  report.info("train_speedup", std::to_string(fit_1t_s / fit_s));
  report.info("train_median_epoch_s", std::to_string(median(epoch_s[0])) + " at nproc, " +
                                          std::to_string(median(epoch_s[1])) + " at 1 thread");
}

}  // namespace perfbench
