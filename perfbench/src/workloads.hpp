// The four workloads and the per-layer probe of a traced run. Each
// fills `report` with its end-to-end metrics and correctness checks.
#pragma once

#include <vector>

#include "common.hpp"
#include "eval/recommender.hpp"

namespace perfbench {

void run_train(const Options& opt, Report& report);
void run_serve_ckat(const Options& opt, Report& report);
void run_serve_sharded(const Options& opt, Report& report);
void run_refresh_under_load(const Options& opt, Report& report);

/// Traced runs only: times direct calls into every layer on the seed's
/// inputs and reads the program's own spans and metrics. In-situ rows
/// the workload already reported are kept.
void run_layer_probe(const Options& opt, Report& report);

/// Serves `tiers` through an unsharded gateway for a short burst at a
/// fixed low rate and reports the serve.* and loadgen.* rows, for
/// workloads that do not serve themselves.
void probe_serving_layers(const Options& opt, Report& report,
                          const std::vector<const ckat::eval::Recommender*>& tiers);

}  // namespace perfbench
