// Fixed workload parameters. Serving rates are absolute (requests per
// second), measured once on the seed commit on a 4-core host and then
// frozen: no rate is computed from the current run, so a slower
// program shows up as a lower knee, not as a re-scaled ladder. The
// nominal rate sits at about half the seed's knee; ladder steps are
// spaced no wider than the knee bound in BENCHMARK.json.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Every set-up is repeated and its median reported as setup_s, so work
/// moved into set-up shows: at least kMinSetups times, and cheap ones
/// again until kSetupSeconds are spent (at most kMaxSetups times).
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 15;
inline constexpr double kSetupSeconds = 2.0;

inline bool more_setups(int done, double spent_s) {
  return done < kMinSetups || (spent_s < kSetupSeconds && done < kMaxSetups);
}

/// train: epochs per timed fit() (each fit starts from a fresh model).
inline constexpr int kTrainEpochsPerFit = 1;
/// Epochs of the CKAT (and refresher bootstrap) model a serving
/// workload fits during set-up; request cost does not depend on it.
inline constexpr int kServeFitEpochs = 1;
inline constexpr int kServeBprEpochs = 5;

/// Gateway settings of every serving workload (pins
/// CKAT_SERVE_THREADS, CKAT_SERVE_QUEUE_DEPTH, CKAT_SWAP_*).
inline constexpr int kGatewayThreads = 2;
inline constexpr std::size_t kQueueDepth = 256;
inline constexpr double kDeadlineMs = 50.0;
inline constexpr std::size_t kKeepVersions = 2;
inline constexpr int kSwapMaxRetries = 8;

/// Share of --seconds spent at the nominal rate; the rest is split
/// evenly over the ladder. Warm-up traffic before either is unmeasured.
inline constexpr double kNominalShare = 0.4;
inline constexpr double kWarmupSeconds = 0.5;
/// Latency percentiles are medians over this many equal time slices of
/// a run (nominal phase / one ladder step), so one burst of host noise
/// moves a slice, not the figure.
inline constexpr std::size_t kNominalWindows = 9;
/// refresh_under_load spends all of --seconds at its rate; one slice per
/// second spreads the slices over several refresh cycles' phases.
inline constexpr double kRefreshWindowSeconds = 1.0;
inline constexpr std::size_t kStepWindows = 3;
/// Keep the score row of every Nth request for the correctness checks.
inline constexpr std::size_t kSampleEvery = 64;

struct RateLadder {
  double nominal = 0.0;
  std::vector<double> ladder;
};

inline const RateLadder kServeCkatRates{
    2000.0, {3500.0, 4000.0, 4400.0, 4750.0, 5130.0, 5540.0, 5980.0, 6460.0, 6980.0}};
inline const RateLadder kServeShardedRates{
    4000.0,
    {5000.0, 6000.0, 7200.0, 8600.0, 10000.0, 11000.0, 12000.0, 12800.0, 13800.0, 14900.0,
     16100.0}};
/// refresh_under_load serves at serve_ckat's nominal rate.
inline constexpr double kRefreshRate = 2000.0;

/// Serving burst of a traced run's layer probe, for workloads that do
/// not serve.
inline constexpr double kProbeRate = 200.0;
inline constexpr double kProbeSeconds = 1.0;
/// Refresh windows of the layer probe's small refresher, judged by the
/// guardrail at the program's default tolerance (CKAT_REFRESH_GUARDRAIL_EPS
/// unset), so serve.refresh_published_frac reports its real verdicts.
inline constexpr std::size_t kProbeRefreshWindows = 4;
inline constexpr double kProbeGuardrailEps = 0.02;

/// refresh_under_load stream: GAGE replayed as a bootstrap corpus plus
/// ingestion windows of cold-start users, objects and queries.
inline constexpr std::size_t kRefreshWindows = 16;
inline constexpr std::size_t kRefreshBootstrapQueries = 40000;
inline constexpr std::size_t kRefreshWindowQueries = 2000;
/// recall_at_20 of refresh_under_load: mean guardrail recall of the
/// candidates of the first this-many windows (always ingested, even if
/// the load ends first, so the figure does not depend on speed).
inline constexpr std::size_t kRecallWindows = 3;

/// recall_at_20 of the train workload's fit, recorded on the seed
/// commit for the seeds the benchmark is proven with; 0 = not recorded.
double expected_train_recall(std::uint64_t seed);

}  // namespace perfbench
