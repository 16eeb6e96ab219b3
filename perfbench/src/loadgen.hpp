// Open-loop load generator: Poisson arrivals at a fixed offered rate,
// submitted from one generator thread whether or not earlier requests
// have been answered (independent portal users), with one collector
// thread resolving the futures. Latency is measured from each request's
// *intended* send time:
//   latency = (actual submit - intended) + ScoreResult::total_ms
// so a stalled generator or gateway charges its wait to every request
// scheduled behind it (no coordinated omission), and no collector-side
// clock is involved. Sheds, zero-filled and partial answers count as
// misses of the latency limit.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <future>
#include <vector>

#include "serve/gateway.hpp"
#include "stats.hpp"

namespace perfbench {

struct LoadSpec {
  double rate = 100.0;     // offered requests per second
  double seconds = 1.0;    // scheduled span
  std::uint64_t seed = 1;  // arrival times and user draws
  double deadline_ms = 50.0;
  /// Keep the full score row of every Nth request for correctness
  /// checks after the run (0 keeps none).
  std::size_t sample_every = 0;
};

/// A served row kept for an after-the-run correctness check.
struct SampledRow {
  std::uint32_t user = 0;
  ckat::serve::ScoreResult result;
};

struct LoadResult {
  double rate = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t resolved = 0;  // futures that resolved (exactly once each)
  std::uint64_t served_full = 0;
  std::uint64_t served_partial = 0;
  std::uint64_t zero_filled = 0;
  std::uint64_t shed = 0;
  std::uint64_t late = 0;  // served in full, but after the deadline
  /// Per request, ms from intended send to answer; misses are recorded
  /// at no less than the deadline.
  std::vector<double> latency_ms;
  std::vector<double> offset_s;    // intended send, from the run's start
  std::vector<char> failed_flag;   // shed, zero-filled or partial
  std::vector<char> answered_flag; // reached a worker (has queue/service)
  std::vector<double> lag_ms;      // actual submit - intended
  std::vector<double> submit_us;   // ServeGateway::submit call
  std::vector<double> queue_ms;    // ScoreResult::queue_ms (answered only)
  std::vector<double> service_ms;  // total_ms - queue_ms (answered only)
  std::vector<double> backlog;     // outstanding requests, sampled evenly
  /// (model_version, row width) of every answered request.
  std::vector<std::pair<std::uint64_t, std::size_t>> widths;
  std::vector<SampledRow> samples;
  double span_s = 0.0;

  /// Futures that never resolved: the gateway broke its contract.
  [[nodiscard]] std::uint64_t unresolved() const { return submitted - resolved; }
  /// Misses of the latency limit, plus unresolved futures.
  [[nodiscard]] std::uint64_t failed() const {
    return served_partial + zero_filled + shed + unresolved();
  }
  [[nodiscard]] double failed_frac() const {
    return submitted == 0 ? 0.0
                          : static_cast<double>(failed()) / static_cast<double>(submitted);
  }
  /// The run cut into `windows` equal time slices, each judged as a
  /// ladder step (p99, failed fraction, backlog growth).
  [[nodiscard]] std::vector<LadderStep> slices(std::size_t windows) const;
  /// Latency percentile as the median over `windows` time slices.
  [[nodiscard]] double latency(double p, std::size_t windows) const {
    return windowed_percentile(offset_s, latency_ms, span_s, windows, p);
  }
  [[nodiscard]] LagSummary lag() const { return summarize_lag(lag_ms, span_s); }
};

/// Draws the user of the next request from the generator's RNG stream.
using UserDraw = std::function<std::uint32_t(std::uint64_t random)>;

/// Drives `gateway` open-loop for spec.seconds at spec.rate. Returns
/// once every submitted future has resolved (or, failing that, after a
/// grace period; unresolved futures count as failed).
LoadResult run_open_loop(ckat::serve::ServeGateway& gateway,
                         const LoadSpec& spec, const UserDraw& draw_user);

}  // namespace perfbench
