// Summary statistics shared by every workload: percentiles, the
// tail-percentile choice, generator lag, backlog growth and the knee of
// a rate ladder. Header-only and free of any library dependency so the
// unit tests (tests/stats_test.cpp) exercise exactly this code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples,
/// the same definition as numpy's default. 0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Splits samples into `windows` equal slices of [0, span_s) by their
/// time offsets and returns the median over the slices of each slice's
/// p-th percentile (empty slices are skipped). A burst of host noise
/// then moves one slice, not the reported figure.
inline double windowed_percentile(const std::vector<double>& offsets_s,
                                  const std::vector<double>& values, double span_s,
                                  std::size_t windows, double p) {
  if (windows == 0 || span_s <= 0.0) return percentile(values, p);
  std::vector<std::vector<double>> slices(windows);
  for (std::size_t i = 0; i < values.size() && i < offsets_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(offsets_s[i] / span_s * static_cast<double>(windows));
    slices[std::min(w, windows - 1)].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& slice : slices) {
    if (!slice.empty()) per_slice.push_back(percentile(std::move(slice), p));
  }
  return median(std::move(per_slice));
}

/// The highest of the standard percentiles (99.9, 99, 95, 90, 50) that
/// leaves at least `min_beyond` samples above it; 50 when even the
/// median does not (a timing is then only reported as a median).
inline double tail_percentile(std::size_t n, std::size_t min_beyond = 10) {
  // Per-mille integers, so 100 samples leave exactly 10 beyond p90.
  for (const std::size_t per_mille : {999U, 990U, 950U, 900U}) {
    if (n * (1000 - per_mille) >= min_beyond * 1000) {
      return static_cast<double>(per_mille) / 10.0;
    }
  }
  return 50.0;
}

/// One rung of a fixed-rate ladder as the knee search sees it.
struct LadderStep {
  double rate = 0.0;         // offered requests per second
  double p99_ms = 0.0;       // latency from intended send time
  double failed_frac = 0.0;  // sheds + zero-filled + partial, per submitted
  bool backlog_grows = false;
};

/// One ladder step judged from its time slices: the median slice's p99
/// and failed fraction, and a backlog that grows in most slices, so one
/// noisy slice neither fails nor passes the step on its own.
inline LadderStep summarize_slices(double rate, const std::vector<LadderStep>& slices) {
  LadderStep step;
  step.rate = rate;
  std::vector<double> p99, failed;
  std::size_t growing = 0;
  for (const LadderStep& s : slices) {
    p99.push_back(s.p99_ms);
    failed.push_back(s.failed_frac);
    growing += s.backlog_grows ? 1 : 0;
  }
  step.p99_ms = median(p99);
  step.failed_frac = median(failed);
  step.backlog_grows = 2 * growing > slices.size();
  return step;
}

/// A step is sustained when p99 <= deadline, failed_frac <= max_failed
/// and its backlog does not grow.
inline bool step_sustained(const LadderStep& step, double deadline_ms,
                           double max_failed = 0.01) {
  return step.p99_ms <= deadline_ms && step.failed_frac <= max_failed &&
         !step.backlog_grows;
}

/// Highest rate of a sustained step. Steps are taken in ascending rate
/// order and the search stops at the first step that is not sustained,
/// so a lucky rung above a saturated one never counts. 0 when even the
/// lowest rung fails.
inline double knee_rate(std::vector<LadderStep> steps, double deadline_ms,
                        double max_failed = 0.01) {
  std::sort(steps.begin(), steps.end(),
            [](const LadderStep& a, const LadderStep& b) { return a.rate < b.rate; });
  double knee = 0.0;
  for (const LadderStep& step : steps) {
    if (!step_sustained(step, deadline_ms, max_failed)) break;
    knee = step.rate;
  }
  return knee;
}

/// Backlog (requests submitted but not yet resolved) sampled at even
/// intervals over one step. It grows when the mean of the last quarter
/// exceeds twice the first quarter's mean plus `slack` requests:
/// a stable queue fluctuates around a level, an overloaded one climbs.
inline bool backlog_grows(const std::vector<double>& backlog, double slack) {
  if (backlog.size() < 4) return false;
  const std::size_t q = backlog.size() / 4;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    first += backlog[i];
    last += backlog[backlog.size() - 1 - i];
  }
  first /= static_cast<double>(q);
  last /= static_cast<double>(q);
  return last > 2.0 * first + slack;
}

/// Generator lag: how late each request was actually submitted relative
/// to its intended (scheduled) send time, in ms.
struct LagSummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Achieved submissions per second over the scheduled span.
  double achieved_rate = 0.0;
};

inline LagSummary summarize_lag(const std::vector<double>& lag_ms,
                                double span_s) {
  LagSummary out;
  if (lag_ms.empty()) return out;
  out.p50_ms = percentile(lag_ms, 50.0);
  out.p99_ms = percentile(lag_ms, 99.0);
  out.max_ms = *std::max_element(lag_ms.begin(), lag_ms.end());
  out.achieved_rate = span_s > 0.0 ? static_cast<double>(lag_ms.size()) / span_s : 0.0;
  return out;
}

/// A serving run whose generator fell this far behind schedule at p99
/// no longer offers the load it claims; the run is flagged.
inline constexpr double kMaxGeneratorLagP99Ms = 5.0;

}  // namespace perfbench
