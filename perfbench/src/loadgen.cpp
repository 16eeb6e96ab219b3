#include "loadgen.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sys/prctl.h>
#include <random>
#include <thread>

#include "spans.hpp"

namespace perfbench {
namespace {

using ckat::serve::RequestStatus;
using ckat::serve::ScoreRequest;
using ckat::serve::ScoreResult;

struct Pending {
  std::future<ScoreResult> future;
  std::uint64_t id = 0;
  std::uint32_t user = 0;
  std::int64_t intended_ns = 0;
  std::int64_t submitted_ns = 0;
  std::int64_t submit_end_ns = 0;
  double offset_s = 0.0;  // intended send, from the run's start
};

/// Futures that have not resolved this long after the run are counted
/// as failed rather than waited on forever.
constexpr auto kResolveGrace = std::chrono::seconds(10);

void record(LoadResult& out, Pending& p, const LoadSpec& spec) {
  if (p.future.wait_for(kResolveGrace) != std::future_status::ready) return;
  ScoreResult result = p.future.get();
  ++out.resolved;
  const double lag_ms = static_cast<double>(p.submitted_ns - p.intended_ns) / 1e6;
  double latency = lag_ms + result.total_ms;
  bool miss = true;
  switch (result.status) {
    case RequestStatus::kServed:
      ++out.served_full;
      miss = spec.deadline_ms > 0.0 && latency > spec.deadline_ms;
      if (miss) ++out.late;
      break;
    case RequestStatus::kServedPartial:
      ++out.served_partial;
      break;
    case RequestStatus::kZeroFilled:
      ++out.zero_filled;
      break;
    default:
      ++out.shed;
      break;
  }
  if (miss) latency = std::max(latency, spec.deadline_ms);
  out.latency_ms.push_back(latency);
  out.offset_s.push_back(p.offset_s);
  out.failed_flag.push_back(result.status == RequestStatus::kServed ? 0 : 1);
  const bool answered = result.status == RequestStatus::kServed ||
                        result.status == RequestStatus::kServedPartial ||
                        result.status == RequestStatus::kZeroFilled;
  out.answered_flag.push_back(answered ? 1 : 0);
  if (answered) {
    out.queue_ms.push_back(result.queue_ms);
    out.service_ms.push_back(result.total_ms - result.queue_ms);
    out.widths.emplace_back(result.model_version, result.scores.size());
  }
  SpanLog& log = SpanLog::instance();
  if (log.enabled()) {
    // One request's spans share its id: the root covers intended send
    // to answer; children split it into generator lag, the submit call,
    // queue wait and service.
    const auto end_ns =
        p.submitted_ns + static_cast<std::int64_t>(result.total_ms * 1e6);
    const std::uint64_t root =
        log.emit("serve.request", p.intended_ns, end_ns, 0, p.id);
    log.emit("loadgen.lag", p.intended_ns, p.submitted_ns, root, p.id);
    log.emit("serve.submit", p.submitted_ns, p.submit_end_ns, root, p.id);
    const auto dequeued_ns =
        p.submitted_ns + static_cast<std::int64_t>(result.queue_ms * 1e6);
    log.emit("serve.queue_wait", p.submitted_ns, dequeued_ns, root, p.id);
    log.emit("serve.service", dequeued_ns, end_ns, root, p.id);
  }
  if (spec.sample_every > 0 && p.id % spec.sample_every == 0) {
    out.samples.push_back(SampledRow{p.user, std::move(result)});
  }
}

}  // namespace

std::vector<LadderStep> LoadResult::slices(std::size_t windows) const {
  std::vector<LadderStep> out(windows);
  std::vector<std::vector<double>> latency(windows);
  std::vector<double> failed(windows, 0.0);
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    const auto w = std::min(
        static_cast<std::size_t>(offset_s[i] / span_s * static_cast<double>(windows)),
        windows - 1);
    latency[w].push_back(latency_ms[i]);
    failed[w] += failed_flag[i];
  }
  // Backlog growth that would add 10 ms of arrivals to the queue within
  // one slice is a trend, not a fluctuation.
  const double slack = rate * 0.010;
  const std::size_t per = backlog.size() / windows;
  for (std::size_t w = 0; w < windows; ++w) {
    out[w].rate = rate;
    out[w].p99_ms = percentile(latency[w], 99.0);
    out[w].failed_frac =
        latency[w].empty() ? 0.0 : failed[w] / static_cast<double>(latency[w].size());
    const auto first = backlog.begin() + static_cast<std::ptrdiff_t>(w * per);
    out[w].backlog_grows =
        backlog_grows(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(per)), slack);
  }
  return out;
}

LoadResult run_open_loop(ckat::serve::ServeGateway& gateway,
                         const LoadSpec& spec, const UserDraw& draw_user) {
  LoadResult out;
  out.rate = spec.rate;
  out.span_s = spec.seconds;
  const auto expected =
      static_cast<std::size_t>(spec.rate * spec.seconds * 1.2) + 16;
  out.latency_ms.reserve(expected);
  out.offset_s.reserve(expected);
  out.lag_ms.reserve(expected);
  out.submit_us.reserve(expected);

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> pending;  // guarded by mutex
  bool done = false;            // guarded by mutex
  std::atomic<std::uint64_t> collected{0};

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      record(out, p, spec);
      collected.fetch_add(1);
    }
  });

  // The generator sleeps until each send time; a 1 ns timer slack (the
  // Linux default is 50 us) keeps its wake-ups on schedule. Restored on
  // return: the caller's thread is borrowed.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  std::mt19937_64 rng(spec.seed);
  std::exponential_distribution<double> gap(spec.rate);
  const std::int64_t span_ns = static_cast<std::int64_t>(spec.seconds * 1e9);
  const std::int64_t backlog_every = std::max<std::int64_t>(span_ns / 40, 1);
  const std::int64_t t0 = now_ns();
  std::int64_t next_backlog = t0;
  double offset_s = gap(rng);
  std::uint64_t id = 0;
  for (;;) {
    const std::int64_t intended = t0 + static_cast<std::int64_t>(offset_s * 1e9);
    if (intended - t0 >= span_ns) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(intended)));
    ScoreRequest request;
    request.user = draw_user(rng());
    request.deadline_ms = spec.deadline_ms;
    Pending p;
    p.id = ++id;
    p.user = request.user;
    p.intended_ns = intended;
    p.offset_s = offset_s;
    p.submitted_ns = now_ns();
    p.future = gateway.submit(std::move(request));
    p.submit_end_ns = now_ns();
    out.lag_ms.push_back(static_cast<double>(p.submitted_ns - intended) / 1e6);
    out.submit_us.push_back(static_cast<double>(p.submit_end_ns - p.submitted_ns) / 1e3);
    ++out.submitted;
    const std::int64_t submit_end = p.submit_end_ns;
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back(std::move(p));
    }
    cv.notify_one();
    if (submit_end >= next_backlog) {
      out.backlog.push_back(static_cast<double>(
          out.submitted - collected.load()));
      next_backlog += backlog_every;
    }
    offset_s += gap(rng);
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  cv.notify_one();
  collector.join();
  if (old_slack > 0) prctl(PR_SET_TIMERSLACK, old_slack, 0, 0, 0);
  return out;
}

}  // namespace perfbench
