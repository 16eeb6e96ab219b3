// The benchmark's own spans, recorded around each public call it makes
// into the repository's libraries (the program itself is not
// instrumented by the benchmark). Spans are kept in memory and written
// out as JSON Lines when the run ends; nothing is recorded unless the
// log is enabled, so untraced runs pay one atomic load per call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // shared by one request's spans; 0 = none
  std::uint64_t thread = 0;
  std::string name;           // "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanLog {
 public:
  static SpanLog& instance();

  void enable(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void add(SpanRecord record);
  /// Emits an already-measured span (start and end taken elsewhere,
  /// e.g. on another thread); returns its id (0 when disabled).
  std::uint64_t emit(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t parent = 0, std::uint64_t request = 0);

  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  /// Writes every span as one JSON object per line; false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;  // guarded by mutex_
};

[[nodiscard]] std::int64_t now_ns();

/// RAII span; parents to the innermost span open on this thread.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its children (overlapping children count once).
[[nodiscard]] std::map<std::string, double> self_time_ms(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
