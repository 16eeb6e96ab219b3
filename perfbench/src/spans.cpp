#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {
namespace {

thread_local std::vector<std::uint64_t> t_open;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffu;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

std::uint64_t SpanLog::emit(const std::string& name, std::int64_t start_ns,
                            std::int64_t end_ns, std::uint64_t parent,
                            std::uint64_t request) {
  if (!enabled()) return 0;
  SpanRecord record;
  record.id = next_id();
  record.parent = parent;
  record.request = request;
  record.thread = thread_tag();
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  const std::uint64_t id = record.id;
  add(std::move(record));
  return id;
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& r : snapshot()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"thread\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request),
                 static_cast<unsigned long long>(r.thread),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t request) {
  SpanLog& log = SpanLog::instance();
  if (!log.enabled()) return;
  active_ = true;
  record_.id = log.next_id();
  record_.parent = t_open.empty() ? 0 : t_open.back();
  record_.request = request;
  record_.thread = thread_tag();
  record_.name = name;
  t_open.push_back(record_.id);
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = now_ns();
  t_open.pop_back();
  SpanLog::instance().add(std::move(record_));
}

std::map<std::string, double> self_time_ms(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

}  // namespace perfbench
