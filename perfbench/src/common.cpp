#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, vu] : metrics_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

bool Report::has(const std::string& name) const {
  for (const auto& [n, vu] : metrics_) {
    if (n == name) return true;
  }
  return false;
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, {ok, detail}});
  std::printf("  check %-58s %s%s%s\n", name.c_str(), ok ? "PASS" : "FAIL",
              detail.empty() ? "" : "  ", detail.c_str());
}

void Report::info(const std::string& key, const std::string& value) {
  info_[key] = value;
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const auto& [name, result] : checks_) {
    if (!result.first) return false;
  }
  return true;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           json_number(vu.first) + ", \"unit\": " + json_string(vu.second) + "}";
    first = false;
  }
  out += "}, \"checks\": {";
  first = true;
  for (const auto& [name, result] : checks_) {
    out += (first ? "" : ", ") + json_string(name) + ": " +
           (result.first ? "true" : "false");
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    out += (first ? "" : ", ") + json_string(key) + ": " + json_string(value);
    first = false;
  }
  return out + "}}";
}

int nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

ProcSample proc_sample() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcSample s;
  s.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  s.invol_switches = static_cast<double>(usage.ru_nivcsw);
  s.wall_s = static_cast<double>(now_ns()) / 1e9;
  return s;
}

void report_proc(Report& report, const ProcSample& a, const ProcSample& b) {
  const double wall = std::max(b.wall_s - a.wall_s, 1e-9);
  report.metric("proc.cpu_util", (b.cpu_s - a.cpu_s) / (wall * nproc()), "ratio");
  report.metric("proc.invol_ctx_switches_per_s",
                (b.invol_switches - a.invol_switches) / wall, "1/s");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

void report_setups(Report& report, const std::vector<double>& setups) {
  std::printf("set-up times (s):");
  for (const double s : setups) std::printf(" %.3f", s);
  std::printf("\n");
  report.metric("setup_s", median(setups), "s");
}

ckat::facility::FacilityDataset make_gage(std::uint64_t seed) {
  return ckat::facility::make_gage_dataset(seed,
                                           ckat::facility::DatasetScale::kPaper);
}

ckat::core::CkatConfig paper_config(std::uint64_t seed, int threads, int epochs) {
  ckat::core::CkatConfig config;  // dim 64, {64,32,16}, concat, attention
  config.train_threads = threads;
  config.train_batch = config.cf_batch_size;
  config.epochs = epochs;
  config.seed = seed;
  return config;
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

}  // namespace perfbench
