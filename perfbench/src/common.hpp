// Shared plumbing of the benchmark program: run options, the report
// every workload fills (metrics, correctness checks, recorded
// environment), process counters and the GAGE paper-scale inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/ckat.hpp"
#include "facility/dataset.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (shard files, checkpoints,
  /// span files).
  std::string workdir = ".";
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  /// A correctness check; a failed one makes the whole run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void info(const std::string& key, const std::string& value);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const;
  /// One JSON object: correct, attempted, failed, metrics, checks, info.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::pair<bool, std::string>>> checks_;
  std::map<std::string, std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Online processors (the `nproc` count).
[[nodiscard]] int nproc();

/// Process CPU time, involuntary context switches and wall clock, for
/// the proc.* rows.
struct ProcSample {
  double cpu_s = 0.0;
  double invol_switches = 0.0;
  double wall_s = 0.0;
};
[[nodiscard]] ProcSample proc_sample();
/// Adds proc.cpu_util and proc.invol_ctx_switches_per_s over [a, b].
void report_proc(Report& report, const ProcSample& a, const ProcSample& b);
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double seconds_since(std::int64_t start_ns);

/// Prints every set-up time of the run and reports their median as
/// setup_s.
void report_setups(Report& report, const std::vector<double>& setups);

/// GAGE at Table-I scale, generated from the workload seed.
[[nodiscard]] ckat::facility::FacilityDataset make_gage(std::uint64_t seed);

/// The default CKAT architecture (dim 64, layers {64,32,16}, concat,
/// attention on) with every environment-resolved knob pinned.
[[nodiscard]] ckat::core::CkatConfig paper_config(std::uint64_t seed,
                                                  int threads, int epochs);

/// Users per score_batch block and ranking threads for every
/// evaluation the benchmark runs (pins CKAT_EVAL_BLOCK/THREADS).
inline constexpr std::size_t kEvalBlock = 64;
inline constexpr int kEvalThreads = 1;

/// Bitwise equality of two float rows.
[[nodiscard]] bool same_bits(const float* a, const float* b, std::size_t n);

}  // namespace perfbench
