// Benchmark program: runs one workload against the repository's
// libraries and prints a human-readable summary followed by one JSON
// line (metrics, correctness checks, recorded environment). run.py
// builds this program and turns that line into the benchmark result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace 1]
//             [--workdir <dir>]
//
// A traced run reads the program's own spans back from CKAT_TRACE_FILE
// when that variable is set.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "nn/kernels.hpp"
#include "spans.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

const char* isa_name(ckat::nn::GemmIsa isa) {
  switch (isa) {
    case ckat::nn::GemmIsa::kScalar: return "scalar";
    case ckat::nn::GemmIsa::kSse2: return "sse2";
    case ckat::nn::GemmIsa::kAvx2: return "avx2";
    default: return "auto";
  }
}

/// Records the host and build, and every CKAT_* / OMP_* variable set in
/// the environment. CKAT_* knobs that change a workload are pinned
/// through config fields, so a set one is only warned about; OMP_* is
/// deliberately left as the program's default (OpenMP spin-waiting is
/// behaviour the benchmark must show, not hide).
void record_environment(Report& report) {
  report.info("nproc", std::to_string(nproc()));
  report.info("gemm_isa", isa_name(ckat::nn::active_gemm_isa()));
  report.info("compiler", __VERSION__);
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  std::string ckat_vars, omp_vars;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string var = *e;
    if (var.rfind("OMP_", 0) == 0) omp_vars += (omp_vars.empty() ? "" : " ") + var;
    if (var.rfind("CKAT_", 0) == 0) {
      ckat_vars += (ckat_vars.empty() ? "" : " ") + var;
      if (var.rfind("CKAT_TRACE_FILE=", 0) != 0) {  // set by run.py for traced runs
        std::fprintf(stderr, "perfbench: warning: %s is set in the environment\n", var.c_str());
      }
    }
  }
  report.info("env_ckat", ckat_vars);
  report.info("env_omp", omp_vars);
}

void print_layers(const Options& opt) {
  const std::vector<SpanRecord> spans = SpanLog::instance().snapshot();
  std::printf("\nself time by benchmark span (ms, %zu spans):\n", spans.size());
  std::map<std::string, double> by_layer;
  for (const auto& [name, ms] : self_time_ms(spans)) {
    std::printf("  %-28s %12.3f\n", name.c_str(), ms);
    by_layer[name.substr(0, name.find('.'))] += ms;
  }
  std::printf("self time by layer (ms):\n");
  for (const auto& [layer, ms] : by_layer) std::printf("  %-28s %12.3f\n", layer.c_str(), ms);
  const std::string path = opt.workdir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".spans.jsonl";
  if (SpanLog::instance().write_jsonl(path)) std::printf("spans written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--workdir") opt.workdir = value;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  void (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "train") run = run_train;
  else if (opt.workload == "serve_ckat") run = run_serve_ckat;
  else if (opt.workload == "serve_sharded") run = run_serve_sharded;
  else if (opt.workload == "refresh_under_load") run = run_refresh_under_load;
  if (run == nullptr || opt.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: need --workload train|serve_ckat|serve_sharded|"
                         "refresh_under_load and --seconds > 0\n");
    return 2;
  }
  std::filesystem::create_directories(opt.workdir);

  Report report;
  record_environment(report);
  SpanLog::instance().enable(opt.trace);
  try {
    run(opt, report);
    if (opt.trace) run_layer_probe(opt, report);
  } catch (const std::exception& e) {
    report.check("workload ran to completion", false, e.what());
  }
  if (!report.has("peak_rss_mb")) report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.trace) print_layers(opt);
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
