// gnmr_perfbench: runs one benchmark workload and prints its metrics.
//
//   gnmr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1). The exit code is non-zero when an output check failed.
// Artifacts go to .bench_out/ under the working directory; a traced run
// also leaves its spans there as chrome://tracing JSON.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <vector>
#include <string>

#include "src/recorder.h"
#include "src/stats.h"
#include "src/workloads.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every workload reports every end-to-end metric (see README.md for how
/// each is defined on each workload).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"train_s", "s"},       {"hr10", "ratio"},
    {"ndcg10", "ratio"},   {"recall10", "ratio"},  {"p99_us", "us"},
    {"swap_p99_us", "us"}, {"max_qps", "1/s"},     {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics. A layer a workload never calls reports 0.
constexpr MetricDef kPerLayer[] = {
    {"nn.pretrain_s", "s"},
    {"core.epoch_s", "s"},
    {"core.step_ms.p50", "ms"},
    {"core.step_ms.p90", "ms"},
    {"core.propagate_ms", "ms"},
    {"core.loss_ms", "ms"},
    {"ad.backward_ms", "ms"},
    {"nn.adam_ms", "ms"},
    {"tensor.spmm_ms", "ms"},
    {"core.eta_ms", "ms"},
    {"core.xi_ms", "ms"},
    {"core.psi_ms", "ms"},
    {"graph.batch_ms", "ms"},
    {"core.steps", "count"},
    {"tensor.spmm_nnz", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_kreq", "count"},
    {"serve.hit_us.p50", "us"},
    {"serve.miss_us.p50", "us"},
    {"serve.miss_us.p99", "us"},
    {"serve.coalesced_ratio", "ratio"},
    {"serve.post_swap_miss_ratio", "ratio"},
    {"serve.swap_ms", "ms"},
    {"retrieve.exact_us.p50", "us"},
    {"retrieve.exact_us.p99", "us"},
    {"retrieve.hnsw_us.p50", "us"},
    {"retrieve.hnsw_us.p99", "us"},
    {"retrieve.hops_per_req", "count"},
    {"retrieve.items_per_req", "count"},
    {"index.hnsw_build_s", "s"},
    {"io.save_ms", "ms"},
    {"io.load_ms", "ms"},
    {"gen.lag_us.p99", "us"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "gnmr_perfbench: %s\nusage: gnmr_perfbench --workload "
               "train_taobao|serve_zipf_swap|serve_uniform_hnsw --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds >= 1.0)) {
        return Usage("--seconds takes a number >= 1");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!have_workload) return Usage("--workload is required");

  void (*run)(const perfbench::RunOptions&, perfbench::Report*) = nullptr;
  if (options.workload == "train_taobao") {
    run = perfbench::RunTrainTaobao;
  } else if (options.workload == "serve_zipf_swap") {
    run = perfbench::RunServeZipfSwap;
  } else if (options.workload == "serve_uniform_hnsw") {
    run = perfbench::RunServeUniformHnsw;
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }

  const std::filesystem::path out_dir = ".bench_out";
  options.work_dir = (out_dir / (options.workload + "-" +
                                 std::to_string(options.seed) + "-" +
                                 std::to_string(getpid())))
                         .string();
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create " + options.work_dir).c_str());

  perfbench::Report report;
  perfbench::SetRecording(options.trace);
  run(options, &report);
  perfbench::SetRecording(false);
  std::filesystem::remove_all(options.work_dir, ec);

  if (options.trace) {
    perfbench::PrintSpanSummary();
    const std::string trace_path = (out_dir / ("trace-" + options.workload +
                                               "-" +
                                               std::to_string(options.seed) +
                                               ".json"))
                                       .string();
    report.Check(perfbench::WriteChromeTrace(trace_path),
                 "cannot write " + trace_path);
    std::printf("spans: %s\n", trace_path.c_str());
  } else {
    report.Add("peak_rss_mb", perfbench::PeakRssMb(), "MiB");
  }

  // The result carries exactly the metrics of its mode, each once and in
  // its listed unit. A failed run may stop before adding them all.
  std::map<std::string, std::string> reported;
  for (const perfbench::Report::Metric& m : report.metrics()) {
    if (!reported.emplace(m.name, m.unit).second) {
      std::fprintf(stderr, "metric %s reported twice\n", m.name.c_str());
      return 3;
    }
  }
  for (const MetricDef& def :
       options.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                              std::end(kPerLayer))
                     : std::vector<MetricDef>(std::begin(kEndToEnd),
                                              std::end(kEndToEnd))) {
    auto it = reported.find(def.name);
    if (it == reported.end()) {
      if (options.trace) {
        report.Add(def.name, 0.0, def.unit);
      } else if (report.correct()) {
        std::fprintf(stderr, "end-to-end metric %s missing\n", def.name);
        return 3;
      }
      continue;
    }
    if (it->second != def.unit) {
      std::fprintf(stderr, "metric %s in %s, listed in %s\n", def.name,
                   it->second.c_str(), def.unit);
      return 3;
    }
    reported.erase(it);
  }
  if (!reported.empty()) {
    std::fprintf(stderr, "unlisted metric %s\n", reported.begin()->first.c_str());
    return 3;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
