#include "src/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

namespace {
const int64_t g_process_start_ns = NowNs();
}  // namespace

void Progress(const char* format, ...) {
  std::printf("[%7.2fs] ",
              static_cast<double>(NowNs() - g_process_start_ns) / 1e9);
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit) {
  notes_.push_back({name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++failed_checks_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::CountWork(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Print() const {
  std::printf("%-32s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics_) {
    std::printf("%-32s %16.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : notes_) {
    std::printf("%-32s %16.6f  %s (table only)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double fail_ratio =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0;
  std::printf("%-32s %16.6f  ratio (= failed / attempted)\n", "fail_ratio",
              fail_ratio);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
