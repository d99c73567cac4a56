// Measurement helpers shared by the workloads: raw-sample quantiles, the
// monotonic clock, peak RSS, and the run report that becomes the final
// JSON line.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock (arbitrary epoch).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact q-quantile of raw samples (linear interpolation between order
/// statistics). 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Smallest of repeated timings (0 when empty). Contention from other
/// tenants of a shared host only ever adds time, so the fastest of
/// repetitions spread over a run is the steady estimate of the program's
/// own cost; see README.md.
inline double Fastest(const std::vector<double>& timings) {
  return Quantile(timings, 0.0);
}

/// printf-style progress line on stdout, prefixed with the seconds since
/// the process started.
void Progress(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// ru_maxrss of this process in MiB.
double PeakRssMb();

/// Accumulates metrics and output checks; prints the result line.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void Add(const std::string& name, double value, const std::string& unit);

  /// A figure printed in the table only, not in the JSON result.
  void Note(const std::string& name, double value, const std::string& unit);

  /// One output check: counts toward `attempted`, and toward `failed`
  /// (with a message on stderr) when `ok` is false.
  void Check(bool ok, const std::string& what);

  /// Adds work items (requests) and how many of them failed.
  void CountWork(int64_t attempted, int64_t failed);

  bool correct() const { return failed_checks_ == 0; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Prints a human-readable table, then the JSON object as the last line.
  void Print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t failed_checks_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
