// Span recorder for traced runs. Spans are opened by the benchmark around
// its calls into the library's public functions (nothing inside the
// library is instrumented), kept in memory, and written out at exit as
// chrome://tracing JSON. Each span records its parent (the innermost span
// open on the same thread), so a span's self time is its duration minus
// the time its children cover.
#ifndef PERFBENCH_RECORDER_H_
#define PERFBENCH_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span. `name` has static storage duration.
struct SpanRecord {
  const char* name = nullptr;
  int64_t id = 0;
  /// Id of the enclosing span on the same thread; -1 at top level.
  int64_t parent = -1;
  int64_t tid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double DurationNs() const { return static_cast<double>(end_ns - start_ns); }
};

/// Turns recording on or off (off: a Span is one relaxed load).
void SetRecording(bool enabled);
bool Recording();

/// RAII span around a call; records on destruction while recording is on.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Duration so far (valid whether or not recording is on).
  int64_t ElapsedNs() const;

 private:
  const char* name_;
  int64_t id_ = -1;
  int64_t parent_ = -1;
  int64_t start_ns_ = 0;
};

/// Durations (ns) of the closed spans named `name`, in close order.
std::vector<double> SpanDurationsNs(const std::string& name);

/// Prints a per-name table (count, total, self) to stdout.
void PrintSpanSummary();

/// Writes all spans as chrome://tracing JSON ("ph":"X" events with the
/// span id, parent id and self time in args). Returns false on IO error.
bool WriteChromeTrace(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_RECORDER_H_
