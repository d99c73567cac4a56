#include "src/recorder.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <unordered_map>

#include "src/stats.h"

namespace perfbench {

namespace {

std::atomic<bool> g_recording{false};
std::atomic<int64_t> g_next_id{0};
std::atomic<int64_t> g_next_tid{1};

std::mutex g_spans_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mu

/// Every closed span so far, in close order.
std::vector<SpanRecord> Spans() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  return g_spans;
}

/// Open span ids on this thread, innermost last.
thread_local std::vector<int64_t> t_open;

int64_t ThreadId() {
  thread_local const int64_t tid = g_next_tid.fetch_add(1);
  return tid;
}

/// Self time of every span, keyed by id. Children run on their parent's
/// thread and nest, so they never overlap each other: the union of their
/// intervals is the sum of their durations.
std::unordered_map<int64_t, double> SelfTimes(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, double> self;
  self.reserve(spans.size());
  for (const SpanRecord& s : spans) self[s.id] += s.DurationNs();
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.DurationNs();
  }
  return self;
}

}  // namespace

void SetRecording(bool enabled) {
  g_recording.store(enabled, std::memory_order_relaxed);
}

bool Recording() { return g_recording.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name), start_ns_(NowNs()) {
  if (!Recording()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open.empty() ? -1 : t_open.back();
  t_open.push_back(id_);
}

Span::~Span() {
  if (id_ < 0) return;
  SpanRecord rec;
  rec.name = name_;
  rec.id = id_;
  rec.parent = parent_;
  rec.tid = ThreadId();
  rec.start_ns = start_ns_;
  rec.end_ns = NowNs();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans.push_back(rec);
}

int64_t Span::ElapsedNs() const { return NowNs() - start_ns_; }

std::vector<double> SpanDurationsNs(const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : Spans()) {
    if (name == s.name) out.push_back(s.DurationNs());
  }
  return out;
}

void PrintSpanSummary() {
  const std::vector<SpanRecord> spans = Spans();
  const std::unordered_map<int64_t, double> self = SelfTimes(spans);
  struct Row {
    int64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : spans) {
    Row& r = rows[s.name];
    ++r.count;
    r.total_ns += s.DurationNs();
    r.self_ns += self.at(s.id);
  }
  std::printf("%-28s %10s %14s %14s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, r] : rows) {
    std::printf("%-28s %10lld %14.3f %14.3f\n", name.c_str(),
                static_cast<long long>(r.count), r.total_ns / 1e6,
                r.self_ns / 1e6);
  }
}

bool WriteChromeTrace(const std::string& path) {
  const std::vector<SpanRecord> spans = Spans();
  const std::unordered_map<int64_t, double> self = SelfTimes(spans);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  int64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) epoch = std::min(epoch, s.start_ns);
  out << "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"self_us\":%.3f}}",
                  i == 0 ? "" : ",", s.name, static_cast<long long>(s.tid),
                  static_cast<double>(s.start_ns - epoch) / 1e3,
                  s.DurationNs() / 1e3, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), self.at(s.id) / 1e3);
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
