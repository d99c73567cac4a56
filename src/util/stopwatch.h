// Wall-clock stopwatch for experiment timing.
#ifndef GNMR_UTIL_STOPWATCH_H_
#define GNMR_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace gnmr {
namespace util {

/// Starts at construction; ElapsedSeconds()/ElapsedNanos() read the clock.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Integer nanoseconds from the monotonic clock — the reading latency
  /// accounting feeds both the cumulative total and the histograms, so
  /// means and quantiles agree to the tick (no double round-trip).
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace util
}  // namespace gnmr

#endif  // GNMR_UTIL_STOPWATCH_H_
