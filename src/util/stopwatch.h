// Wall-clock stopwatch for the benchmark harnesses.
#ifndef SJOIN_UTIL_STOPWATCH_H_
#define SJOIN_UTIL_STOPWATCH_H_

#include <chrono>

namespace sjoin {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sjoin

#endif  // SJOIN_UTIL_STOPWATCH_H_
