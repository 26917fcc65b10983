// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// system's public entry points (nothing inside the program is
// instrumented). Each span has a name, start, end, parent and the id of
// the series it belongs to; the whole set is written out as JSON when the
// run ends. A disabled tracer records nothing and costs one branch per
// scope, so the untraced run measures the system alone.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Span {
  std::string name;
  uint64_t series = 0;  // spans of one series share this id
  int id = 0;
  int parent = -1;      // -1: a root span
  Clock::time_point start;
  Clock::time_point end;
  std::thread::id thread;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: opened on construction, closed on destruction. Nested
  /// scopes on one thread become children of the innermost open scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t series)
        : tracer_(tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ != nullptr) id_ = tracer_->Begin(name, series);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  /// Durations (ms) of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(MsSince(s.start, s.end));
    }
    return out;
  }

  /// Per span name: count, summed duration and summed self time. Self
  /// time is a span's duration minus the part of it that its children
  /// cover (the union of their intervals, clipped to the parent).
  struct NameTotals {
    size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, NameTotals> Totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<int, std::vector<const Span*>> children;
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent].push_back(&s);
    }
    std::map<std::string, NameTotals> out;
    for (const Span& s : spans_) {
      double covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (const Span* c : it->second) {
          iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
        }
        std::sort(iv.begin(), iv.end());
        Clock::time_point cursor = s.start;
        for (const auto& [lo, hi] : iv) {
          Clock::time_point from = std::max(lo, cursor);
          if (hi > from) {
            covered += MsSince(from, hi);
            cursor = hi;
          }
        }
      }
      NameTotals& t = out[s.name];
      ++t.count;
      double d = MsSince(s.start, s.end);
      t.total_ms += d;
      t.self_ms += d - covered;
    }
    return out;
  }

  /// Writes every closed span as one JSON array (times in microseconds
  /// since the tracer was created). False when the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::thread::id, int> thread_ids;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto [it, inserted] =
          thread_ids.emplace(s.thread, static_cast<int>(thread_ids.size()));
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"series\": %llu, \"id\": %d, "
                   "\"parent\": %d, \"thread\": %d, \"start_us\": %.1f, "
                   "\"end_us\": %.1f}%s\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.series),
                   s.id, s.parent, it->second, MsSince(origin_, s.start) * 1e3,
                   MsSince(origin_, s.end) * 1e3,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  int Begin(const char* name, uint64_t series) {
    Span s;
    s.name = name;
    s.series = series;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.thread = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mu_);
    s.id = next_id_++;
    int id = s.id;
    open_.emplace(id, std::move(s));
    stack_.push_back(id);
    open_.at(id).start = Clock::now();
    return id;
  }

  void End(int id) {
    Clock::time_point now = Clock::now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = open_.find(id);
    if (it == open_.end()) return;
    it->second.end = now;
    spans_.push_back(std::move(it->second));
    open_.erase(it);
  }

  const bool enabled_;
  const Clock::time_point origin_;
  /// Open scopes of the calling thread, innermost last.
  static inline thread_local std::vector<int> stack_;
  mutable std::mutex mu_;  // guards everything below
  std::map<int, Span> open_;
  std::vector<Span> spans_;  // closed spans, in closing order
  int next_id_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
