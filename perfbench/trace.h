// In-memory span recorder for the benchmark's traced runs.
//
// Every call the harness makes into the pp library goes through `timed`,
// which always measures the call's host time and, when tracing is on, also
// records a span (name, start, end, thread, parent span) in memory.  The
// spans are written out once, as Chrome trace-event JSON, when the run
// ends.  With tracing off the only cost is one steady_clock pair per call.
#pragma once

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

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint32_t tid;
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer tracer;
    return tracer;
  }

  void enable(Clock::time_point origin) {
    origin_ = origin;
    on_ = true;
  }
  [[nodiscard]] bool on() const noexcept { return on_; }

  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  std::uint64_t open() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }

  void close(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// Total duration (ms) and count of the spans named `name`.
  [[nodiscard]] std::pair<double, std::size_t> total_ms(
      const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double ms = 0;
    std::size_t n = 0;
    for (const Span& s : spans_)
      if (name == s.name) {
        ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        ++n;
      }
    return {ms, n};
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Write every span as a Chrome trace-event "X" (complete) event.
  bool dump(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}%s\n",
                   s.name, s.tid, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_{};
  bool on_ = false;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

inline std::uint32_t thread_tag() {
  static std::mutex mu;
  static std::map<std::thread::id, std::uint32_t> ids;
  thread_local std::uint32_t tag = [] {
    std::lock_guard<std::mutex> lock(mu);
    return ids.emplace(std::this_thread::get_id(),
                       static_cast<std::uint32_t>(ids.size() + 1))
        .first->second;
  }();
  return tag;
}

inline thread_local std::uint64_t current_span = 0;

/// Run `f`, add its host time in seconds to `*seconds` (when given), and
/// record a span named `name` when tracing is on.  Returns f's result.
template <class F>
auto timed(const char* name, double* seconds, F&& f) -> decltype(f()) {
  Tracer& tracer = Tracer::get();
  std::uint64_t id = 0, parent = 0;
  if (tracer.on()) {
    id = tracer.open();
    parent = current_span;
    current_span = id;
  }
  struct Finish {
    Tracer& tracer;
    const char* name;
    double* seconds;
    std::uint64_t id, parent;
    Clock::time_point t0 = Clock::now();
    ~Finish() {
      const Clock::time_point t1 = Clock::now();
      if (seconds != nullptr)
        *seconds += std::chrono::duration<double>(t1 - t0).count();
      if (id != 0) {
        current_span = parent;
        tracer.close(
            {name, tracer.ns(t0), tracer.ns(t1), id, parent, thread_tag()});
      }
    }
  } finish{tracer, name, seconds, id, parent};
  return f();
}

}  // namespace perfbench
