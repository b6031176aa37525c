// Benchmark-side tracing: spans recorded around calls into the library's
// public functions, kept in memory and written out when the run ends.
//
// A span has a name ("module.call"), a start, an end, the span that caused
// it, and the id of the op it belongs to. Recording is off in untraced runs
// (begin() returns 0 and records nothing), so end-to-end figures never
// carry tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t id{0};
  std::uint32_t parent{0};  // 0: no parent
  std::uint32_t op{0};      // root span of the op; a root is its own op
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; `op` 0 makes it the root of a new op. Returns its id, or
  /// 0 when recording is off.
  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint32_t op);
  void end(std::uint32_t id);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  bool enabled_{false};  // set before any thread records
};

/// RAII span. The one-argument form parents to the calling thread's
/// innermost open ScopedSpan; the explicit form is for work a library call
/// runs on another thread (a pipeline producer, a callback).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name);
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint32_t parent,
             std::uint32_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] std::uint32_t op() const { return op_; }

 private:
  SpanRecorder& rec_;
  std::uint32_t id_{0};
  std::uint32_t op_{0};
  std::uint32_t saved_current_{0};
  std::uint32_t saved_op_{0};
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap each other, e.g. when they
/// ran on different threads; the covered part is their union).
[[nodiscard]] std::unordered_map<std::uint32_t, std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Share of a root span's duration covered by its direct children.
[[nodiscard]] double child_coverage(const std::vector<Span>& spans,
                                    std::uint32_t root);

/// Per op (keyed by root id): span name -> summed self time in ns.
[[nodiscard]] std::map<std::uint32_t, std::map<std::string, std::int64_t>>
self_time_by_op(const std::vector<Span>& spans);

/// Write the spans as one JSON object per line.
bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
