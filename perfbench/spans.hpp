// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public API; the library itself is not instrumented. Each
// thread appends to its own buffer (no locking on the hot path) and keeps
// a stack of open spans, so a span's parent is the span open on the same
// thread when it started. A span opened with a unit id (a grid cell, a
// replan window, a served query) is a unit root: its duration counts as
// busy time, and its direct children measure how much of it the layers
// cover. When tracing is off a Span is one relaxed load and does nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace cca::perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

struct SpanTotals {
  double total_ms = 0.0;  // sum of span durations
  double self_ms = 0.0;   // durations minus time covered by child spans
  std::int64_t count = 0;
};

struct TraceSummary {
  std::map<std::string, SpanTotals> by_name;
  double busy_ms = 0.0;           // sum of unit-root durations
  std::int64_t units = 0;
  /// Smallest share of a unit root's duration covered by its children.
  double min_unit_coverage = 1.0;
  /// Unit roots whose children cover at least 95% of their duration.
  std::int64_t units_covered_95 = 0;
  /// Sum of child-covered time over busy time.
  double mean_unit_coverage = 1.0;
};

class Tracer {
 public:
  static void set_enabled(bool on);
  static bool enabled();
  /// Drops every recorded span. Call only while no thread is recording.
  static void clear();
  /// Aggregates every recorded span. Call only while no thread is
  /// recording.
  static TraceSummary summarize();
  /// Writes one CSV row per span (thread, unit, name, start, end, parent).
  static void write_csv(std::ostream& out);
};

/// RAII span. `unit` >= 0 marks a unit root.
class Span {
 public:
  explicit Span(const char* name, std::int64_t unit = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_ = -1;  // slot in this thread's buffer, -1 when off
};

}  // namespace cca::perfbench
