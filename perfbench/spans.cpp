#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace cca::perfbench {

namespace {

struct Record {
  const char* name = nullptr;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t unit = -1;
  std::int32_t parent = -1;
  bool root = false;
};

struct Buffer {
  int thread = 0;
  // A deque: appending never moves recorded spans, so no span pays for
  // a reallocation.
  std::deque<Record> records;
  std::vector<std::int32_t> open;  // stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
// Guarded by g_mutex for registration; each buffer is written only by its
// own thread, and read only while no thread records.
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<int>(g_buffers.size()) - 1;
  }
  return *buffer;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& buffer : g_buffers) {
    buffer->records.clear();
    buffer->open.clear();
  }
}

TraceSummary Tracer::summarize() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  TraceSummary summary;
  double covered_ms = 0.0;
  for (const auto& buffer : g_buffers) {
    const std::deque<Record>& records = buffer->records;
    std::vector<std::int64_t> child_ns(records.size(), 0);
    for (const Record& r : records)
      if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] +=
          r.end - r.start;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      const double duration_ms = static_cast<double>(r.end - r.start) / 1e6;
      const double child_ms = static_cast<double>(child_ns[i]) / 1e6;
      SpanTotals& totals = summary.by_name[r.name];
      totals.total_ms += duration_ms;
      totals.self_ms += duration_ms - child_ms;
      ++totals.count;
      if (!r.root) continue;
      ++summary.units;
      summary.busy_ms += duration_ms;
      covered_ms += child_ms;
      const double coverage = duration_ms > 0.0 ? child_ms / duration_ms : 1.0;
      summary.min_unit_coverage = std::min(summary.min_unit_coverage, coverage);
      if (coverage >= 0.95) ++summary.units_covered_95;
    }
  }
  summary.mean_unit_coverage =
      summary.busy_ms > 0.0 ? covered_ms / summary.busy_ms : 1.0;
  return summary;
}

void Tracer::write_csv(std::ostream& out) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  out << "thread,unit,name,start_ns,end_ns,parent\n";
  for (const auto& buffer : g_buffers)
    for (const Record& r : buffer->records)
      out << buffer->thread << ',' << r.unit << ',' << r.name << ','
          << r.start << ',' << r.end << ',' << r.parent << '\n';
}

Span::Span(const char* name, std::int64_t unit) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Buffer& buffer = local_buffer();
  index_ = static_cast<std::int32_t>(buffer.records.size());
  Record record;
  record.name = name;
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  record.root = unit >= 0;
  record.unit = unit >= 0 || record.parent < 0
                    ? unit
                    : buffer.records[static_cast<std::size_t>(record.parent)]
                          .unit;
  buffer.open.push_back(index_);
  record.start = now_ns();
  buffer.records.push_back(record);
}

Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  Buffer& buffer = local_buffer();
  buffer.records[static_cast<std::size_t>(index_)].end = end;
  buffer.open.pop_back();
}

}  // namespace cca::perfbench
