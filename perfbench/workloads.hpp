// The benchmark's workloads: `grid`, `replan` and `serve` (see
// perfbench/WORKLOADS.md for sizes, thread counts and why each exists).
//
// Each workload builds its inputs from the seed, runs one untimed warm-up
// unit, and then runs timed passes of a fixed amount of work. A pass is
// made of units (a grid cell, a replan window, a served query) whose wall
// times are sampled. Checks of the library's outputs are counted as they
// run; finish() adds the checks and quality figures that need a whole
// pass.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cca::perfbench {

/// Pool threads for `grid` and `replan` (and `serve`'s set-up plan).
inline constexpr int kPoolThreads = 2;
/// `serve`: closed-loop client threads, plus one publisher thread.
inline constexpr int kClientThreads = 2;
inline constexpr int kPublisherThreads = 1;

/// Counts checks attempted and failed; prints the first few failures.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  /// Records `attempted` checks of one kind, `failed` of which failed.
  void count(std::int64_t attempted, std::int64_t failed,
             const std::string& what);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> unit_ms;  // one sample per unit, in ms
};

/// What finish() hands back beside the checks.
struct Outcome {
  /// Network bytes of the workload's LPRR-derived placement over those
  /// of the hash placement on the same queries and cluster size, both
  /// through the search data plane (1 - the paper's saving). A ratio on
  /// shared queries, so a few heavy queries in a trace sample cancel.
  double bytes_vs_hash = 0.0;
  /// The unit-time percentile reported as the tail: the highest of p99,
  /// p95 and p75 with at least ten samples beyond it in a run.
  double tail_quantile = 0.99;
  /// Workload-specific figures for the info line (quality bands, rates,
  /// sample counts, sizes).
  std::map<std::string, double> info;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds corpus, traces, index and engine (and `serve`'s plan).
  virtual void build() = 0;
  /// One untimed unit of work, so lazy set-up stays out of the passes.
  virtual void warm_up() = 0;
  /// One timed pass; `checks` collects the per-unit output checks.
  virtual PassResult run_pass(Checks& checks) = 0;
  /// Calls, as spans, the layers the optimizer constructor runs inside
  /// (mining and hyperedge building) once on the workload's training
  /// trace, so the traced run can time them apart.
  virtual void probe() = 0;
  /// Whole-pass checks and quality figures, after the last pass.
  virtual Outcome finish(Checks& checks) = 0;
  /// Per-pass layer counters the workload tracks itself (not from the
  /// metrics registry), reset by each call.
  virtual std::map<std::string, double> take_layer_counters() = 0;
};

/// `reference` is bench_headline_summary's output for the grid's seed
/// (the grid checks its savings band against it); unused elsewhere.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& reference);

const std::vector<std::string>& workload_names();

}  // namespace cca::perfbench
