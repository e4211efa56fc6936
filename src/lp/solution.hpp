// Solver result types shared by all LP solvers.
#pragma once

#include <vector>

#include "lp/basis.hpp"

namespace cca::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

inline const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Primal values in the caller's variable space (only meaningful when
  /// status == kOptimal).
  std::vector<double> x;
  double objective = 0.0;
  /// Total simplex pivots across both phases.
  long iterations = 0;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

/// Per-solve statistics (a production solver's iteration/timing report;
/// cf. HiGHS per-solve logs). All fields except the wall times are
/// deterministic for a given model.
struct SolveStats {
  /// Which implementation ran: "revised" (the one production path) or
  /// "dense" (the test-only tableau oracle).
  const char* backend = "";
  /// Pivots per phase (phase 1 drives artificials out; phase 2 optimizes
  /// the real objective). Their sum equals Solution::iterations.
  long phase1_iterations = 0;
  long phase2_iterations = 0;
  /// Eta-file-triggered refactorizations (revised simplex only).
  long reinversions = 0;
  /// Product-form updates accumulated since the last reinversion when the
  /// solve finished — the length of the pending eta file.
  long eta_length = 0;
  /// Sparse-LU basis factorizations, including the initial one (revised
  /// simplex only). reinversions == factorizations - 1 on a cold start.
  long factorizations = 0;
  /// L+U nonzeros of the most recent factorization — the fill-in actually
  /// paid after Markowitz ordering (revised simplex only).
  long factor_fill_nnz = 0;
  /// Reduced costs evaluated while pricing, across both phases.
  long pricing_candidates = 0;
  /// Warm start: whether a basis hint was offered, and whether it was
  /// primal feasible and so let the solve skip phase 1.
  bool warm_start_attempted = false;
  bool warm_start_hit = false;
  /// Wall-clock per phase and for the whole solve, milliseconds.
  double phase1_ms = 0.0;
  double phase2_ms = 0.0;
  double total_ms = 0.0;

  long iterations() const { return phase1_iterations + phase2_iterations; }
};

/// What lp::Solver::solve returns: the solution plus the stats that
/// explain how it was reached. The stats also feed the process-wide
/// common::MetricsRegistry (lp.* metrics) when that is enabled.
struct SolveResult {
  Solution solution;
  SolveStats stats;
  /// Final optimal basis (status kOptimal and every basic column
  /// structural — empty otherwise). Feed it back as the `hint` of a later
  /// related solve to warm-start phase 2.
  Basis basis;

  bool optimal() const { return solution.optimal(); }
  SolveStatus status() const { return solution.status; }
};

/// Options common to the simplex solvers.
struct SolverOptions {
  long max_iterations = 200000;
  /// Feasibility / reduced-cost tolerance.
  double tolerance = 1e-9;
  /// Switch to Bland pricing after this many non-improving pivots
  /// (anti-cycling).
  long stall_limit = 500;
  /// RevisedSimplex: smallest acceptable pivot magnitude in the ratio test.
  double pivot_tolerance = 1e-7;
  /// RevisedSimplex: refactorize the basis after this many eta updates to
  /// shed accumulated floating-point error and cap eta-file length.
  long refactor_interval = 100;
};

}  // namespace cca::lp
