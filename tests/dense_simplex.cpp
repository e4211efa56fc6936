#include "dense_simplex.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "lp/canonical.hpp"

namespace cca::lp {

namespace {

/// Full-tableau simplex state over the canonical equality form plus
/// artificial columns.
class Tableau {
 public:
  Tableau(const CanonicalForm& canon, const SolverOptions& options)
      : options_(options),
        m_(canon.num_rows()),
        n_struct_(canon.num_cols()) {
    // Artificial columns are appended for every row without an identity
    // slack. Total column count is known before allocating the tableau.
    num_artificial_ = 0;
    for (int i = 0; i < m_; ++i)
      if (canon.identity_slack_for_row(i) < 0) ++num_artificial_;
    n_ = n_struct_ + num_artificial_;

    tab_.assign(static_cast<std::size_t>(m_) * n_, 0.0);
    rhs_.assign(static_cast<std::size_t>(m_), 0.0);
    basis_.assign(static_cast<std::size_t>(m_), -1);
    allowed_.assign(static_cast<std::size_t>(n_), true);
    is_artificial_.assign(static_cast<std::size_t>(n_), false);

    for (int j = 0; j < n_struct_; ++j) {
      const SparseColumn& col = canon.column(j);
      for (std::size_t t = 0; t < col.rows.size(); ++t)
        at(col.rows[t], j) = col.values[t];
    }
    for (int i = 0; i < m_; ++i) rhs_[i] = canon.rhs()[i];

    int art = n_struct_;
    for (int i = 0; i < m_; ++i) {
      const int slack = canon.identity_slack_for_row(i);
      if (slack >= 0) {
        basis_[i] = slack;
      } else {
        at(i, art) = 1.0;
        is_artificial_[art] = true;
        basis_[i] = art++;
      }
    }
  }

  /// Runs one simplex phase with the given canonical-space cost vector
  /// (artificials priced at `artificial_cost`). Returns the phase status.
  SolveStatus run_phase(const std::vector<double>& struct_cost,
                        double artificial_cost, long* iterations) {
    // Reduced-cost row d and objective, recomputed from the basis.
    std::vector<double> cost(static_cast<std::size_t>(n_), artificial_cost);
    for (int j = 0; j < n_struct_; ++j) cost[j] = struct_cost[j];

    std::vector<double> d(cost);
    for (int i = 0; i < m_; ++i) {
      const double cb = cost[basis_[i]];
      if (cb == 0.0) continue;
      for (int j = 0; j < n_; ++j) d[j] -= cb * at(i, j);
    }
    double obj = 0.0;
    for (int i = 0; i < m_; ++i) obj += cost[basis_[i]] * rhs_[i];

    // See revised_simplex.cpp: non-negative costs bound the objective at
    // 0, so ~0 proves optimality and skips the degenerate endgame.
    bool costs_nonnegative = true;
    for (double c : cost)
      if (c < 0.0) {
        costs_nonnegative = false;
        break;
      }

    long since_improvement = 0;
    double best_obj = obj;
    const double tol = options_.tolerance;

    while (true) {
      if (costs_nonnegative && obj <= tol) return SolveStatus::kOptimal;
      if (*iterations >= options_.max_iterations)
        return SolveStatus::kIterationLimit;

      const bool bland = since_improvement > options_.stall_limit;
      int enter = -1;
      double best_d = -tol;
      for (int j = 0; j < n_; ++j) {
        if (!allowed_[j]) continue;
        if (d[j] < best_d) {
          enter = j;
          if (bland) break;  // first eligible index (Bland's rule)
          best_d = d[j];
        }
      }
      if (enter < 0) return SolveStatus::kOptimal;

      // Ratio test; ties broken toward the smallest basis index, which
      // combined with Bland pricing guarantees termination.
      int leave_row = -1;
      double best_ratio = 0.0;
      for (int i = 0; i < m_; ++i) {
        const double a = at(i, enter);
        if (a <= tol) continue;
        const double ratio = rhs_[i] / a;
        if (leave_row < 0 || ratio < best_ratio - tol ||
            (ratio < best_ratio + tol && basis_[i] < basis_[leave_row])) {
          leave_row = i;
          best_ratio = ratio;
        }
      }
      if (leave_row < 0) return SolveStatus::kUnbounded;

      pivot(leave_row, enter, d, obj);
      ++*iterations;

      if (obj < best_obj - tol) {
        best_obj = obj;
        since_improvement = 0;
      } else {
        ++since_improvement;
      }
    }
  }

  /// Minimum of the phase-1 objective (sum of artificial values).
  double artificial_sum() const {
    double s = 0.0;
    for (int i = 0; i < m_; ++i)
      if (is_artificial_[basis_[i]]) s += rhs_[i];
    return s;
  }

  /// After phase 1, pivots basic artificials out where possible and drops
  /// all artificial columns from future pricing.
  void retire_artificials() {
    for (int j = n_struct_; j < n_; ++j) allowed_[j] = false;
    std::vector<double> dummy_d(static_cast<std::size_t>(n_), 0.0);
    double dummy_obj = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (!is_artificial_[basis_[i]]) continue;
      // The artificial is basic at (numerically) zero; swap in any
      // structural column with a nonzero pivot. If none exists the row is
      // redundant and the artificial harmlessly stays basic at zero.
      for (int j = 0; j < n_struct_; ++j) {
        if (std::abs(at(i, j)) > options_.tolerance) {
          pivot(i, j, dummy_d, dummy_obj);
          break;
        }
      }
    }
  }

  /// Extracts the canonical-space primal point.
  std::vector<double> primal() const {
    std::vector<double> x(static_cast<std::size_t>(n_struct_), 0.0);
    for (int i = 0; i < m_; ++i)
      if (basis_[i] < n_struct_) x[basis_[i]] = rhs_[i];
    return x;
  }

 private:
  double& at(int i, int j) { return tab_[static_cast<std::size_t>(i) * n_ + j]; }
  double at(int i, int j) const {
    return tab_[static_cast<std::size_t>(i) * n_ + j];
  }

  void pivot(int r, int enter, std::vector<double>& d, double& obj) {
    const double piv = at(r, enter);
    const double inv = 1.0 / piv;
    for (int j = 0; j < n_; ++j) at(r, j) *= inv;
    rhs_[r] *= inv;
    at(r, enter) = 1.0;  // kill round-off on the pivot itself

    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double factor = at(i, enter);
      if (factor == 0.0) continue;
      for (int j = 0; j < n_; ++j) at(i, j) -= factor * at(r, j);
      at(i, enter) = 0.0;
      rhs_[i] -= factor * rhs_[r];
      if (rhs_[i] < 0.0 && rhs_[i] > -options_.tolerance) rhs_[i] = 0.0;
    }
    const double dfactor = d[enter];
    if (dfactor != 0.0) {
      for (int j = 0; j < n_; ++j) d[j] -= dfactor * at(r, j);
      d[enter] = 0.0;
      obj += dfactor * rhs_[r];  // d-row sign: obj decreases by |d|*rhs
    }
    basis_[r] = enter;
  }

  SolverOptions options_;
  int m_, n_struct_, num_artificial_ = 0, n_ = 0;
  std::vector<double> tab_;   // m x n row-major
  std::vector<double> rhs_;
  std::vector<int> basis_;
  std::vector<bool> allowed_;
  std::vector<bool> is_artificial_;
};

}  // namespace

Solution DenseSimplex::solve(const Model& model, SolveStats* stats) const {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  SolveStats local_stats;
  if (!stats) stats = &local_stats;
  stats->backend = "dense";
  // total_ms covers canonicalization + both phases, on every return path.
  struct TotalTimer {
    SolveStats* stats;
    Clock::time_point start = Clock::now();
    ~TotalTimer() {
      stats->total_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
    }
  } total_timer{stats};

  Solution sol;
  const CanonicalForm canon(model);
  Tableau tab(canon, options_);

  // Phase 1: minimize the sum of artificials.
  const std::vector<double> zero_cost(
      static_cast<std::size_t>(canon.num_cols()), 0.0);
  const auto phase1_start = Clock::now();
  SolveStatus status = tab.run_phase(zero_cost, 1.0, &sol.iterations);
  stats->phase1_iterations = sol.iterations;
  stats->phase1_ms = ms_since(phase1_start);
  if (status != SolveStatus::kOptimal) {
    // Phase 1 is always bounded below by 0, so non-optimal here can only be
    // an iteration limit.
    sol.status = SolveStatus::kIterationLimit;
    return sol;
  }
  if (tab.artificial_sum() > 1e-7) {
    sol.status = SolveStatus::kInfeasible;
    return sol;
  }
  tab.retire_artificials();

  // Phase 2: the real objective.
  const auto phase2_start = Clock::now();
  status = tab.run_phase(canon.cost(), 0.0, &sol.iterations);
  stats->phase2_iterations = sol.iterations - stats->phase1_iterations;
  stats->phase2_ms = ms_since(phase2_start);
  sol.status = status;
  if (status != SolveStatus::kOptimal) return sol;

  sol.x = canon.to_user_solution(tab.primal());
  sol.objective = model.objective_value(sol.x);
  return sol;
}

}  // namespace cca::lp
