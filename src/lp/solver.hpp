// Solver facade: the one LP path every caller takes.
//
// Every solve runs the revised simplex (lp/revised_simplex.hpp) with
// candidate-list pricing, refactorizing every SolverOptions::
// refactor_interval pivots, and primal warm starts from a basis hint or a
// WarmStartCache. The facade adds the per-solve lp.* metrics on top.
#pragma once

#include "lp/basis.hpp"
#include "lp/model.hpp"
#include "lp/solution.hpp"

namespace cca::lp {

class Solver {
 public:
  explicit Solver(SolverOptions options = {}) : options_(options) {}

  /// Solves `model` and returns the solution together with per-solve
  /// statistics, plus the final basis when it is reusable. When `hint` is
  /// non-null and non-empty, the revised simplex tries to start phase 2
  /// directly from it; an unusable hint silently cold-starts, so hints
  /// never change answers. A cold solve passes no hint. Also records lp.*
  /// metrics (solve counts, per-phase iterations, factorizations, fill,
  /// pricing work, warm-start hits, wall time) in the process-wide
  /// registry when metrics are enabled.
  SolveResult solve(const Model& model, const Basis* hint = nullptr) const;

  /// Convenience wrapper around a WarmStartCache: hints from the cache,
  /// stores the resulting basis back on success. Pass nullptr to solve
  /// cold.
  SolveResult solve(const Model& model, WarmStartCache* cache) const;

 private:
  SolverOptions options_;
};

}  // namespace cca::lp
