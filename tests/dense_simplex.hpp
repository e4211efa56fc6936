// Dense two-phase primal simplex: the test-only LP oracle.
//
// Exact LP solver on a full Gauss-Jordan tableau. Simple and easy to audit,
// which makes it the reference the production revised simplex and the CCA
// solvers are cross-checked against. It is compiled only into the test
// binaries; memory is O(m * n), so it suits the small LPs tests build.
#pragma once

#include "lp/model.hpp"
#include "lp/solution.hpp"

namespace cca::lp {

class DenseSimplex {
 public:
  explicit DenseSimplex(SolverOptions options = {}) : options_(options) {}

  /// Solves `model` (minimization). The returned Solution::x is in the
  /// model's variable space. When `stats` is non-null it is filled with
  /// per-phase iteration counts and wall times (backend "dense").
  Solution solve(const Model& model, SolveStats* stats = nullptr) const;

 private:
  SolverOptions options_;
};

}  // namespace cca::lp
