// Revised primal simplex on a sparse LU-factorized basis.
//
// Nothing about the basis is ever dense: the constraint matrix stays
// sparse (CCA programs have ~3 nonzeros per row) and the basis is held
// as a Markowitz-ordered sparse LU factorization
// (lp/sparse_lu.hpp) plus a product-form eta file, refactorized every
// SolverOptions::refactor_interval pivots. FTRAN/BTRAN cost O(fill + eta)
// instead of the dense inverse's O(m^2), and a basis change costs O(m)
// instead of the O(m^2) inverse update, so programs with thousands of rows
// — the paper's Fig. 4 LP at medium-to-large scope — solve in
// milliseconds.
//
// Entering columns are priced by a candidate-list partial scheme: a
// small list of violating columns is refilled by a rotating sector scan
// and minor iterations re-price only the list. Optimality is declared only
// after a full wrap finds no violator, and a Bland full-scan fallback
// breaks stalls (anti-cycling).
//
// A solve can be warm-started from the optimal basis of a previous related
// solve (same canonical shape, moved costs/rhs): a valid, primal-feasible
// hint skips phase 1 entirely. Any other hint is dropped and the solve
// cold-starts, so hints affect iteration counts, never answers.
#pragma once

#include "lp/basis.hpp"
#include "lp/model.hpp"
#include "lp/solution.hpp"

namespace cca::lp {

class RevisedSimplex {
 public:
  explicit RevisedSimplex(SolverOptions options = {}) : options_(options) {}

  /// Solves `model` (minimization); Solution::x is in model variable
  /// space. When `stats` is non-null it is filled with per-phase iteration
  /// counts, factorization/eta accounting, pricing work, warm-start
  /// outcome, and wall times (backend "revised"). When `hint` names a
  /// usable basis, phase 1 is skipped.
  /// When `out_basis` is non-null and the final basis is exportable (all
  /// basic columns structural, status kOptimal) it receives the basis for
  /// later warm starts; otherwise it is cleared.
  Solution solve(const Model& model, SolveStats* stats = nullptr,
                 const Basis* hint = nullptr,
                 Basis* out_basis = nullptr) const;

 private:
  SolverOptions options_;
};

}  // namespace cca::lp
