// Canonicalization shared by the simplex solvers.
//
// Transforms a general Model into equality standard form
//
//   minimize    c' x
//   subject to  A x = b,  b >= 0,  x >= 0
//
// via: free-variable splitting (x = x+ - x-), lower-bound shifting
// (x = l + x'), finite upper bounds as extra rows (x' <= u - l), slack /
// surplus columns for inequality rows, and row negation to make b
// non-negative. Keeps enough bookkeeping to map a canonical solution back
// to the caller's variables and objective.
#pragma once

#include <vector>

#include "lp/model.hpp"

namespace cca::lp {

/// Sparse column of the canonical constraint matrix.
struct SparseColumn {
  std::vector<int> rows;
  std::vector<double> values;
};

class CanonicalForm {
 public:
  explicit CanonicalForm(const Model& model);

  int num_rows() const { return static_cast<int>(b_.size()); }
  int num_cols() const { return static_cast<int>(cols_.size()); }

  const std::vector<double>& rhs() const { return b_; }
  const std::vector<double>& cost() const { return cost_; }
  const SparseColumn& column(int j) const { return cols_[j]; }

  /// Index of a slack column that forms an identity entry (+1) in row `i`,
  /// or -1 if the row needs an artificial variable to start the simplex.
  int identity_slack_for_row(int i) const { return row_identity_slack_[i]; }

  /// Canonical column holding (the positive part of) user variable j.
  /// Lets callers that know their model's structure name canonical
  /// columns — e.g. to assemble a crash basis for warm-starting.
  int column_for_variable(int j) const { return var_map_[j].plus_col; }

  /// Canonical column of the negative part of user variable j (-1 unless
  /// the variable was split or is upper-bounded-only). Together with
  /// column_for_variable this names every structural column a user
  /// variable contributes.
  int minus_column_for_variable(int j) const { return var_map_[j].minus_col; }

  /// Canonical row enforcing user variable j's finite upper bound, or -1
  /// when no such row exists (l or u infinite). Upper-bound rows follow
  /// the user constraint rows, in variable order.
  int upper_bound_row_for_variable(int j) const { return upper_row_of_var_[j]; }

  /// User constraint rows occupy canonical rows [0, num_user_rows());
  /// upper-bound rows fill the rest.
  int num_user_rows() const { return num_user_rows_; }

  /// Constant added to the canonical objective by lower-bound shifting;
  /// user objective = canonical objective + objective_offset().
  double objective_offset() const { return objective_offset_; }

  /// Maps a canonical primal point back to the original variable space.
  std::vector<double> to_user_solution(
      const std::vector<double>& canonical_x) const;

 private:
  // Per original variable: how it appears in canonical space.
  struct VarMap {
    int plus_col = -1;   // canonical column for the (shifted) variable
    int minus_col = -1;  // second column when the variable was split (free)
    double shift = 0.0;  // x_user = shift + x_plus - x_minus
  };

  std::vector<SparseColumn> cols_;
  std::vector<double> cost_;
  std::vector<double> b_;
  std::vector<int> row_identity_slack_;
  std::vector<VarMap> var_map_;
  std::vector<int> upper_row_of_var_;
  double objective_offset_ = 0.0;
  int num_user_vars_ = 0;
  int num_user_rows_ = 0;
};

}  // namespace cca::lp
