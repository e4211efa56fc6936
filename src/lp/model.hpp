// Linear-program model description.
//
// This is the solver-independent representation of an LP:
//
//   minimize    c' x
//   subject to  row_i:  a_i' x  (<= | >= | =)  b_i      for each row
//               l_j <= x_j <= u_j                        for each variable
//
// The CCA formulation of the paper (Fig. 4) is built on top of this model
// by core::LpFormulation; the revised simplex (revised_simplex.hpp)
// consumes it.
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace cca::lp {

/// Row sense.
enum class Relation { kLessEqual, kGreaterEqual, kEqual };

/// One nonzero of a constraint row.
struct Term {
  int col = 0;
  double coef = 0.0;
};

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// LP model builder. Column-oriented variable registry + row-oriented
/// sparse constraints. Objective sense is minimization (the only sense the
/// paper needs); maximize by negating the objective at the call site.
class Model {
 public:
  /// Adds a variable with bounds [lower, upper] and objective coefficient
  /// `objective`. Returns its column index. `lower` may be -inf and
  /// `upper` +inf.
  int add_variable(double lower, double upper, double objective,
                   std::string name = "");

  /// Adds a constraint; duplicate column indices within `terms` are summed.
  /// Returns the row index.
  int add_constraint(Relation rel, double rhs, std::vector<Term> terms,
                     std::string name = "");

  int num_variables() const { return static_cast<int>(columns_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  double objective_coef(int col) const { return columns_[col].objective; }
  double lower_bound(int col) const { return columns_[col].lower; }
  double upper_bound(int col) const { return columns_[col].upper; }
  const std::string& variable_name(int col) const {
    return columns_[col].name;
  }

  Relation relation(int row) const { return rows_[row].rel; }
  double rhs(int row) const { return rows_[row].rhs; }
  const std::vector<Term>& row_terms(int row) const {
    return rows_[row].terms;
  }
  const std::string& constraint_name(int row) const {
    return rows_[row].name;
  }

  /// Total number of nonzero constraint coefficients.
  std::size_t num_nonzeros() const;

  /// Evaluates the objective at a point (size must match variable count).
  double objective_value(const std::vector<double>& x) const;

  /// Returns the largest violation of any constraint or bound at `x`
  /// (0 means feasible). Used by tests and by solver self-checks.
  double max_violation(const std::vector<double>& x) const;

 private:
  struct Column {
    double lower, upper, objective;
    std::string name;
  };
  struct Row {
    Relation rel;
    double rhs;
    std::vector<Term> terms;
    std::string name;
  };

  std::vector<Column> columns_;
  std::vector<Row> rows_;
};

}  // namespace cca::lp
