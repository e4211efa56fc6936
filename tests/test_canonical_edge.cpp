// CanonicalForm edge cases: degenerate model shapes — fixed variables
// (lb == ub), free variables, empty rows, empty columns, all-zero
// objectives — must canonicalize and solve correctly in the revised
// simplex, checked against the test-only DenseSimplex oracle. These tests
// also lock the index-map accessors (column_for_variable /
// minus_column_for_variable / upper_bound_row_for_variable).
#include <gtest/gtest.h>

#include <cmath>

#include "lp/canonical.hpp"
#include "dense_simplex.hpp"
#include "lp/model.hpp"
#include "lp/revised_simplex.hpp"

namespace cca::lp {
namespace {

TEST(CanonicalEdge, FixedVariableGetsZeroWidthUpperRow) {
  // lb == ub pins the variable: canonicalization shifts it to zero and
  // adds an upper-bound row with rhs 0, so every solver keeps it at the
  // pinned value.
  Model m;
  const int x = m.add_variable(3.0, 3.0, 5.0);
  const int y = m.add_variable(0.0, kInfinity, 1.0);
  m.add_constraint(Relation::kGreaterEqual, 4.0, {{x, 1.0}, {y, 1.0}});

  const CanonicalForm canon(m);
  EXPECT_EQ(canon.num_user_rows(), 1);
  EXPECT_EQ(canon.num_rows(), 2);  // the constraint + x's pin row
  ASSERT_GE(canon.column_for_variable(x), 0);
  EXPECT_EQ(canon.minus_column_for_variable(x), -1);
  const int pin_row = canon.upper_bound_row_for_variable(x);
  ASSERT_EQ(pin_row, 1);
  EXPECT_EQ(canon.rhs()[pin_row], 0.0);  // zero-width bound interval
  EXPECT_EQ(canon.upper_bound_row_for_variable(y), -1);

  for (const bool revised : {false, true}) {
    const Solution s =
        revised ? RevisedSimplex().solve(m) : DenseSimplex().solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "revised=" << revised;
    EXPECT_NEAR(s.x[x], 3.0, 1e-9) << "revised=" << revised;
    EXPECT_NEAR(s.x[y], 1.0, 1e-9) << "revised=" << revised;
    EXPECT_NEAR(s.objective, 16.0, 1e-8) << "revised=" << revised;
  }
}

TEST(CanonicalEdge, FreeVariableSplitsIntoTwoColumns) {
  Model m;
  const int x = m.add_variable(-kInfinity, kInfinity, 1.0);
  m.add_constraint(Relation::kGreaterEqual, -5.0, {{x, 1.0}});

  const CanonicalForm canon(m);
  ASSERT_GE(canon.column_for_variable(x), 0);
  ASSERT_GE(canon.minus_column_for_variable(x), 0);
  EXPECT_NE(canon.column_for_variable(x), canon.minus_column_for_variable(x));
  EXPECT_EQ(canon.upper_bound_row_for_variable(x), -1);

  // Minimizing +x drives the free variable to the constraint's floor,
  // through the split's minus column (x = 0 - 5).
  for (const bool revised : {false, true}) {
    const Solution s =
        revised ? RevisedSimplex().solve(m) : DenseSimplex().solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "revised=" << revised;
    EXPECT_NEAR(s.x[x], -5.0, 1e-9) << "revised=" << revised;
  }
}

TEST(CanonicalEdge, UpperBoundedOnlyVariableUsesMinusColumn) {
  // l = -inf, u finite: x_user = u - x_minus, no plus column, no upper
  // row (the bound became the shift).
  Model m;
  const int x = m.add_variable(-kInfinity, 7.0, -1.0);
  m.add_constraint(Relation::kLessEqual, 100.0, {{x, 1.0}});

  const CanonicalForm canon(m);
  EXPECT_EQ(canon.column_for_variable(x), -1);
  ASSERT_GE(canon.minus_column_for_variable(x), 0);
  EXPECT_EQ(canon.upper_bound_row_for_variable(x), -1);

  const Solution s = RevisedSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 7.0, 1e-9);  // maximizing x hits its upper bound
}

TEST(CanonicalEdge, EmptyRowsCanonicalizeAndSolve) {
  // A constraint with no terms is vacuous when its rhs allows 0. Both
  // solvers must shrug it off (the slack or artificial column satisfies
  // it).
  for (const auto rel :
       {Relation::kLessEqual, Relation::kGreaterEqual, Relation::kEqual}) {
    Model m;
    const int x = m.add_variable(0.0, 10.0, 1.0);
    const double rhs = rel == Relation::kGreaterEqual ? -2.0 : 0.0;
    m.add_constraint(rel, rhs, {});
    m.add_constraint(Relation::kGreaterEqual, 4.0, {{x, 1.0}});

    const CanonicalForm canon(m);
    EXPECT_EQ(canon.num_user_rows(), 2);
    for (const bool revised : {false, true}) {
      const Solution s =
          revised ? RevisedSimplex().solve(m) : DenseSimplex().solve(m);
      ASSERT_EQ(s.status, SolveStatus::kOptimal)
          << "rel=" << static_cast<int>(rel) << " revised=" << revised;
      EXPECT_NEAR(s.x[x], 4.0, 1e-9);
    }
  }
}

TEST(CanonicalEdge, InfeasibleEmptyRowIsDetected) {
  // 0 >= 3 is unsatisfiable no matter the variables.
  Model m;
  m.add_variable(0.0, 1.0, 1.0);
  m.add_constraint(Relation::kGreaterEqual, 3.0, {});
  EXPECT_EQ(DenseSimplex().solve(m).status, SolveStatus::kInfeasible);
  EXPECT_EQ(RevisedSimplex().solve(m).status, SolveStatus::kInfeasible);
}

TEST(CanonicalEdge, EmptyColumnRidesAlong) {
  // A variable in no constraint: its optimum is its cheapest bound. With
  // no finite upper bound there is no upper row either, so the canonical
  // column is genuinely empty. (A two-sided idle variable's column is
  // NOT empty — it appears in its own upper-bound row.)
  Model m;
  const int used = m.add_variable(0.0, kInfinity, 1.0);
  const int idle_min = m.add_variable(2.0, kInfinity, 1.0);  // wants its lb
  const int idle_max = m.add_variable(-3.0, 4.0, -1.0);      // wants its ub
  m.add_constraint(Relation::kGreaterEqual, 1.0, {{used, 1.0}});

  const CanonicalForm canon(m);
  EXPECT_TRUE(canon.column(canon.column_for_variable(idle_min)).rows.empty());
  EXPECT_FALSE(canon.column(canon.column_for_variable(idle_max)).rows.empty());

  for (const bool revised : {false, true}) {
    const Solution s =
        revised ? RevisedSimplex().solve(m) : DenseSimplex().solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "revised=" << revised;
    EXPECT_NEAR(s.x[used], 1.0, 1e-9);
    EXPECT_NEAR(s.x[idle_min], 2.0, 1e-9) << "revised=" << revised;
    EXPECT_NEAR(s.x[idle_max], 4.0, 1e-9) << "revised=" << revised;
  }
}

TEST(CanonicalEdge, AllZeroObjectiveReturnsAFeasiblePoint) {
  // Zero objective: any feasible point is optimal, objective must be the
  // offset (0 here), and the returned point must satisfy every row.
  Model m;
  const int x = m.add_variable(0.0, 5.0, 0.0);
  const int y = m.add_variable(1.0, 5.0, 0.0);
  m.add_constraint(Relation::kEqual, 6.0, {{x, 1.0}, {y, 1.0}});
  m.add_constraint(Relation::kLessEqual, 4.0, {{x, 1.0}});

  for (const bool revised : {false, true}) {
    const Solution s =
        revised ? RevisedSimplex().solve(m) : DenseSimplex().solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "revised=" << revised;
    EXPECT_EQ(s.objective, 0.0);
    EXPECT_LT(m.max_violation(s.x), 1e-9);
  }
}

TEST(CanonicalEdge, ObjectiveOffsetTracksShifts) {
  // Lower-bound shifting folds c' * l into the offset: user objective =
  // canonical objective + offset. A fixed variable contributes all of its
  // c * value through the offset.
  Model m;
  m.add_variable(3.0, 3.0, 5.0);             // fixed: offset += 15
  m.add_variable(2.0, 10.0, 1.0);            // shifted: offset += 2
  m.add_variable(-kInfinity, kInfinity, 4.0);  // free: no shift
  const CanonicalForm canon(m);
  EXPECT_DOUBLE_EQ(canon.objective_offset(), 17.0);

  // Round-trip: the all-zeros canonical point maps back to the shifts.
  const std::vector<double> zeros(
      static_cast<std::size_t>(canon.num_cols()), 0.0);
  const std::vector<double> user = canon.to_user_solution(zeros);
  EXPECT_DOUBLE_EQ(user[0], 3.0);
  EXPECT_DOUBLE_EQ(user[1], 2.0);
  EXPECT_DOUBLE_EQ(user[2], 0.0);
}

}  // namespace
}  // namespace cca::lp
