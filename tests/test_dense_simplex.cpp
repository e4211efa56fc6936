// DenseSimplex: hand-checked LPs covering every status, bound handling,
// and degenerate cases.
#include <gtest/gtest.h>

#include "dense_simplex.hpp"
#include "lp/model.hpp"

namespace cca::lp {
namespace {

constexpr double kTol = 1e-7;

TEST(DenseSimplex, SolvesTrivialSingleVariable) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  m.add_constraint(Relation::kGreaterEqual, 3.0, {{x, 1.0}});
  const Solution s = DenseSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 3.0, kTol);
  EXPECT_NEAR(s.objective, 3.0, kTol);
}

TEST(DenseSimplex, SolvesClassicTwoVariableMax) {
  // max 3a + 5b st a <= 4, 2b <= 12, 3a + 2b <= 18  (optimum 36 at (2,6)).
  Model m;
  const int a = m.add_variable(0.0, kInfinity, -3.0);
  const int b = m.add_variable(0.0, kInfinity, -5.0);
  m.add_constraint(Relation::kLessEqual, 4.0, {{a, 1.0}});
  m.add_constraint(Relation::kLessEqual, 12.0, {{b, 2.0}});
  m.add_constraint(Relation::kLessEqual, 18.0, {{a, 3.0}, {b, 2.0}});
  const Solution s = DenseSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, kTol);
  EXPECT_NEAR(s.x[a], 2.0, kTol);
  EXPECT_NEAR(s.x[b], 6.0, kTol);
}

TEST(DenseSimplex, HandlesEqualityConstraints) {
  // min x + 2y st x + y = 5, x - y = 1  ->  x=3, y=2, obj=7.
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int y = m.add_variable(0.0, kInfinity, 2.0);
  m.add_constraint(Relation::kEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  m.add_constraint(Relation::kEqual, 1.0, {{x, 1.0}, {y, -1.0}});
  const Solution s = DenseSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 3.0, kTol);
  EXPECT_NEAR(s.x[y], 2.0, kTol);
  EXPECT_NEAR(s.objective, 7.0, kTol);
}

TEST(DenseSimplex, DetectsInfeasibility) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  m.add_constraint(Relation::kGreaterEqual, 5.0, {{x, 1.0}});
  m.add_constraint(Relation::kLessEqual, 3.0, {{x, 1.0}});
  EXPECT_EQ(DenseSimplex().solve(m).status, SolveStatus::kInfeasible);
}

TEST(DenseSimplex, DetectsUnboundedness) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);  // min -x, x free up
  m.add_constraint(Relation::kGreaterEqual, 1.0, {{x, 1.0}});
  EXPECT_EQ(DenseSimplex().solve(m).status, SolveStatus::kUnbounded);
}

TEST(DenseSimplex, RespectsUpperBounds) {
  // min -x st x <= 2.5 (upper bound, no explicit row).
  Model m;
  const int x = m.add_variable(0.0, 2.5, -1.0);
  const Solution s = DenseSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 2.5, kTol);
}

TEST(DenseSimplex, HandlesNegativeLowerBounds) {
  // min x with x in [-3, 7] -> x = -3.
  Model m;
  const int x = m.add_variable(-3.0, 7.0, 1.0);
  const Solution s = DenseSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], -3.0, kTol);
}

TEST(DenseSimplex, HandlesFreeVariables) {
  // min x + y st x + y >= -4, x - y = 10, x,y free. Optimum x+y = -4.
  Model m;
  const int x = m.add_variable(-kInfinity, kInfinity, 1.0);
  const int y = m.add_variable(-kInfinity, kInfinity, 1.0);
  m.add_constraint(Relation::kGreaterEqual, -4.0, {{x, 1.0}, {y, 1.0}});
  m.add_constraint(Relation::kEqual, 10.0, {{x, 1.0}, {y, -1.0}});
  const Solution s = DenseSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, kTol);
  EXPECT_NEAR(s.x[x] - s.x[y], 10.0, kTol);
}

TEST(DenseSimplex, HandlesNegativeRhs) {
  // min y st -x - y <= -6, x <= 4  ->  y >= 2, obj = 2.
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 0.0);
  const int y = m.add_variable(0.0, kInfinity, 1.0);
  m.add_constraint(Relation::kLessEqual, -6.0, {{x, -1.0}, {y, -1.0}});
  m.add_constraint(Relation::kLessEqual, 4.0, {{x, 1.0}});
  const Solution s = DenseSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, kTol);
}

TEST(DenseSimplex, SurvivesDegeneratePivoting) {
  // Beale's classic cycling example (cycles under naive Dantzig without
  // anti-cycling safeguards).
  Model m;
  const int x1 = m.add_variable(0.0, kInfinity, -0.75);
  const int x2 = m.add_variable(0.0, kInfinity, 150.0);
  const int x3 = m.add_variable(0.0, kInfinity, -0.02);
  const int x4 = m.add_variable(0.0, kInfinity, 6.0);
  m.add_constraint(Relation::kLessEqual, 0.0,
                   {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}});
  m.add_constraint(Relation::kLessEqual, 0.0,
                   {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}});
  m.add_constraint(Relation::kLessEqual, 1.0, {{x3, 1.0}});
  const Solution s = DenseSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, kTol);
}

TEST(DenseSimplex, SolutionSatisfiesAllConstraints) {
  Model m;
  const int a = m.add_variable(0.0, 10.0, 2.0);
  const int b = m.add_variable(1.0, 5.0, -1.0);
  const int c = m.add_variable(0.0, kInfinity, 0.5);
  m.add_constraint(Relation::kLessEqual, 8.0, {{a, 1.0}, {b, 2.0}, {c, 1.0}});
  m.add_constraint(Relation::kGreaterEqual, 2.0, {{a, 1.0}, {c, 1.0}});
  m.add_constraint(Relation::kEqual, 4.0, {{b, 1.0}, {c, 1.0}});
  const Solution s = DenseSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LT(m.max_violation(s.x), 1e-6);
}

TEST(DenseSimplex, FixedVariableStaysFixed) {
  Model m;
  const int x = m.add_variable(2.0, 2.0, -5.0);
  const int y = m.add_variable(0.0, kInfinity, 1.0);
  m.add_constraint(Relation::kGreaterEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  const Solution s = DenseSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 2.0, kTol);
  EXPECT_NEAR(s.x[y], 1.0, kTol);
}

TEST(DenseSimplex, ReportsIterationLimit) {
  SolverOptions opts;
  opts.max_iterations = 1;
  Model m;
  const int a = m.add_variable(0.0, kInfinity, -3.0);
  const int b = m.add_variable(0.0, kInfinity, -5.0);
  m.add_constraint(Relation::kLessEqual, 4.0, {{a, 1.0}});
  m.add_constraint(Relation::kLessEqual, 12.0, {{b, 2.0}});
  m.add_constraint(Relation::kLessEqual, 18.0, {{a, 3.0}, {b, 2.0}});
  EXPECT_EQ(DenseSimplex(opts).solve(m).status, SolveStatus::kIterationLimit);
}

}  // namespace
}  // namespace cca::lp
