// RevisedSimplex: the same hand-checked programs as the dense solver, plus
// randomized cross-checks between the two implementations (two independent
// simplex codebases agreeing on objective values is the strongest solver
// test we have without an external LP library).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "dense_simplex.hpp"
#include "lp/model.hpp"
#include "lp/revised_simplex.hpp"

namespace cca::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(RevisedSimplex, SolvesClassicTwoVariableMax) {
  Model m;
  const int a = m.add_variable(0.0, kInfinity, -3.0);
  const int b = m.add_variable(0.0, kInfinity, -5.0);
  m.add_constraint(Relation::kLessEqual, 4.0, {{a, 1.0}});
  m.add_constraint(Relation::kLessEqual, 12.0, {{b, 2.0}});
  m.add_constraint(Relation::kLessEqual, 18.0, {{a, 3.0}, {b, 2.0}});
  const Solution s = RevisedSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, kTol);
}

TEST(RevisedSimplex, HandlesEqualityAndGreaterEqual) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int y = m.add_variable(0.0, kInfinity, 2.0);
  // min x + 2y st x + y = 5, x - y >= 1: substitute y = 5 - x to get
  // 10 - x with 3 <= x <= 5, so the optimum is x=5, y=0, objective 5.
  m.add_constraint(Relation::kEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  m.add_constraint(Relation::kGreaterEqual, 1.0, {{x, 1.0}, {y, -1.0}});
  const Solution s = RevisedSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, kTol);
  EXPECT_NEAR(s.x[x], 5.0, kTol);
  EXPECT_NEAR(s.x[y], 0.0, kTol);
}

TEST(RevisedSimplex, DetectsInfeasibility) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  m.add_constraint(Relation::kGreaterEqual, 5.0, {{x, 1.0}});
  m.add_constraint(Relation::kLessEqual, 3.0, {{x, 1.0}});
  EXPECT_EQ(RevisedSimplex().solve(m).status, SolveStatus::kInfeasible);
}

TEST(RevisedSimplex, DetectsUnboundedness) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);
  m.add_constraint(Relation::kGreaterEqual, 1.0, {{x, 1.0}});
  EXPECT_EQ(RevisedSimplex().solve(m).status, SolveStatus::kUnbounded);
}

TEST(RevisedSimplex, SurvivesBealeCycling) {
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
  const Solution s = RevisedSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, kTol);
}

// ---- Randomized cross-check: dense vs revised on generated LPs. ----

struct RandomLpCase {
  int num_vars;
  int num_rows;
  std::uint64_t seed;
};

class SimplexAgreement : public ::testing::TestWithParam<RandomLpCase> {};

Model random_feasible_lp(const RandomLpCase& param) {
  // Construction guarantees feasibility: pick a random positive point x*,
  // then set every row's rhs so x* satisfies it. Objectives are random;
  // boundedness comes from box upper bounds on all variables.
  common::Rng rng(param.seed);
  Model m;
  std::vector<double> xstar(static_cast<std::size_t>(param.num_vars));
  for (int j = 0; j < param.num_vars; ++j) {
    xstar[j] = rng.next_double() * 5.0;
    const double cost = rng.next_double() * 4.0 - 2.0;
    m.add_variable(0.0, 10.0, cost);
  }
  for (int i = 0; i < param.num_rows; ++i) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (int j = 0; j < param.num_vars; ++j) {
      if (rng.next_double() < 0.4) {
        const double coef = rng.next_double() * 6.0 - 3.0;
        terms.push_back({j, coef});
        lhs += coef * xstar[j];
      }
    }
    if (terms.empty()) continue;
    const double u = rng.next_double();
    if (u < 0.4) {
      m.add_constraint(Relation::kLessEqual, lhs + rng.next_double() * 2.0,
                       std::move(terms));
    } else if (u < 0.8) {
      m.add_constraint(Relation::kGreaterEqual, lhs - rng.next_double() * 2.0,
                       std::move(terms));
    } else {
      m.add_constraint(Relation::kEqual, lhs, std::move(terms));
    }
  }
  return m;
}

TEST_P(SimplexAgreement, DenseAndRevisedAgreeOnObjective) {
  const Model m = random_feasible_lp(GetParam());
  const Solution dense = DenseSimplex().solve(m);
  const Solution revised = RevisedSimplex().solve(m);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  ASSERT_EQ(revised.status, SolveStatus::kOptimal);
  EXPECT_NEAR(dense.objective, revised.objective,
              1e-5 * (1.0 + std::abs(dense.objective)));
  EXPECT_LT(m.max_violation(dense.x), 1e-6);
  EXPECT_LT(m.max_violation(revised.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    RandomLps, SimplexAgreement,
    ::testing::Values(RandomLpCase{4, 3, 11}, RandomLpCase{6, 4, 12},
                      RandomLpCase{8, 6, 13}, RandomLpCase{10, 8, 14},
                      RandomLpCase{12, 10, 15}, RandomLpCase{15, 12, 16},
                      RandomLpCase{20, 15, 17}, RandomLpCase{25, 20, 18},
                      RandomLpCase{30, 25, 19}, RandomLpCase{40, 30, 20},
                      RandomLpCase{12, 20, 21}, RandomLpCase{8, 16, 22}));

TEST(RevisedSimplex, RefactorizationPreservesCorrectness) {
  // Force reinversion every 3 pivots; the result must match the
  // no-refactor run bit-for-bit in objective terms.
  const Model m = random_feasible_lp(RandomLpCase{20, 16, 99});
  SolverOptions frequent;
  frequent.refactor_interval = 3;
  const Solution a = RevisedSimplex(frequent).solve(m);
  const Solution b = RevisedSimplex().solve(m);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6 * (1.0 + std::abs(b.objective)));
}

}  // namespace
}  // namespace cca::lp
