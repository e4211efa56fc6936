// The Fig. 4 LP: construction sizes (Sec. 3.1), optimality structure, and
// behaviour on pinned (n-way-cut style) instances where the relaxation is
// not degenerate.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "dense_simplex.hpp"

#include "core/component_solver.hpp"
#include "core/lp_formulation.hpp"
#include "core/placements.hpp"
#include "lp/solver.hpp"

namespace cca::core {
namespace {

TEST(LpFormulation, VariableAndConstraintCountsMatchSection31) {
  // |T| = 4 objects, |N| = 3 nodes, |E| = 2 pairs.
  const CcaInstance inst({1, 1, 1, 1}, {4, 4, 4},
                         {{0, 1, 0.5, 2.0}, {2, 3, 0.25, 4.0}});
  const LpFormulation f(inst);
  const LpSizeStats stats = f.stats();
  // Variables: |T||N| x's + |E||N| y's (z eliminated by substitution).
  EXPECT_EQ(stats.num_variables, 4 * 3 + 2 * 3);
  // Constraints: 2|E||N| y-rows + |T| assignment + |N| capacity.
  EXPECT_EQ(stats.num_constraints, 2 * 2 * 3 + 4 + 3);
}

TEST(LpFormulation, ZeroCostPairsAreExcluded) {
  const CcaInstance inst({1, 1}, {4, 4}, {{0, 1, 0.0, 5.0}});
  const LpFormulation f(inst);
  EXPECT_EQ(f.stats().num_variables, 2 * 2);  // x's only, no y block
}

TEST(LpFormulation, UnpinnedLpOptimumIsZero) {
  // The degeneracy this library documents and exploits: without pins, the
  // relaxation always reaches 0 by giving correlated objects identical
  // fractional rows (see component_solver.hpp).
  const CcaInstance inst({4, 4, 2}, {6, 6},
                         {{0, 1, 1.0, 8.0}, {1, 2, 0.5, 2.0}});
  const FractionalPlacement x = solve_cca_lp(inst);
  EXPECT_LT(x.max_row_violation(), 1e-7);
  EXPECT_NEAR(x.lp_objective(inst), 0.0, 1e-7);
  // ...even though every INTEGER placement must pay: the two size-4
  // objects cannot share a capacity-6 node.
  const auto exact = brute_force_optimal(inst);
  ASSERT_TRUE(exact.has_value());
  EXPECT_GT(exact->cost, 0.0);
}

TEST(LpFormulation, RespectsCapacityInExpectation) {
  const CcaInstance inst({4, 4, 2}, {6, 6},
                         {{0, 1, 1.0, 8.0}, {1, 2, 0.5, 2.0}});
  const FractionalPlacement x = solve_cca_lp(inst);
  const auto loads = x.expected_loads(inst);
  for (int k = 0; k < inst.num_nodes(); ++k)
    EXPECT_LE(loads[k], inst.node_capacity(k) + 1e-6);
}

TEST(LpFormulation, PinnedInstanceMatchesBruteForce) {
  // Pinning breaks the degeneracy: this is the minimum multiway-cut
  // regime (Theorem 1). With 2 terminals the LP relaxation of multiway
  // cut is exact, so LP == brute force.
  CcaInstance inst({1, 1, 1, 1}, {10, 10},
                   {{0, 2, 1.0, 3.0},
                    {1, 2, 1.0, 1.0},
                    {0, 3, 1.0, 1.0},
                    {1, 3, 1.0, 2.0},
                    {2, 3, 1.0, 1.0}});
  inst.pin(0, 0);
  inst.pin(1, 1);
  const FractionalPlacement x = solve_cca_lp(inst);
  const auto exact = brute_force_optimal(inst);
  ASSERT_TRUE(exact.has_value());
  EXPECT_NEAR(x.lp_objective(inst), exact->cost, 1e-6);
  // Pins are honoured exactly in the fractional solution.
  EXPECT_NEAR(x.value(0, 0), 1.0, 1e-7);
  EXPECT_NEAR(x.value(1, 1), 1.0, 1e-7);
}

TEST(LpFormulation, PinnedChainSplitsAtCheapestEdge) {
  // Path 0 - 1 - 2 with terminals 0 (node 0) and 2 (node 1); edge costs
  // 5 and 1. Optimal cut severs the cost-1 edge: objective 1, object 1
  // follows terminal 0.
  CcaInstance inst({1, 1, 1}, {10, 10},
                   {{0, 1, 1.0, 5.0}, {1, 2, 1.0, 1.0}});
  inst.pin(0, 0);
  inst.pin(2, 1);
  const FractionalPlacement x = solve_cca_lp(inst);
  EXPECT_NEAR(x.lp_objective(inst), 1.0, 1e-6);
  EXPECT_NEAR(x.value(1, 0), 1.0, 1e-6);
}

TEST(LpFormulation, InfeasibleCapacityThrows) {
  const CcaInstance inst({5, 5}, {3, 3}, {{0, 1, 1.0, 1.0}});
  EXPECT_THROW(solve_cca_lp(inst), common::Error);
}

TEST(LpFormulation, DenseAndRevisedAgreeOnPinnedInstance) {
  CcaInstance inst({1, 2, 1, 2}, {4, 4},
                   {{0, 1, 0.8, 2.0}, {1, 2, 0.6, 3.0}, {2, 3, 0.9, 1.0}});
  inst.pin(0, 0);
  inst.pin(3, 1);
  const LpFormulation f(inst);
  lp::SolveStats dense_stats;
  const lp::Solution dense = lp::DenseSimplex().solve(f.model(), &dense_stats);
  const lp::SolveResult revised = lp::Solver().solve(f.model());
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(dense.objective, revised.solution.objective, 1e-6);
  // Each backend reports its name and iteration counts that add up.
  EXPECT_STREQ(dense_stats.backend, "dense");
  EXPECT_STREQ(revised.stats.backend, "revised");
  EXPECT_EQ(dense_stats.iterations(), dense.iterations);
  EXPECT_EQ(revised.stats.iterations(), revised.solution.iterations);
}

}  // namespace
}  // namespace cca::core
