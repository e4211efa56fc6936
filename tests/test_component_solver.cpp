// ComponentLpSolver: component detection, exactness of the contraction
// (optimal LP objective 0, capacity in expectation), agreement with the
// full Fig. 4 simplex solve, and the transportation LP's vertex property
// checked against the test-only DenseSimplex oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "dense_simplex.hpp"

#include "common/rng.hpp"
#include "core/component_solver.hpp"
#include "core/lp_formulation.hpp"
#include "lp/basis.hpp"

namespace cca::core {
namespace {

TEST(Components, FindsConnectedGroups) {
  // 0-1-2 connected, 3-4 connected, 5 alone.
  const CcaInstance inst(
      {1, 1, 1, 1, 1, 1}, {10, 10},
      {{0, 1, 0.5, 1.0}, {1, 2, 0.5, 1.0}, {3, 4, 0.5, 1.0}});
  const ComponentStructure cs = find_components(inst);
  EXPECT_EQ(cs.num_components(), 3);
  EXPECT_EQ(cs.component_of[0], cs.component_of[1]);
  EXPECT_EQ(cs.component_of[1], cs.component_of[2]);
  EXPECT_EQ(cs.component_of[3], cs.component_of[4]);
  EXPECT_NE(cs.component_of[0], cs.component_of[3]);
  EXPECT_NE(cs.component_of[0], cs.component_of[5]);
  EXPECT_NE(cs.component_of[3], cs.component_of[5]);
}

TEST(Components, ZeroCostPairsDoNotConnect) {
  const CcaInstance inst({1, 1}, {10}, {{0, 1, 0.0, 5.0}});
  EXPECT_EQ(find_components(inst).num_components(), 2);
  const CcaInstance inst2({1, 1}, {10}, {{0, 1, 0.5, 0.0}});
  EXPECT_EQ(find_components(inst2).num_components(), 2);
}

TEST(Components, SizesAggregateMemberSizes) {
  const CcaInstance inst({3, 4, 5}, {20}, {{0, 1, 0.5, 1.0}});
  const ComponentStructure cs = find_components(inst);
  double total = 0.0;
  for (double s : cs.sizes) total += s;
  EXPECT_DOUBLE_EQ(total, 12.0);
}

TEST(ComponentSolver, ProducesZeroObjectiveRowStochasticSolution) {
  const CcaInstance inst({4, 4, 2, 1, 1}, {7, 7},
                         {{0, 1, 1.0, 8.0}, {1, 2, 0.5, 2.0},
                          {3, 4, 0.9, 3.0}});
  const FractionalPlacement x = ComponentLpSolver(7).solve(inst);
  EXPECT_LT(x.max_row_violation(), 1e-7);
  EXPECT_NEAR(x.lp_objective(inst), 0.0, 1e-9);
  const auto loads = x.expected_loads(inst);
  for (int k = 0; k < inst.num_nodes(); ++k)
    EXPECT_LE(loads[k], inst.node_capacity(k) + 1e-6);
}

TEST(ComponentSolver, RowsIdenticalWithinComponent) {
  const CcaInstance inst({2, 2, 2, 3}, {5, 5},
                         {{0, 1, 0.5, 1.0}, {1, 2, 0.5, 1.0}});
  const FractionalPlacement x = ComponentLpSolver(3).solve(inst);
  for (int k = 0; k < 2; ++k) {
    EXPECT_NEAR(x.value(0, k), x.value(1, k), 1e-9);
    EXPECT_NEAR(x.value(1, k), x.value(2, k), 1e-9);
  }
}

TEST(ComponentSolver, MatchesFullLpOptimum) {
  // Both solvers must land on the same (zero) optimum of the Fig. 4 LP.
  const CcaInstance inst({4, 3, 2, 2, 1}, {6, 6, 6},
                         {{0, 1, 0.8, 5.0}, {2, 3, 0.4, 2.0}});
  const FractionalPlacement component = ComponentLpSolver(1).solve(inst);
  const FractionalPlacement full = solve_cca_lp(inst);
  EXPECT_NEAR(component.lp_objective(inst), full.lp_objective(inst), 1e-6);
  EXPECT_NEAR(component.lp_objective(inst), 0.0, 1e-9);
}

TEST(ComponentSolver, TightCapacityForcesFractionalSpread) {
  // One component of size 8 with per-node capacity 5: the fractional
  // solution must split it across nodes, 5 + 3 or similar.
  const CcaInstance inst({4, 4}, {5, 5}, {{0, 1, 1.0, 10.0}});
  const FractionalPlacement x = ComponentLpSolver(2).solve(inst);
  const auto loads = x.expected_loads(inst);
  EXPECT_LE(loads[0], 5.0 + 1e-6);
  EXPECT_LE(loads[1], 5.0 + 1e-6);
  EXPECT_NEAR(loads[0] + loads[1], 8.0, 1e-6);
  // Still objective 0 — the degeneracy the docs call out.
  EXPECT_NEAR(x.lp_objective(inst), 0.0, 1e-9);
}

TEST(ComponentSolver, InfeasibleWhenTotalCapacityTooSmall) {
  const CcaInstance inst({5, 5}, {4, 4}, {{0, 1, 1.0, 1.0}});
  EXPECT_THROW(ComponentLpSolver(1).solve(inst), common::Error);
}

TEST(ComponentSolver, RejectsPinnedInstances) {
  CcaInstance inst({1, 1}, {4, 4}, {{0, 1, 0.5, 1.0}});
  inst.pin(0, 1);
  EXPECT_THROW(ComponentLpSolver(1).solve(inst), common::Error);
}

/// Seeded pin-free instance for the vertex-property sweep: chains of 1-3
/// correlated objects, one per component. `family` 0 leaves capacity
/// loose (2x the even share), 1 makes every node capacity bind (uneven
/// capacities summing exactly to the total size), 2 adds an extra
/// resource row with demands unrelated to sizes. `scale` multiplies
/// every size, for warm-start siblings.
CcaInstance sweep_instance(std::uint64_t seed, int family,
                           double scale = 1.0) {
  common::Rng rng(seed);
  const int components = 5 + static_cast<int>(rng.next_below(36));
  const int nodes = 2 + static_cast<int>(rng.next_below(5));
  std::vector<double> sizes;
  std::vector<PairWeight> pairs;
  for (int c = 0; c < components; ++c) {
    const int members = 1 + static_cast<int>(rng.next_below(3));
    for (int m = 0; m < members; ++m) {
      const int id = static_cast<int>(sizes.size());
      sizes.push_back(scale * (1.0 + 3.0 * rng.next_double()));
      if (m > 0) pairs.push_back({id - 1, id, 0.5, 1.0 + rng.next_double()});
    }
  }
  double total = 0.0;
  for (double s : sizes) total += s;
  std::vector<double> capacities(static_cast<std::size_t>(nodes));
  if (family == 1) {
    std::vector<double> weights(static_cast<std::size_t>(nodes));
    double weight_sum = 0.0;
    for (double& w : weights) weight_sum += (w = 0.5 + rng.next_double());
    for (int k = 0; k < nodes; ++k)
      capacities[k] = total * weights[k] / weight_sum;
  } else {
    for (double& cap : capacities) cap = 2.0 * total / nodes;
  }
  CcaInstance inst(sizes, capacities, pairs);
  if (family == 2) {
    Resource res;
    res.name = "cpu";
    double demand_total = 0.0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      res.demands.push_back(rng.next_double());
      demand_total += res.demands.back();
    }
    res.capacities.assign(static_cast<std::size_t>(nodes),
                          1.2 * demand_total / nodes);
    inst.add_resource(std::move(res));
  }
  return inst;
}

TEST(ComponentSolver, MostComponentsRoundToIntegralAssignments) {
  // Vertex property over a seed sweep, with and without resource rows and
  // with every capacity binding: the transportation LP returns a vertex
  // (at most rows - 1 = C + N - 1 + R*N nonzeros, so at most N - 1 + R*N
  // groups are fractional), rows sum to 1, no capacity is exceeded, the
  // objective matches the DenseSimplex oracle, and warm starts from a
  // WarmStartCache return the same x as a solve without one.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const int family = static_cast<int>(seed % 3);
    const CcaInstance inst = sweep_instance(seed, family);
    ComponentSolverOptions options;
    options.seed = seed;
    const PlacementGroups groups = build_groups(inst, options);
    const int C = static_cast<int>(groups.members.size());
    const int N = inst.num_nodes();
    const int R = static_cast<int>(inst.resources().size());
    const FractionalPlacement x = ComponentLpSolver(options).solve(inst);

    ASSERT_LT(x.max_row_violation(), 1e-7) << "seed " << seed;
    const std::vector<double> loads = x.expected_loads(inst);
    for (int k = 0; k < N; ++k)
      EXPECT_LE(loads[k], inst.node_capacity(k) * (1.0 + 1e-9) + 1e-9)
          << "seed " << seed << " node " << k;
    for (const Resource& res : inst.resources())
      for (int k = 0; k < N; ++k) {
        double load = 0.0;
        for (int i = 0; i < inst.num_objects(); ++i)
          load += res.demands[i] * x.value(i, k);
        EXPECT_LE(load, res.capacities[k] * (1.0 + 1e-9) + 1e-9)
            << "seed " << seed << " resource node " << k;
      }

    const TransportationLp lp = build_transportation_lp(inst, groups, seed);
    std::vector<double> q(static_cast<std::size_t>(lp.model.num_variables()));
    int nonzeros = 0;
    for (int c = 0; c < C; ++c)
      for (int k = 0; k < N; ++k) {
        const double v = x.value(groups.members[c].front(), k);
        q[lp.q_col[static_cast<std::size_t>(c) * N + k]] = v;
        if (v > 1e-9) ++nonzeros;
      }
    EXPECT_LE(nonzeros, C + N - 1 + R * N) << "seed " << seed;
    const lp::Solution oracle = lp::DenseSimplex().solve(lp.model);
    ASSERT_TRUE(oracle.optimal()) << "seed " << seed;
    EXPECT_NEAR(lp.model.objective_value(q), oracle.objective,
                1e-7 * (1.0 + std::abs(oracle.objective)))
        << "seed " << seed;

    // Warm starts: from a sibling's basis (sizes nudged), then from this
    // instance's own optimal basis. Either way, the same x.
    lp::WarmStartCache cache;
    ComponentSolverOptions warm = options;
    warm.warm_cache = &cache;
    ComponentLpSolver(warm).solve(sweep_instance(seed, family, 0.97));
    for (int round = 0; round < 2; ++round) {
      const FractionalPlacement again = ComponentLpSolver(warm).solve(inst);
      for (int i = 0; i < inst.num_objects(); ++i)
        for (int k = 0; k < N; ++k)
          ASSERT_NEAR(again.value(i, k), x.value(i, k), 1e-9)
              << "seed " << seed << " round " << round;
    }
  }
}

TEST(ComponentSolver, DifferentSeedsPickDifferentVertices) {
  std::vector<double> sizes(20, 1.0);
  std::vector<PairWeight> pairs;
  for (int c = 0; c < 10; ++c) pairs.push_back({2 * c, 2 * c + 1, 0.5, 1.0});
  const CcaInstance inst(sizes, {10.0, 10.0, 10.0, 10.0}, pairs);
  const FractionalPlacement a = ComponentLpSolver(1).solve(inst);
  const FractionalPlacement b = ComponentLpSolver(2).solve(inst);
  bool differs = false;
  for (int i = 0; i < 20 && !differs; ++i)
    for (int k = 0; k < 4 && !differs; ++k)
      if (std::abs(a.value(i, k) - b.value(i, k)) > 1e-9) differs = true;
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace cca::core
