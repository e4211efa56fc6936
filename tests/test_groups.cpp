// build_groups: capacity-driven component splitting (peel + sweep cut +
// boundary refinement) used by the LPRR pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "core/component_solver.hpp"
#include "groups_oracle.hpp"

namespace cca::core {
namespace {

double group_size(const CcaInstance& inst, const std::vector<ObjectId>& g) {
  double s = 0.0;
  for (ObjectId i : g) s += inst.object_size(i);
  return s;
}

/// Two 3-cliques joined by one weak edge; per-node capacity fits one
/// clique. The cheap cut is the bridge.
CcaInstance two_cliques() {
  std::vector<PairWeight> pairs;
  for (int base : {0, 3})
    for (int a = 0; a < 3; ++a)
      for (int b = a + 1; b < 3; ++b)
        pairs.push_back({base + a, base + b, 0.5, 10.0});
  pairs.push_back({2, 3, 0.01, 1.0});  // weak bridge
  return CcaInstance(std::vector<double>(6, 1.0), {3.0, 3.0}, pairs);
}

TEST(BuildGroups, NoSplittingWhenFillDisabled) {
  const CcaInstance inst = two_cliques();
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 0.0});
  EXPECT_EQ(groups.members.size(), 1u);  // one connected component
  EXPECT_DOUBLE_EQ(groups.cut_cost, 0.0);
}

TEST(BuildGroups, SplitsAtTheWeakBridge) {
  const CcaInstance inst = two_cliques();
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 1.0});
  ASSERT_EQ(groups.members.size(), 2u);
  for (const auto& g : groups.members)
    EXPECT_LE(group_size(inst, g), 3.0 + 1e-9);
  // Only the bridge pays: cut cost = 0.01 * 1.0.
  EXPECT_NEAR(groups.cut_cost, 0.01, 1e-12);
  // Each clique stays whole.
  for (const auto& g : groups.members) {
    std::set<ObjectId> s(g.begin(), g.end());
    EXPECT_TRUE(s == std::set<ObjectId>({0, 1, 2}) ||
                s == std::set<ObjectId>({3, 4, 5}));
  }
}

TEST(BuildGroups, GroupsPartitionAllObjects) {
  const CcaInstance inst = two_cliques();
  for (double fill : {0.0, 0.5, 1.0}) {
    const PlacementGroups groups =
        build_groups(inst, ComponentSolverOptions{7, fill});
    std::vector<int> seen(6, 0);
    for (const auto& g : groups.members)
      for (ObjectId i : g) ++seen[i];
    for (int i = 0; i < 6; ++i) EXPECT_EQ(seen[i], 1) << "fill " << fill;
    ASSERT_EQ(groups.sizes.size(), groups.members.size());
    ASSERT_EQ(groups.component_of_group.size(), groups.members.size());
    for (std::size_t g = 0; g < groups.members.size(); ++g)
      EXPECT_DOUBLE_EQ(groups.sizes[g], group_size(inst, groups.members[g]));
  }
}

TEST(BuildGroups, SiblingGroupsShareComponentId) {
  const CcaInstance inst = two_cliques();
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 1.0});
  ASSERT_EQ(groups.members.size(), 2u);
  EXPECT_EQ(groups.component_of_group[0], groups.component_of_group[1]);
}

TEST(BuildGroups, OversizedSingleObjectEmittedWhole) {
  // One object bigger than any node: cannot be split; emitted as-is.
  const CcaInstance inst({10.0, 1.0}, {4.0, 4.0}, {{0, 1, 0.5, 1.0}});
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 1.0});
  bool found_oversized = false;
  for (const auto& g : groups.members)
    if (std::find(g.begin(), g.end(), 0) != g.end()) {
      found_oversized = true;
      EXPECT_EQ(g.size(), 1u);
    }
  EXPECT_TRUE(found_oversized);
}

TEST(BuildGroups, ChainSplitsIntoCapacitySizedRuns) {
  // A path graph of 12 unit objects with uniform edges; capacity 4 per
  // node. Peeling must produce pieces of size <= 4, and the refinement
  // must not leave singletons straddling boundaries (each cut severs
  // exactly one path edge; cheaper is impossible).
  std::vector<PairWeight> pairs;
  for (int i = 0; i + 1 < 12; ++i) pairs.push_back({i, i + 1, 0.5, 2.0});
  const CcaInstance inst(std::vector<double>(12, 1.0),
                         std::vector<double>(3, 4.0), pairs);
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{3, 1.0});
  double max_size = 0.0;
  for (const auto& g : groups.members)
    max_size = std::max(max_size, group_size(inst, g));
  EXPECT_LE(max_size, 4.0 + 1e-9);
  // 12 units over <=4-unit pieces: at least 3 pieces, at least 2 cuts; the
  // minimum possible cut cost for 3 pieces is 2 edges = 2.0.
  EXPECT_GE(groups.members.size(), 3u);
  EXPECT_GE(groups.cut_cost, 2.0 - 1e-9);
  EXPECT_LE(groups.cut_cost, 4.0 + 1e-9);  // no wild over-cutting
}

TEST(BuildGroups, RefinementReunitesStragglers) {
  // A 4-clique plus a pendant strongly tied to it, and an independent
  // pair. Capacity fits clique+pendant. Wherever the sweep initially puts
  // the pendant, refinement must end with it in the clique's group.
  std::vector<PairWeight> pairs;
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b) pairs.push_back({a, b, 0.5, 4.0});
  pairs.push_back({3, 4, 0.9, 8.0});  // pendant 4 strongly tied to clique
  pairs.push_back({5, 6, 0.5, 1.0});  // independent pair
  const CcaInstance inst(std::vector<double>(7, 1.0), {5.0, 5.0}, pairs);
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{1, 1.0});
  int clique_group = -1, pendant_group = -1;
  for (std::size_t g = 0; g < groups.members.size(); ++g) {
    for (ObjectId i : groups.members[g]) {
      if (i == 0) clique_group = static_cast<int>(g);
      if (i == 4) pendant_group = static_cast<int>(g);
    }
  }
  EXPECT_EQ(clique_group, pendant_group);
}

TEST(BuildGroups, CutCostMatchesGroupAssignment) {
  const CcaInstance inst = two_cliques();
  const PlacementGroups groups =
      build_groups(inst, ComponentSolverOptions{5, 1.0});
  std::vector<int> group_of(6, -1);
  for (std::size_t g = 0; g < groups.members.size(); ++g)
    for (ObjectId i : groups.members[g]) group_of[i] = static_cast<int>(g);
  double expected = 0.0;
  for (const PairWeight& p : inst.pairs())
    if (group_of[p.i] != group_of[p.j]) expected += p.cost();
  EXPECT_DOUBLE_EQ(groups.cut_cost, expected);
}

/// A seeded instance built to stress the peel's tie rules: a few
/// disconnected blocks of clusters, object sizes and pair costs drawn from
/// small sets (so equal gains and equal sizes are common), some zero-cost
/// pairs, and on odd seeds one object larger than any node.
CcaInstance sweep_instance(std::uint64_t seed) {
  common::Rng rng(seed);
  const int n = 20 + static_cast<int>(rng.next_below(140));
  const int nodes = 2 + static_cast<int>(rng.next_below(5));
  const bool unit_sizes = rng.next_below(2) == 0;
  std::vector<double> sizes(static_cast<std::size_t>(n));
  for (double& s : sizes)
    s = unit_sizes ? 1.0 : static_cast<double>(1 + rng.next_below(3));

  const int blocks = 1 + static_cast<int>(rng.next_below(4));
  const int cluster = 3 + static_cast<int>(rng.next_below(6));
  const auto block_of = [&](int i) { return i % blocks; };
  const auto cluster_of = [&](int i) { return i / blocks / cluster; };
  constexpr double kCosts[] = {0.0, 0.5, 1.0, 1.0, 2.0};
  std::vector<PairWeight> pairs;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      if (block_of(i) != block_of(j)) continue;
      const bool same_cluster = cluster_of(i) == cluster_of(j);
      if (rng.next_below(same_cluster ? 4 : 40) != 0) continue;
      const double w = kCosts[rng.next_below(5)];
      pairs.push_back({i, j, same_cluster ? 0.5 : 0.25, w});
    }

  double total = 0.0;
  for (double s : sizes) total += s;
  const double capacity = (rng.next_below(2) == 0 ? 1.2 : 2.0) * total / nodes;
  if (seed % 2 == 1) {
    double& big = sizes[rng.next_below(static_cast<std::uint64_t>(n))];
    total += 1.5 * capacity - big;
    big = 1.5 * capacity;
  }
  // Keep the instance fractionally feasible (total size <= capacity).
  const double fitted = std::max(capacity, 1.25 * total / nodes);
  return CcaInstance(
      std::move(sizes),
      std::vector<double>(static_cast<std::size_t>(nodes), fitted),
      std::move(pairs));
}

TEST(BuildGroups, MatchesTheMapBasedOracleBitForBit) {
  int split_instances = 0, zero_cost_pairs = 0, oversized = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const CcaInstance inst = sweep_instance(seed);
    for (const PairWeight& p : inst.pairs()) zero_cost_pairs += p.cost() == 0.0;
    for (double fill : {0.4, 1.0}) {
      const ComponentSolverOptions options{seed, fill};
      const PlacementGroups got = build_groups(inst, options);
      const PlacementGroups want = oracle_build_groups(inst, options);
      SCOPED_TRACE(testing::Message() << "seed " << seed << " fill " << fill);
      ASSERT_EQ(got.members, want.members);
      ASSERT_EQ(got.sizes, want.sizes);
      ASSERT_EQ(got.component_of_group, want.component_of_group);
      ASSERT_EQ(got.cut_cost, want.cut_cost);
      const ComponentStructure cs = find_components(inst);
      split_instances += got.members.size() > cs.members.size();
      for (const auto& g : got.members)
        oversized += g.size() == 1 &&
                     inst.object_size(g[0]) > fill * inst.node_capacity(0);
    }
  }
  // The sweep must actually exercise splitting, zero-cost pairs and the
  // unsplittable-object path.
  EXPECT_GT(split_instances, 40);
  EXPECT_GT(zero_cost_pairs, 0);
  EXPECT_GT(oversized, 0);
}

}  // namespace
}  // namespace cca::core
