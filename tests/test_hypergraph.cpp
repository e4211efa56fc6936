// Hypergraph partitioner: lambda-1 quality vs brute force, pin/capacity
// invariants, degenerate hyperedges, the pairwise fallback, and
// determinism across seeds and thread counts. Lives in the sanitize-
// labelled binary: the thread-count determinism claims are what TSan
// should scrutinise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/correlation.hpp"
#include "core/hypergraph.hpp"
#include "core/instance.hpp"
#include "core/partial_optimizer.hpp"
#include "trace/workload.hpp"

namespace cca::core {
namespace {

/// Exhaustive minimum of the lambda-1 objective over all feasible
/// placements (honours pins and capacities). Only for tiny instances.
double brute_force_lambda(const CcaInstance& inst) {
  const int n = inst.num_objects(), N = inst.num_nodes();
  Placement p(static_cast<std::size_t>(n), 0);
  double best = std::numeric_limits<double>::infinity();
  while (true) {
    if (inst.is_feasible(p)) best = std::min(best, inst.connectivity_cost(p));
    int i = 0;
    for (; i < n; ++i) {
      if (++p[i] < N) break;
      p[i] = 0;
    }
    if (i == n) break;
  }
  return best;
}

TEST(Hypergraph, PlacesWholeQueriesTogether) {
  // Two disjoint query triples; capacity fits one triple per node. A
  // pairwise view would see only edges, the hyperedge view sees the whole
  // operation — either way both triples must land unsplit (cost 0).
  CcaInstance inst(std::vector<double>(6, 1.0), {3.0, 3.0}, {});
  inst.set_hyperedges({{{0, 1, 2}, 5.0}, {{3, 4, 5}, 4.0}});
  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_DOUBLE_EQ(inst.connectivity_cost(p), 0.0);
  EXPECT_EQ(p[1], p[0]);
  EXPECT_EQ(p[2], p[0]);
  EXPECT_EQ(p[4], p[3]);
  EXPECT_EQ(p[5], p[3]);
  EXPECT_NE(p[0], p[3]);  // capacity forces the split between triples
}

TEST(Hypergraph, NearBruteForceOnTinyInstances) {
  // Within 1.5x of the exhaustive lambda-1 optimum (plus slack for the
  // heuristic) across several small random hypergraphs.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    common::Rng rng(seed * 97);
    std::vector<double> sizes(8);
    for (double& s : sizes) s = 1.0 + rng.next_double();
    double total = 0.0;
    for (double s : sizes) total += s;
    CcaInstance inst(sizes, std::vector<double>(3, 2.0 * total / 3), {});

    std::vector<Hyperedge> edges;
    for (int e = 0; e < 8; ++e) {
      Hyperedge edge;
      const int k = 2 + static_cast<int>(rng.next_below(3));  // 2..4 pins
      for (int t = 0; t < k; ++t)
        edge.pins.push_back(static_cast<int>(rng.next_below(8)));
      edge.weight = 0.2 + rng.next_double();
      edges.push_back(std::move(edge));
    }
    inst.set_hyperedges(std::move(edges));
    if (!inst.has_hyperedges()) continue;  // all edges degenerated

    const double exact = brute_force_lambda(inst);
    HypergraphOptions options;
    options.seed = seed;
    const Placement p = hypergraph_placement(inst, options);
    EXPECT_TRUE(inst.is_feasible(p)) << "seed " << seed;
    EXPECT_LE(inst.connectivity_cost(p),
              1.5 * exact + 0.15 * inst.total_connectivity_cost())
        << "seed " << seed;
  }
}

TEST(Hypergraph, HonoursPinsAndCapacity) {
  CcaInstance inst({1, 1, 1, 1}, {2.0, 2.0}, {});
  inst.set_hyperedges({{{0, 1, 2, 3}, 3.0}});
  inst.pin(0, 1);
  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_EQ(p[0], 1);
  // One 4-pin edge over 2 nodes of capacity 2: lambda is necessarily 2.
  EXPECT_DOUBLE_EQ(inst.connectivity_cost(p), 3.0);
}

TEST(Hypergraph, DegenerateHyperedgesAreCanonicalized) {
  CcaInstance inst(std::vector<double>(4, 1.0), {4.0, 4.0}, {});
  // k=1 edges and duplicate pins that collapse to k=1 are dropped;
  // duplicate pins inside a bigger edge dedup; identical pin sets merge.
  inst.set_hyperedges({{{2}, 9.0},
                       {{3, 3}, 9.0},
                       {{0, 1, 1}, 1.0},
                       {{1, 0}, 0.5},
                       {{0, 1}, 0.25, }});
  ASSERT_TRUE(inst.has_hyperedges());
  ASSERT_EQ(inst.hyperedges().size(), 1u);
  const Hyperedge& e = inst.hyperedges()[0];
  EXPECT_EQ(e.pins, (std::vector<ObjectId>{0, 1}));
  EXPECT_DOUBLE_EQ(e.weight, 1.75);
  EXPECT_DOUBLE_EQ(inst.total_connectivity_cost(), 1.75);

  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_EQ(p[0], p[1]);  // capacity allows keeping the only edge whole
}

TEST(Hypergraph, OnlyDegenerateEdgesFallsBackGracefully) {
  // Every edge degenerates away: the instance has no hyperedges and no
  // pairs, so the partitioner must still return a feasible placement.
  CcaInstance inst(std::vector<double>(6, 1.0), {3.0, 3.0}, {});
  inst.set_hyperedges({{{0}, 1.0}, {{1, 1}, 2.0}});
  EXPECT_FALSE(inst.has_hyperedges());
  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
}

TEST(Hypergraph, PairwiseFallbackActsAsGraphPartitioner) {
  // No hyperedges: the pair view is lifted to 2-pin nets, where
  // lambda - 1 is the cut indicator — the multilevel two-clique check.
  std::vector<PairWeight> pairs;
  for (int base : {0, 4})
    for (int a = 0; a < 4; ++a)
      for (int b = a + 1; b < 4; ++b)
        pairs.push_back({base + a, base + b, 0.5, 8.0});
  pairs.push_back({3, 4, 0.05, 1.0});
  const CcaInstance inst(std::vector<double>(8, 1.0), {4.0, 4.0}, pairs);
  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_DOUBLE_EQ(inst.communication_cost(p), 0.05);  // only the bridge
}

TEST(Hypergraph, DeterministicPerSeed) {
  common::Rng rng(5);
  std::vector<double> sizes(40, 1.0);
  CcaInstance inst(sizes, {30, 30, 30}, {});
  std::vector<Hyperedge> edges;
  for (int e = 0; e < 50; ++e) {
    Hyperedge edge;
    const int k = 2 + static_cast<int>(rng.next_below(4));
    for (int t = 0; t < k; ++t)
      edge.pins.push_back(static_cast<int>(rng.next_below(40)));
    edge.weight = rng.next_double();
    edges.push_back(std::move(edge));
  }
  inst.set_hyperedges(std::move(edges));
  HypergraphOptions options;
  options.seed = 21;
  EXPECT_EQ(hypergraph_placement(inst, options),
            hypergraph_placement(inst, options));
  HypergraphOptions other = options;
  other.seed = 22;
  EXPECT_TRUE(inst.is_feasible(hypergraph_placement(inst, other)));
}

TEST(Hypergraph, TraceLambdaCostHandComputed) {
  trace::QueryTrace trace(5);
  trace.add_query({0, 1});        // same node below: lambda 1 -> 0
  trace.add_query({0, 1, 2});     // two nodes: lambda 2 -> 1
  trace.add_query({2, 3, 4});     // all three keywords apart: lambda 3 -> 2
  trace.add_query({4});           // singleton: lambda 1 -> 0
  const std::vector<NodeId> placement{0, 0, 1, 2, 0};
  EXPECT_DOUBLE_EQ(trace_lambda_cost(trace, placement), (0 + 1 + 2 + 0) / 4.0);
  EXPECT_DOUBLE_EQ(trace_lambda_cost(trace::QueryTrace(5), placement), 0.0);
}

// ---------- end-to-end through the optimizer pipeline ----------

PartialOptimizer make_optimizer(double mean_query_length,
                                std::uint64_t seed) {
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 200;
  wcfg.num_topics = 16;
  wcfg.topic_size = 8;
  wcfg.mean_query_length = mean_query_length;
  wcfg.seed = 11;
  const trace::QueryTrace trace =
      trace::WorkloadModel(wcfg).generate(3000, 7);
  std::vector<std::uint64_t> sizes(wcfg.vocabulary_size);
  for (std::size_t k = 0; k < sizes.size(); ++k) sizes[k] = 64 + k;
  PartialOptimizerConfig cfg;
  cfg.num_nodes = 4;
  cfg.scope = 80;
  cfg.seed = seed;
  return PartialOptimizer(trace, sizes, cfg);
}

TEST(Hypergraph, AllQueriesIdenticalStillPlaces) {
  // Every query is the same 3-keyword set: one hyperedge carries the whole
  // trace's weight. The pipeline must keep that set on one node.
  trace::QueryTrace trace(6);
  for (int q = 0; q < 100; ++q) trace.add_query({1, 3, 5});
  std::vector<std::uint64_t> sizes(6, 100);
  PartialOptimizerConfig cfg;
  cfg.num_nodes = 3;
  cfg.scope = 6;
  const PartialOptimizer opt(trace, sizes, cfg);
  ASSERT_TRUE(opt.hypergraph_instance().has_hyperedges());
  const PlacementPlan plan = opt.run("hypergraph");
  EXPECT_EQ(plan.keyword_to_node[3], plan.keyword_to_node[1]);
  EXPECT_EQ(plan.keyword_to_node[5], plan.keyword_to_node[1]);
  EXPECT_DOUBLE_EQ(trace_lambda_cost(trace, plan.keyword_to_node), 0.0);
}

TEST(Hypergraph, BitIdenticalAcrossThreadCounts) {
  // The strategy itself is sequential, but it runs inside benches that
  // retune the global pool; the placement must not see the difference.
  const PlacementPlan baseline = make_optimizer(4.0, 9).run("hypergraph");
  for (const int threads : {1, 2, 8}) {
    common::set_global_threads(threads);
    const PlacementPlan plan = make_optimizer(4.0, 9).run("hypergraph");
    EXPECT_EQ(plan.keyword_to_node, baseline.keyword_to_node)
        << "threads=" << threads;
  }
  common::set_global_threads(0);
}

TEST(Hypergraph, BeatsPairwiseOnLongQueries) {
  // Mean query length 4: the two-smallest-objects pairwise collapse loses
  // information that the hyperedge view keeps. Whole-query cost must not
  // be worse than multilevel's on the same pipeline.
  const PartialOptimizer opt = make_optimizer(4.0, 3);
  const CcaInstance scoped = opt.hypergraph_instance();
  ASSERT_TRUE(scoped.has_hyperedges());
  const auto scoped_placement = [&](const PlacementPlan& plan) {
    Placement p(static_cast<std::size_t>(scoped.num_objects()));
    for (std::size_t pos = 0; pos < plan.scope.size(); ++pos)
      p[pos] = plan.keyword_to_node[plan.scope[pos]];
    return p;
  };
  const PlacementPlan hg = opt.run("hypergraph");
  const PlacementPlan ml = opt.run("multilevel");
  // The claim: on the lambda objective, optimizing it directly wins.
  const double hg_lambda = scoped.connectivity_cost(scoped_placement(hg));
  const double ml_lambda = scoped.connectivity_cost(scoped_placement(ml));
  EXPECT_LE(hg_lambda, ml_lambda + 1e-9);
  EXPECT_LT(hg_lambda, scoped.total_connectivity_cost());  // actually helps
}

/// The whole-query projection as PartialOptimizer's constructor used to
/// install it, rebuilt from the standalone mining functions: scope = the
/// first `scope` keywords of the importance ranking, each trace hyperedge
/// restricted to the scope, edges with < 2 in-scope pins dropped.
CcaInstance projected_oracle(const CcaInstance& scoped,
                             const trace::QueryTrace& trace,
                             const std::vector<std::uint64_t>& sizes,
                             const PartialOptimizerConfig& cfg) {
  const std::vector<trace::KeywordId> ranking = importance_ranking(
      build_pair_weights(trace, sizes, cfg.operation_model), sizes);
  std::vector<int> object_of(sizes.size(), -1);
  for (std::size_t pos = 0; pos < std::min(cfg.scope, ranking.size()); ++pos)
    object_of[ranking[pos]] = static_cast<int>(pos);
  std::vector<Hyperedge> scoped_edges;
  const KeywordHyperedges edges = build_hyperedges(trace);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    Hyperedge edge;
    edge.weight = edges.weights[e];
    for (const trace::KeywordId k : edges.pins_of(e))
      if (object_of[k] >= 0) edge.pins.push_back(object_of[k]);
    if (edge.pins.size() >= 2) scoped_edges.push_back(std::move(edge));
  }
  CcaInstance out = scoped;
  out.set_hyperedges(std::move(scoped_edges));
  return out;
}

TEST(Hypergraph, ScopedInstanceCarriesNoHyperedges) {
  // Only the hypergraph strategy reads the whole-query view, so the
  // instance every strategy shares is pairwise only.
  const PartialOptimizer opt = make_optimizer(4.0, 1);
  EXPECT_FALSE(opt.scoped_instance().has_hyperedges());
  EXPECT_FALSE(opt.scoped_instance().pairs().empty());
  EXPECT_TRUE(opt.hypergraph_instance().has_hyperedges());
}

TEST(Hypergraph, OnDemandInstanceMatchesTheConstructorProjection) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    trace::WorkloadConfig wcfg;
    wcfg.vocabulary_size = 150 + 10 * (seed % 5);
    wcfg.num_topics = 12;
    wcfg.topic_size = 7;
    wcfg.mean_query_length = 2.0 + 0.25 * static_cast<double>(seed % 9);
    wcfg.seed = seed;
    const trace::QueryTrace trace =
        trace::WorkloadModel(wcfg).generate(800, seed + 100);
    std::vector<std::uint64_t> sizes(wcfg.vocabulary_size);
    for (std::size_t k = 0; k < sizes.size(); ++k)
      sizes[k] = 64 + (k * 37 + seed) % 211;
    PartialOptimizerConfig cfg;
    cfg.num_nodes = 3 + static_cast<int>(seed % 4);
    cfg.scope = 20 + 7 * seed;
    cfg.seed = seed;
    const PartialOptimizer opt(trace, sizes, cfg);

    const CcaInstance got = opt.hypergraph_instance();
    const CcaInstance want =
        projected_oracle(opt.scoped_instance(), trace, sizes, cfg);
    EXPECT_EQ(got.object_sizes(), want.object_sizes()) << "seed " << seed;
    EXPECT_EQ(got.node_capacities(), want.node_capacities()) << "seed " << seed;
    ASSERT_EQ(got.hyperedges().size(), want.hyperedges().size())
        << "seed " << seed;
    for (std::size_t e = 0; e < got.hyperedges().size(); ++e) {
      EXPECT_EQ(got.hyperedges()[e].pins, want.hyperedges()[e].pins)
          << "seed " << seed << " edge " << e;
      EXPECT_EQ(got.hyperedges()[e].weight, want.hyperedges()[e].weight)
          << "seed " << seed << " edge " << e;  // bit-identical
    }

    // The strategy's plan is the partitioner's answer on that instance.
    HypergraphOptions options = cfg.hypergraph;
    options.seed = cfg.seed;
    const Placement expected = hypergraph_placement(want, options);
    const PlacementPlan plan = opt.run("hypergraph");
    ASSERT_EQ(plan.scope.size(), expected.size());
    for (std::size_t pos = 0; pos < plan.scope.size(); ++pos)
      EXPECT_EQ(plan.keyword_to_node[plan.scope[pos]], expected[pos])
          << "seed " << seed << " object " << pos;
  }
}

TEST(Hypergraph, HyperedgeAggregationMatchesMapOracle) {
  // build_hyperedges and set_hyperedges aggregate by sort + run-length
  // merge; a std::map keyed by pin set is the reference. Output order and
  // every weight bit must agree (weights summed in input order).
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 60;
  wcfg.num_topics = 6;
  wcfg.seed = 41;
  const trace::QueryTrace trace = trace::WorkloadModel(wcfg).generate(4000, 43);

  std::map<std::vector<trace::KeywordId>, std::size_t> counts;
  for (const trace::Query& q : trace.queries())
    if (q.size() >= 2) ++counts[q.keywords];
  const KeywordHyperedges built = build_hyperedges(trace);
  ASSERT_EQ(built.size(), counts.size());
  std::size_t i = 0;
  for (const auto& [pins, count] : counts) {
    EXPECT_TRUE(std::ranges::equal(built.pins_of(i), pins));
    EXPECT_EQ(built.weights[i],
              static_cast<double>(count) *
                  (1.0 / static_cast<double>(trace.size())));
    ++i;
  }

  common::Rng rng(47);
  std::vector<Hyperedge> edges;
  std::map<std::vector<ObjectId>, double> merged;
  for (int e = 0; e < 3000; ++e) {
    Hyperedge edge;
    const int k = 1 + static_cast<int>(rng.next_below(4));  // 1..4 pins
    for (int t = 0; t < k; ++t)
      edge.pins.push_back(static_cast<int>(rng.next_below(12)));
    edge.weight = rng.next_below(10) == 0 ? 0.0 : rng.next_double();
    std::vector<ObjectId> canonical = edge.pins;
    std::sort(canonical.begin(), canonical.end());
    canonical.erase(std::unique(canonical.begin(), canonical.end()),
                    canonical.end());
    if (canonical.size() >= 2 && edge.weight > 0.0)
      merged[canonical] += edge.weight;
    edges.push_back(std::move(edge));
  }
  CcaInstance inst(std::vector<double>(12, 1.0), {12.0, 12.0}, {});
  inst.set_hyperedges(std::move(edges));
  ASSERT_EQ(inst.hyperedges().size(), merged.size());
  i = 0;
  for (const auto& [pins, weight] : merged) {
    EXPECT_EQ(inst.hyperedges()[i].pins, pins);
    EXPECT_EQ(inst.hyperedges()[i].weight, weight);  // bit-identical
    ++i;
  }
}

}  // namespace
}  // namespace cca::core
