#include "core/component_solver.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "lp/canonical.hpp"
#include "lp/model.hpp"
#include "lp/solver.hpp"

namespace cca::core {

namespace {

/// Plain union-find with path halving + union by size.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int a) {
    while (parent_[a] != a) {
      parent_[a] = parent_[parent_[a]];
      a = parent_[a];
    }
    return a;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

/// Positive-cost pair adjacency in CSR form, built once per build_groups
/// call and shared by peeling and refinement. Object i's neighbours are
/// edges[offsets[i], offsets[i + 1]), in instance.pairs() order.
class PairAdjacency {
 public:
  explicit PairAdjacency(const CcaInstance& instance)
      : offsets_(static_cast<std::size_t>(instance.num_objects()) + 1, 0) {
    for (const PairWeight& p : instance.pairs()) {
      if (p.cost() <= 0.0) continue;
      ++offsets_[p.i + 1];
      ++offsets_[p.j + 1];
    }
    for (std::size_t i = 1; i < offsets_.size(); ++i)
      offsets_[i] += offsets_[i - 1];
    edges_.resize(offsets_.back());
    std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (const PairWeight& p : instance.pairs()) {
      if (p.cost() <= 0.0) continue;
      edges_[cursor[p.i]++] = {p.j, p.cost()};
      edges_[cursor[p.j]++] = {p.i, p.cost()};
    }
  }

  std::span<const std::pair<ObjectId, double>> of(ObjectId i) const {
    return {edges_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<std::pair<ObjectId, double>> edges_;
};

/// Per-object peeling state, indexed by ObjectId. One per peeled
/// component (pool tasks never share one); peel_piece resets the entries
/// of the group it is handed and touches no others.
struct PeelScratch {
  enum : std::uint8_t { kOutside, kInGroup, kInPiece };
  explicit PeelScratch(int num_objects)
      : state(static_cast<std::size_t>(num_objects), kOutside),
        attachment(static_cast<std::size_t>(num_objects), 0.0) {}
  std::vector<std::uint8_t> state;
  std::vector<double> attachment;  // pair cost into the piece
};

/// Peels one at-most-`limit`-sized piece off an oversized group with a
/// greedy sweep cut: grow the piece from the largest member by repeatedly
/// absorbing the unassigned member most strongly attached to it (by pair
/// cost), record the boundary cut after every step, and slice at the
/// cheapest cut whose piece holds between 45% and 100% of `limit`.
/// Growing by attachment walks through clusters one at a time, so the
/// sweep's minima land on the weak edges BETWEEN clusters and each piece
/// tends to be "one node's worth of whole clusters" — the cheap
/// approximation of what the integer program would have to do once a
/// component cannot fit on one node. Cost: O(group + the group's pairs +
/// piece * group), no hashing.
std::pair<std::vector<ObjectId>, std::vector<ObjectId>> peel_piece(
    const CcaInstance& instance, const PairAdjacency& adj,
    const std::vector<ObjectId>& group, double limit, PeelScratch& scratch) {
  CCA_CHECK(group.size() >= 2);
  std::vector<std::uint8_t>& state = scratch.state;
  std::vector<double>& attachment = scratch.attachment;
  for (ObjectId i : group) {
    state[i] = PeelScratch::kInGroup;
    attachment[i] = 0.0;
  }

  ObjectId seed = group[0];
  for (ObjectId i : group)
    if (instance.object_size(i) > instance.object_size(seed)) seed = i;

  std::vector<ObjectId> absorb_order;
  double piece_size = 0.0;
  double cut = 0.0;  // cost of edges crossing the piece / rest boundary

  auto absorb = [&](ObjectId i) {
    absorb_order.push_back(i);
    state[i] = PeelScratch::kInPiece;
    piece_size += instance.object_size(i);
    cut -= attachment[i];  // 0 when nothing in the piece touches i
    for (const auto& [nbr, cost] : adj.of(i)) {
      if (state[nbr] == PeelScratch::kInGroup) {
        attachment[nbr] += cost;
        cut += cost;
      }
    }
  };
  absorb(seed);

  // Sweep within the window [0.45 * limit, limit]. Fallback: the largest
  // prefix that still fits the limit (prefix 1 when even the seed alone
  // does not — an unsplittable oversized object, emitted as-is).
  std::size_t best_prefix = 0;
  double best_cut = -1.0;
  std::size_t fallback_prefix = piece_size <= limit ? 1 : 0;
  if (piece_size >= 0.45 * limit && piece_size <= limit) {
    best_prefix = 1;
    best_cut = cut;
  }
  while (piece_size < limit && absorb_order.size() + 1 < group.size()) {
    // Strongest attachment; ties go to the strictly larger object, then
    // to the earlier member in group order.
    ObjectId best = -1;
    double best_gain = -1.0;
    for (ObjectId i : group) {
      if (state[i] == PeelScratch::kInPiece) continue;
      const double gain = attachment[i];
      if (gain > best_gain ||
          (gain == best_gain && best >= 0 &&
           instance.object_size(i) > instance.object_size(best))) {
        best = i;
        best_gain = gain;
      }
    }
    CCA_CHECK(best >= 0);
    if (piece_size + instance.object_size(best) > limit) break;
    absorb(best);
    if (piece_size >= 0.45 * limit && (best_cut < 0.0 || cut < best_cut)) {
      best_cut = cut;
      best_prefix = absorb_order.size();
    }
    fallback_prefix = absorb_order.size();
  }
  std::size_t prefix = best_cut >= 0.0 ? best_prefix : fallback_prefix;
  if (prefix == 0) prefix = 1;

  std::vector<ObjectId> piece(absorb_order.begin(),
                              absorb_order.begin() +
                                  static_cast<std::ptrdiff_t>(prefix));
  for (ObjectId i : piece) state[i] = PeelScratch::kOutside;
  std::vector<ObjectId> rest;
  for (ObjectId i : group)
    if (state[i] != PeelScratch::kOutside) rest.push_back(i);
  CCA_CHECK(!rest.empty());
  return {std::move(piece), std::move(rest)};
}

/// Boundary refinement (one-object Kernighan-Lin moves): each pass visits
/// every object and moves it to the group holding most of its pair cost,
/// capacity permitting. Peeling decides the coarse shape; this pass cleans
/// up the objects the sweep absorbed just before/after a cut landed.
/// Which of two equally attached groups wins follows `attach`'s iteration
/// order, so the map stays an unordered_map.
void refine_groups(const CcaInstance& instance, const PairAdjacency& adj,
                   std::vector<int>& group_of, std::vector<double>& sizes,
                   double limit, int passes) {
  std::unordered_map<int, double> attach;
  for (int pass = 0; pass < passes; ++pass) {
    bool moved = false;
    for (int i = 0; i < instance.num_objects(); ++i) {
      const auto neighbours = adj.of(i);
      if (neighbours.empty()) continue;
      attach.clear();
      for (const auto& [nbr, cost] : neighbours) attach[group_of[nbr]] += cost;
      const int current = group_of[i];
      int best = current;
      double best_gain = attach.count(current) ? attach[current] : 0.0;
      for (const auto& [g, cost] : attach) {
        if (g == current || cost <= best_gain) continue;
        if (sizes[g] + instance.object_size(i) > limit) continue;
        best = g;
        best_gain = cost;
      }
      if (best != current) {
        sizes[current] -= instance.object_size(i);
        sizes[best] += instance.object_size(i);
        group_of[i] = best;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

ComponentStructure find_components(const CcaInstance& instance) {
  UnionFind uf(instance.num_objects());
  for (const PairWeight& p : instance.pairs())
    if (p.cost() > 0.0) uf.unite(p.i, p.j);

  ComponentStructure cs;
  cs.component_of.assign(instance.num_objects(), -1);
  std::vector<int> root_to_component(instance.num_objects(), -1);
  for (int i = 0; i < instance.num_objects(); ++i) {
    const int root = uf.find(i);
    if (root_to_component[root] < 0) {
      root_to_component[root] = cs.num_components();
      cs.members.emplace_back();
      cs.sizes.push_back(0.0);
    }
    const int c = root_to_component[root];
    cs.component_of[i] = c;
    cs.members[c].push_back(i);
    cs.sizes[c] += instance.object_size(i);
  }
  return cs;
}

PlacementGroups build_groups(const CcaInstance& instance,
                             const ComponentSolverOptions& options) {
  const ComponentStructure cs = find_components(instance);

  PlacementGroups groups;
  if (options.target_fill <= 0.0) {
    groups.members = cs.members;
    groups.sizes = cs.sizes;
    groups.component_of_group.resize(cs.members.size());
    std::iota(groups.component_of_group.begin(),
              groups.component_of_group.end(), 0);
    return groups;
  }

  double min_capacity = instance.node_capacity(0);
  for (int k = 1; k < instance.num_nodes(); ++k)
    min_capacity = std::min(min_capacity, instance.node_capacity(k));
  const double limit = options.target_fill * min_capacity;

  auto emit = [&](int component, std::vector<ObjectId> group) {
    double size = 0.0;
    for (ObjectId i : group) size += instance.object_size(i);
    groups.members.push_back(std::move(group));
    groups.sizes.push_back(size);
    groups.component_of_group.push_back(component);
  };

  // Peeling touches only its own component's objects and pairs, so
  // components run concurrently on the PR-1 pool; merging in component
  // order keeps group numbering (and everything downstream, including
  // stdout) identical for any --threads.
  const PairAdjacency adj(instance);
  std::vector<std::vector<std::vector<ObjectId>>> peeled =
      common::parallel_map(
          static_cast<std::size_t>(cs.num_components()), [&](std::size_t c) {
            std::vector<std::vector<ObjectId>> pieces;
            std::vector<ObjectId> rest = cs.members[c];
            double rest_size = cs.sizes[c];
            std::optional<PeelScratch> scratch;
            // Peel limit-sized pieces until the remainder fits. A single
            // object above the limit cannot be split further; it is
            // emitted whole and the capacity ablation reports the
            // resulting overload.
            while (rest_size > limit && rest.size() >= 2) {
              if (!scratch) scratch.emplace(instance.num_objects());
              auto [piece, remainder] =
                  peel_piece(instance, adj, rest, limit, *scratch);
              for (ObjectId i : piece) rest_size -= instance.object_size(i);
              pieces.push_back(std::move(piece));
              rest = std::move(remainder);
            }
            pieces.push_back(std::move(rest));
            return pieces;
          });
  for (int c = 0; c < cs.num_components(); ++c)
    for (std::vector<ObjectId>& piece : peeled[c]) emit(c, std::move(piece));

  // Boundary refinement over the peeled groups, then compaction.
  std::vector<int> group_of(static_cast<std::size_t>(instance.num_objects()),
                            -1);
  for (std::size_t g = 0; g < groups.members.size(); ++g)
    for (ObjectId i : groups.members[g]) group_of[i] = static_cast<int>(g);
  refine_groups(instance, adj, group_of, groups.sizes, limit, /*passes=*/3);

  PlacementGroups refined;
  std::vector<int> new_index(groups.members.size(), -1);
  for (int i = 0; i < instance.num_objects(); ++i) {
    const int g = group_of[i];
    if (new_index[g] < 0) {
      new_index[g] = static_cast<int>(refined.members.size());
      refined.members.emplace_back();
      refined.sizes.push_back(0.0);
      refined.component_of_group.push_back(groups.component_of_group[g]);
    }
    const int ng = new_index[g];
    refined.members[ng].push_back(i);
    refined.sizes[ng] += instance.object_size(i);
  }

  // Cut cost: pairs whose endpoints landed in different groups.
  for (const PairWeight& p : instance.pairs())
    if (group_of[p.i] != group_of[p.j]) refined.cut_cost += p.cost();
  return refined;
}

TransportationLp build_transportation_lp(const CcaInstance& instance,
                                         const PlacementGroups& groups,
                                         std::uint64_t seed) {
  // Transportation LP over q_{c,k} >= 0:
  //   sum_k q_ck = 1                 (group fully placed)
  //   sum_c size_c q_ck <= cap_k     (node capacity; ditto per resource)
  // with a small pseudo-random auxiliary objective that selects a generic
  // optimal *vertex*; vertices of a transportation polytope have at most
  // C + N - 1 nonzeros, so most groups come out integrally assigned.
  const int C = static_cast<int>(groups.members.size());
  const int N = instance.num_nodes();
  TransportationLp lp;
  lp::Model& model = lp.model;
  // Vertex-selection preferences keyed by ORIGINAL component, not group:
  // sibling groups split from one component share the same node ranking,
  // so the LP re-co-locates them whenever capacity allows and the split's
  // cut cost is only paid when unavoidable.
  const auto pref = [&](int component, int k) {
    common::SplitMix64 sm(seed ^
                          (static_cast<std::uint64_t>(component) *
                               0x9E3779B97F4A7C15ULL +
                           static_cast<std::uint64_t>(k)));
    return static_cast<double>(sm() >> 11) * 0x1.0p-53;
  };
  std::vector<int>& q_col = lp.q_col;
  q_col.resize(static_cast<std::size_t>(C) * N);
  for (int c = 0; c < C; ++c)
    for (int k = 0; k < N; ++k)
      q_col[static_cast<std::size_t>(c) * N + k] = model.add_variable(
          0.0, lp::kInfinity,
          (1.0 + groups.sizes[c]) * pref(groups.component_of_group[c], k));

  for (int c = 0; c < C; ++c) {
    std::vector<lp::Term> terms;
    terms.reserve(static_cast<std::size_t>(N));
    for (int k = 0; k < N; ++k)
      terms.push_back({q_col[static_cast<std::size_t>(c) * N + k], 1.0});
    model.add_constraint(lp::Relation::kEqual, 1.0, std::move(terms));
  }
  for (int k = 0; k < N; ++k) {
    std::vector<lp::Term> terms;
    for (int c = 0; c < C; ++c) {
      if (groups.sizes[c] > 0.0)
        terms.push_back(
            {q_col[static_cast<std::size_t>(c) * N + k], groups.sizes[c]});
    }
    model.add_constraint(lp::Relation::kLessEqual, instance.node_capacity(k),
                         std::move(terms));
  }
  // Extra resource rows (Sec. 3.3) contract the same way storage does: a
  // group's demand is the sum of its members' demands. See the header for
  // the exactness caveat when demands are not size-proportional.
  for (const Resource& res : instance.resources()) {
    std::vector<double> group_demand(static_cast<std::size_t>(C), 0.0);
    for (int c = 0; c < C; ++c)
      for (ObjectId i : groups.members[c]) group_demand[c] += res.demands[i];
    for (int k = 0; k < N; ++k) {
      std::vector<lp::Term> terms;
      for (int c = 0; c < C; ++c) {
        if (group_demand[c] > 0.0)
          terms.push_back(
              {q_col[static_cast<std::size_t>(c) * N + k], group_demand[c]});
      }
      model.add_constraint(lp::Relation::kLessEqual, res.capacities[k],
                           std::move(terms));
    }
  }
  return lp;
}

FractionalPlacement ComponentLpSolver::solve(
    const CcaInstance& instance) const {
  CCA_CHECK_MSG(!instance.has_pins(),
                "ComponentLpSolver requires a pin-free instance");

  // Why identical rows per component lose nothing (and why the LP optimum
  // is 0): take any feasible fractional x and define, per component c, the
  // size-weighted average row q_c,k = sum_{i in c} s(i) x_ik / size(c).
  // Row-stochasticity is preserved, and per-node loads are unchanged:
  // sum_c size(c) q_ck = sum_i s(i) x_ik <= c(k). Replacing every row of c
  // by q_c keeps feasibility and drives every pair term |x_ik - x_jk| of
  // the objective to 0 (pairs never straddle components: an edge with
  // positive cost merges them). Hence 0 is the optimum whenever the
  // instance is fractionally feasible at all. With target_fill > 0 the
  // groups may be split components (see header): same machinery, no longer
  // the literal optimum.
  const PlacementGroups groups = build_groups(instance, options_);
  const int C = static_cast<int>(groups.members.size());
  const int N = instance.num_nodes();

  // Group-size distribution per solve: how the union-find components (and
  // their peeled pieces) shape the transportation LP.
  if (common::metrics_enabled()) {
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& solves = reg.counter("core.components.solves");
    static common::Counter& group_count =
        reg.counter("core.components.groups");
    static common::Histogram& group_objects =
        reg.histogram("core.components.group_objects");
    static common::Histogram& group_bytes =
        reg.histogram("core.components.group_bytes");
    solves.add();
    group_count.add(C);
    for (int c = 0; c < C; ++c) {
      group_objects.observe(groups.members[c].size());
      group_bytes.observe(static_cast<std::uint64_t>(groups.sizes[c]));
    }
  }

  const TransportationLp lp = build_transportation_lp(instance, groups,
                                                      options_.seed);
  const lp::Model& model = lp.model;
  const std::vector<int>& q_col = lp.q_col;

  // Warm-start hint, in priority order: the cache's previous optimal
  // basis when shape-compatible (the drift/recovery loops re-solve this
  // exact shape with nudged sizes, so phase 2 restarts almost done), else
  // a crash basis assembled from the per-group capacity-relaxed solves.
  // Relaxing the coupling rows separates the LP by group into independent
  // argmin-cost node picks — computed in parallel and merged in fixed
  // group order — and {q_{c,k*(c)} basic per placement row, slack basic
  // per capacity row} is structurally nonsingular (permuted triangular
  // with unit diagonal). It is optimal outright when no capacity binds.
  // When one does, or when drifted sizes/capacities leave a cached basis
  // primal infeasible, the hint is unusable and the solve silently
  // cold-starts, so placements never depend on where the hint came from.
  const int R = static_cast<int>(instance.resources().size());
  const int num_rows = C + N + R * N;
  lp::Basis hint;
  if (options_.warm_cache != nullptr) hint = options_.warm_cache->load();
  if (hint.num_rows() != num_rows) {
    const std::vector<int> best_node = common::parallel_map(
        static_cast<std::size_t>(C), [&](std::size_t c) {
          int best = 0;
          double best_cost = lp::kInfinity;
          for (int k = 0; k < N; ++k) {
            const double cost = model.objective_coef(
                q_col[static_cast<std::size_t>(c) * N + k]);
            if (cost < best_cost) {
              best = k;
              best_cost = cost;
            }
          }
          return best;
        });
    const lp::CanonicalForm canon(model);
    hint.basic.assign(static_cast<std::size_t>(num_rows), -1);
    for (int c = 0; c < C; ++c)
      hint.basic[c] = canon.column_for_variable(
          q_col[static_cast<std::size_t>(c) * N + best_node[c]]);
    for (int i = C; i < num_rows; ++i)
      hint.basic[i] = canon.identity_slack_for_row(i);
  }

  const lp::SolveResult result = lp::Solver().solve(model, &hint);
  if (options_.warm_cache != nullptr && !result.basis.empty())
    options_.warm_cache->store(result.basis);
  const lp::Solution& solution = result.solution;
  CCA_CHECK_MSG(solution.optimal(),
                "group transportation LP: "
                    << lp::to_string(solution.status)
                    << " (is total capacity >= total object size?)");

  FractionalPlacement x(instance.num_objects(), N);
  for (int c = 0; c < C; ++c) {
    for (int k = 0; k < N; ++k) {
      double v = solution.x[q_col[static_cast<std::size_t>(c) * N + k]];
      if (v < 0.0) v = 0.0;
      if (v > 1.0) v = 1.0;
      for (ObjectId i : groups.members[c]) x.set(i, k, v);
    }
  }
  return x;
}

}  // namespace cca::core
