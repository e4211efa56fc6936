#include "groups_oracle.hpp"

#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace cca::core {

namespace {

/// Peels one at-most-`limit`-sized piece off an oversized group with a
/// greedy sweep cut: grow the piece from the largest member by repeatedly
/// absorbing the unassigned member most strongly attached to it (by pair
/// cost), record the boundary cut after every step, and slice at the
/// cheapest cut whose piece holds between 45% and 100% of `limit`.
/// Growing by attachment walks through clusters one at a time, so the
/// sweep's minima land on the weak edges BETWEEN clusters and each piece
/// tends to be "one node's worth of whole clusters" — the cheap
/// approximation of what the integer program would have to do once a
/// component cannot fit on one node.
std::pair<std::vector<ObjectId>, std::vector<ObjectId>> peel_piece(
    const CcaInstance& instance, const std::vector<ObjectId>& group,
    double limit) {
  CCA_CHECK(group.size() >= 2);

  // Local adjacency restricted to the group.
  std::unordered_map<ObjectId, std::vector<std::pair<ObjectId, double>>> adj;
  std::unordered_map<ObjectId, bool> in_group;
  for (ObjectId i : group) in_group[i] = true;
  for (const PairWeight& p : instance.pairs()) {
    if (p.cost() <= 0.0) continue;
    if (!in_group.count(p.i) || !in_group.count(p.j)) continue;
    adj[p.i].push_back({p.j, p.cost()});
    adj[p.j].push_back({p.i, p.cost()});
  }

  ObjectId seed = group[0];
  for (ObjectId i : group)
    if (instance.object_size(i) > instance.object_size(seed)) seed = i;

  std::unordered_map<ObjectId, double> attachment;  // non-member -> cost
  std::unordered_map<ObjectId, bool> in_piece;
  std::vector<ObjectId> absorb_order;
  double piece_size = 0.0;
  double cut = 0.0;  // cost of edges crossing the piece / rest boundary

  auto absorb = [&](ObjectId i) {
    absorb_order.push_back(i);
    in_piece[i] = true;
    piece_size += instance.object_size(i);
    if (auto it = attachment.find(i); it != attachment.end()) {
      cut -= it->second;
      attachment.erase(it);
    }
    for (const auto& [nbr, cost] : adj[i]) {
      if (!in_piece[nbr]) {
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
    ObjectId best = -1;
    double best_gain = -1.0;
    for (ObjectId i : group) {
      if (in_piece[i]) continue;
      const double gain = attachment.count(i) ? attachment[i] : 0.0;
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
  std::unordered_map<ObjectId, bool> chosen;
  for (ObjectId i : piece) chosen[i] = true;
  std::vector<ObjectId> rest;
  for (ObjectId i : group)
    if (!chosen.count(i)) rest.push_back(i);
  CCA_CHECK(!rest.empty());
  return {std::move(piece), std::move(rest)};
}

/// Boundary refinement (one-object Kernighan-Lin moves): each pass visits
/// every object and moves it to the group holding most of its pair cost,
/// capacity permitting. Peeling decides the coarse shape; this pass cleans
/// up the objects the sweep absorbed just before/after a cut landed.
void refine_groups(const CcaInstance& instance,
                   std::vector<int>& group_of, std::vector<double>& sizes,
                   double limit, int passes) {
  // Per-object adjacency once (pairs with positive cost).
  std::vector<std::vector<std::pair<ObjectId, double>>> adj(
      static_cast<std::size_t>(instance.num_objects()));
  for (const PairWeight& p : instance.pairs()) {
    if (p.cost() <= 0.0) continue;
    adj[p.i].push_back({p.j, p.cost()});
    adj[p.j].push_back({p.i, p.cost()});
  }

  std::unordered_map<int, double> attach;
  for (int pass = 0; pass < passes; ++pass) {
    bool moved = false;
    for (int i = 0; i < instance.num_objects(); ++i) {
      if (adj[i].empty()) continue;
      attach.clear();
      for (const auto& [nbr, cost] : adj[i]) attach[group_of[nbr]] += cost;
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

PlacementGroups oracle_build_groups(const CcaInstance& instance,
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

  // Sequential over components (order is what the production path merges
  // its parallel peels back into).
  for (int c = 0; c < cs.num_components(); ++c) {
    std::vector<ObjectId> rest = cs.members[c];
    double rest_size = cs.sizes[c];
    while (rest_size > limit && rest.size() >= 2) {
      auto [piece, remainder] = peel_piece(instance, rest, limit);
      for (ObjectId i : piece) rest_size -= instance.object_size(i);
      emit(c, std::move(piece));
      rest = std::move(remainder);
    }
    emit(c, std::move(rest));
  }

  std::vector<int> group_of(static_cast<std::size_t>(instance.num_objects()),
                            -1);
  for (std::size_t g = 0; g < groups.members.size(); ++g)
    for (ObjectId i : groups.members[g]) group_of[i] = static_cast<int>(g);
  refine_groups(instance, group_of, groups.sizes, limit, /*passes=*/3);

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

  for (const PairWeight& p : instance.pairs())
    if (group_of[p.i] != group_of[p.j]) refined.cut_cost += p.cost();
  return refined;
}

}  // namespace cca::core
