#include "core/recovery.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/metrics.hpp"

namespace cca::core {

RecoveryResult RecoveryPlanner::replan(const CcaInstance& instance,
                                       const Placement& current,
                                       const std::vector<bool>& alive,
                                       const std::vector<double>& weights) const {
  CCA_CHECK(static_cast<int>(current.size()) == instance.num_objects());
  CCA_CHECK(static_cast<int>(alive.size()) == instance.num_nodes());
  CCA_CHECK_MSG(weights.empty() ||
                    static_cast<int>(weights.size()) == instance.num_objects(),
                "weights must be empty or cover every object");
  CCA_CHECK_MSG(config_.migration_budget_fraction >= 0.0,
                "negative migration budget");
  CCA_CHECK_MSG(config_.capacity_headroom > 0.0,
                "capacity headroom must be positive");
  CCA_CHECK_MSG(config_.rebuild_mbps > 0.0,
                "rebuild bandwidth must be positive");
  CCA_CHECK_MSG(std::count(alive.begin(), alive.end(), true) > 0,
                "recovery needs at least one surviving node");

  const auto weight_of = [&](ObjectId i) {
    return weights.empty() ? instance.object_size(i)
                           : weights[static_cast<std::size_t>(i)];
  };

  RecoveryResult result;
  result.placement = current;

  // The casualty list, and the live portion of each node's load. Bytes
  // parked on dead nodes do not occupy survivor capacity.
  std::vector<ObjectId> lost;
  std::vector<double> loads(static_cast<std::size_t>(instance.num_nodes()),
                            0.0);
  for (int i = 0; i < instance.num_objects(); ++i) {
    if (alive[static_cast<std::size_t>(current[i])]) {
      loads[static_cast<std::size_t>(current[i])] +=
          instance.object_size(i);
    } else {
      lost.push_back(i);
      ++result.objects_lost;
      result.weight_lost += weight_of(i);
    }
  }

  double budget =
      config_.migration_budget_fraction * instance.total_object_size();

  if (!lost.empty() && budget > 0.0) {
    // Most restoration value per migrated byte first; ties by id so the
    // order is deterministic.
    std::sort(lost.begin(), lost.end(), [&](ObjectId a, ObjectId b) {
      const double da = weight_of(a) / std::max(instance.object_size(a), 1e-12);
      const double db = weight_of(b) / std::max(instance.object_size(b), 1e-12);
      if (da != db) return da > db;
      return a < b;
    });

    // Per-object correlation mass toward each live node, maintained
    // incrementally as objects land (a recovered object attracts its
    // correlated siblings, so clusters re-form on the same survivor).
    // affinity[i][k] = sum of pair costs between i and objects on k.
    std::vector<std::vector<double>> affinity(
        static_cast<std::size_t>(instance.num_objects()),
        std::vector<double>(static_cast<std::size_t>(instance.num_nodes()),
                            0.0));
    for (const PairWeight& p : instance.pairs()) {
      const NodeId ni = result.placement[p.i];
      const NodeId nj = result.placement[p.j];
      if (alive[static_cast<std::size_t>(nj)])
        affinity[static_cast<std::size_t>(p.i)]
                [static_cast<std::size_t>(nj)] += p.cost();
      if (alive[static_cast<std::size_t>(ni)])
        affinity[static_cast<std::size_t>(p.j)]
                [static_cast<std::size_t>(ni)] += p.cost();
    }
    // Pairs incident to each object, for the incremental affinity update.
    std::vector<std::vector<const PairWeight*>> incident(
        static_cast<std::size_t>(instance.num_objects()));
    for (const PairWeight& p : instance.pairs()) {
      incident[static_cast<std::size_t>(p.i)].push_back(&p);
      incident[static_cast<std::size_t>(p.j)].push_back(&p);
    }

    // Bytes each survivor has been assigned to rebuild, for the
    // declustered destination rule and the makespan accounting.
    std::vector<double> rebuild_bytes(
        static_cast<std::size_t>(instance.num_nodes()), 0.0);

    for (const ObjectId i : lost) {
      const double size = instance.object_size(i);
      if (size > budget + 1e-9) continue;  // cannot afford this object
      NodeId best = -1;
      if (config_.rebuild_mode == RebuildMode::kSuccessor) {
        // The classic funnel: first alive ring successor of the dead
        // host with headroom. A contiguous dead rack drains through one
        // neighbour — the baseline declustering beats.
        for (int off = 1; off < instance.num_nodes(); ++off) {
          const int k = (current[i] + off) % instance.num_nodes();
          if (!alive[static_cast<std::size_t>(k)]) continue;
          const double ceiling =
              config_.capacity_headroom * instance.node_capacity(k);
          if (loads[static_cast<std::size_t>(k)] + size > ceiling + 1e-9)
            continue;
          best = k;
          break;
        }
      } else if (config_.rebuild_mode == RebuildMode::kDeclustered) {
        // Least rebuild-loaded survivor with headroom; ties by highest
        // affinity (keep what co-location the balance allows), then
        // lowest id via iteration order.
        double best_assigned = std::numeric_limits<double>::infinity();
        double best_affinity = -1.0;
        for (int k = 0; k < instance.num_nodes(); ++k) {
          if (!alive[static_cast<std::size_t>(k)]) continue;
          const double ceiling =
              config_.capacity_headroom * instance.node_capacity(k);
          if (loads[static_cast<std::size_t>(k)] + size > ceiling + 1e-9)
            continue;
          const double assigned = rebuild_bytes[static_cast<std::size_t>(k)];
          const double a = affinity[static_cast<std::size_t>(i)]
                                   [static_cast<std::size_t>(k)];
          if (assigned < best_assigned ||
              (assigned == best_assigned && a > best_affinity)) {
            best = k;
            best_assigned = assigned;
            best_affinity = a;
          }
        }
      } else {
        // Destination: highest affinity among survivors with headroom;
        // ties broken by most free capacity, then lowest node id.
        double best_affinity = -1.0;
        double best_free = -std::numeric_limits<double>::infinity();
        for (int k = 0; k < instance.num_nodes(); ++k) {
          if (!alive[static_cast<std::size_t>(k)]) continue;
          const double ceiling =
              config_.capacity_headroom * instance.node_capacity(k);
          if (loads[static_cast<std::size_t>(k)] + size > ceiling + 1e-9)
            continue;
          const double a = affinity[static_cast<std::size_t>(i)]
                                   [static_cast<std::size_t>(k)];
          const double free = ceiling - loads[static_cast<std::size_t>(k)];
          if (a > best_affinity ||
              (a == best_affinity && free > best_free)) {
            best = k;
            best_affinity = a;
            best_free = free;
          }
        }
      }
      if (best < 0) continue;  // no survivor has headroom for it

      result.placement[i] = best;
      loads[static_cast<std::size_t>(best)] += size;
      rebuild_bytes[static_cast<std::size_t>(best)] += size;
      budget -= size;
      ++result.objects_recovered;
      result.weight_recovered += weight_of(i);
      // The landed object now attracts its correlated siblings to `best`.
      for (const PairWeight* p : incident[static_cast<std::size_t>(i)]) {
        const ObjectId other = p->i == i ? p->j : p->i;
        affinity[static_cast<std::size_t>(other)]
                [static_cast<std::size_t>(best)] += p->cost();
      }
    }

    // Destinations restore their slices concurrently, each bounded by
    // its own ingest bandwidth (megabits/s = 125 bytes/ms): the rebuild
    // finishes when the most-loaded one does.
    double max_assigned = 0.0;
    for (int k = 0; k < instance.num_nodes(); ++k) {
      if (rebuild_bytes[static_cast<std::size_t>(k)] <= 0.0) continue;
      ++result.rebuild_destinations;
      max_assigned =
          std::max(max_assigned, rebuild_bytes[static_cast<std::size_t>(k)]);
    }
    result.rebuild_makespan_ms = max_assigned / (config_.rebuild_mbps * 125.0);
  }

  // Optional second phase: spend what is left of the budget improving
  // the survivor placement (the greedy landings above restore coverage,
  // not optimality). Dead nodes get zero capacity so the fresh target
  // avoids them; objects still parked on dead nodes are pinned in place
  // (they are unserved either way and must not consume survivor budget).
  if (config_.reoptimize_survivors && budget > 1e-9) {
    // A dead node's capacity is exactly the bytes still parked on it, so
    // the pinned (unrecovered) objects fit and nothing else can land
    // there — keeps the LP feasible while excluding dead nodes.
    std::vector<double> caps(instance.node_capacities());
    std::vector<double> parked(caps.size(), 0.0);
    for (int i = 0; i < instance.num_objects(); ++i)
      if (!alive[static_cast<std::size_t>(result.placement[i])])
        parked[static_cast<std::size_t>(result.placement[i])] +=
            instance.object_size(i);
    for (int k = 0; k < instance.num_nodes(); ++k)
      if (!alive[static_cast<std::size_t>(k)])
        caps[static_cast<std::size_t>(k)] = parked[static_cast<std::size_t>(k)];
    CcaInstance survivor(instance.object_sizes(), std::move(caps),
                         instance.pairs());
    for (int i = 0; i < instance.num_objects(); ++i)
      if (!alive[static_cast<std::size_t>(result.placement[i])])
        survivor.pin(i, result.placement[i]);
    IncrementalConfig inc;
    inc.migration_budget_fraction =
        budget / std::max(instance.total_object_size(), 1e-12);
    inc.rounding = config_.rounding;
    inc.seed = config_.seed;
    // Shared across failure events: a node loss shifts capacities/pins
    // (an rhs perturbation of the same LP shape), so a cached basis that
    // stays primal feasible lets the re-solve skip phase 1.
    inc.warm_cache = &lp_warm_cache_;
    const IncrementalResult rebalanced =
        IncrementalOptimizer(inc).reoptimize(survivor, result.placement);
    result.placement = rebalanced.placement;
  }

  result.migration = migration_between(instance, current, result.placement);
  result.coverage_restored =
      result.weight_lost > 0.0
          ? result.weight_recovered / result.weight_lost
          : 1.0;
  result.cost = instance.communication_cost(result.placement);

  if (common::metrics_enabled()) {
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& plans = reg.counter("core.recovery.plans");
    static common::Counter& lost_count =
        reg.counter("core.recovery.objects_lost");
    static common::Counter& recovered_count =
        reg.counter("core.recovery.objects_recovered");
    static common::Counter& moved_bytes =
        reg.counter("core.recovery.bytes_moved");
    static common::Histogram& restored_pct =
        reg.histogram("core.recovery.coverage_restored_pct");
    plans.add();
    lost_count.add(static_cast<std::int64_t>(result.objects_lost));
    recovered_count.add(static_cast<std::int64_t>(result.objects_recovered));
    moved_bytes.add(static_cast<std::int64_t>(result.migration.bytes_moved));
    restored_pct.observe(
        static_cast<std::uint64_t>(100.0 * result.coverage_restored));
  }
  return result;
}

}  // namespace cca::core
