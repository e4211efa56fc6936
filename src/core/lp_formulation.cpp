#include "core/lp_formulation.hpp"

#include <string>

#include "common/check.hpp"
#include "lp/solver.hpp"

namespace cca::core {

LpFormulation::LpFormulation(const CcaInstance& instance)
    : instance_(&instance),
      num_nodes_(instance.num_nodes()),
      num_objects_(instance.num_objects()) {
  // x_{i,k} columns, laid out object-major so x_column() is arithmetic.
  // The upper bound is +inf rather than 1: sum_k x_ik = 1 with x >= 0
  // already implies x_ik <= 1, and omitting the bound keeps the canonical
  // form free of |T| * |N| extra rows.
  for (int i = 0; i < num_objects_; ++i)
    for (int k = 0; k < num_nodes_; ++k)
      model_.add_variable(0.0, lp::kInfinity, 0.0);

  // y_{i,j,k} columns carry cost r*w/2 each (the z-substitution).
  for (const PairWeight& p : instance.pairs()) {
    if (p.cost() <= 0.0) continue;
    for (int k = 0; k < num_nodes_; ++k) {
      const int y = model_.add_variable(0.0, lp::kInfinity, p.cost() * 0.5);
      // (6): y_ijk - x_ik + x_jk >= 0
      model_.add_constraint(lp::Relation::kGreaterEqual, 0.0,
                            {{y, 1.0},
                             {x_column(p.i, k), -1.0},
                             {x_column(p.j, k), 1.0}});
      // (7): y_ijk + x_ik - x_jk >= 0
      model_.add_constraint(lp::Relation::kGreaterEqual, 0.0,
                            {{y, 1.0},
                             {x_column(p.i, k), 1.0},
                             {x_column(p.j, k), -1.0}});
    }
  }

  // (5): each object fully placed.
  for (int i = 0; i < num_objects_; ++i) {
    std::vector<lp::Term> terms;
    terms.reserve(static_cast<std::size_t>(num_nodes_));
    for (int k = 0; k < num_nodes_; ++k) terms.push_back({x_column(i, k), 1.0});
    model_.add_constraint(lp::Relation::kEqual, 1.0, std::move(terms));
  }

  // (9): per-node capacity.
  for (int k = 0; k < num_nodes_; ++k) {
    std::vector<lp::Term> terms;
    terms.reserve(static_cast<std::size_t>(num_objects_));
    for (int i = 0; i < num_objects_; ++i) {
      if (instance.object_size(i) > 0.0)
        terms.push_back({x_column(i, k), instance.object_size(i)});
    }
    model_.add_constraint(lp::Relation::kLessEqual, instance.node_capacity(k),
                          std::move(terms));
  }

  // Extra resource dimensions (Sec. 3.3): same shape as (9), one row per
  // node per resource.
  for (const Resource& res : instance.resources()) {
    for (int k = 0; k < num_nodes_; ++k) {
      std::vector<lp::Term> terms;
      for (int i = 0; i < num_objects_; ++i) {
        if (res.demands[i] > 0.0)
          terms.push_back({x_column(i, k), res.demands[i]});
      }
      model_.add_constraint(lp::Relation::kLessEqual, res.capacities[k],
                            std::move(terms));
    }
  }

  // Pins: x_{i, pin(i)} = 1 (with (5) this zeroes the other nodes).
  for (int i = 0; i < num_objects_; ++i) {
    if (auto k = instance.pinned_node(i))
      model_.add_constraint(lp::Relation::kEqual, 1.0,
                            {{x_column(i, *k), 1.0}});
  }
}

LpSizeStats LpFormulation::stats() const {
  return LpSizeStats{model_.num_variables(), model_.num_constraints(),
                     static_cast<long>(model_.num_nonzeros())};
}

FractionalPlacement LpFormulation::extract(
    const lp::Solution& solution) const {
  CCA_CHECK_MSG(solution.optimal(), "extracting from non-optimal solution");
  FractionalPlacement x(num_objects_, num_nodes_);
  for (int i = 0; i < num_objects_; ++i) {
    for (int k = 0; k < num_nodes_; ++k) {
      // Clamp solver round-off into [0, 1].
      double v = solution.x[x_column(i, k)];
      if (v < 0.0) v = 0.0;
      if (v > 1.0) v = 1.0;
      x.set(i, k, v);
    }
  }
  return x;
}

FractionalPlacement solve_cca_lp(const CcaInstance& instance,
                                 lp::SolverOptions options,
                                 lp::WarmStartCache* warm_cache) {
  const LpFormulation formulation(instance);
  const lp::Solution solution =
      lp::Solver(options).solve(formulation.model(), warm_cache).solution;
  CCA_CHECK_MSG(solution.optimal(),
                "CCA LP not solved to optimality: status "
                    << lp::to_string(solution.status));
  return formulation.extract(solution);
}

}  // namespace cca::core
