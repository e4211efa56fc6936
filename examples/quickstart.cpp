// Quickstart: the CCA workflow on a hand-sized instance.
//
// Builds a 8-object / 3-node instance with skewed pair correlations,
// solves the Fig. 4 LP relaxation, rounds it with Algorithm 2.1, and
// compares against random-hash, greedy, and the exact brute-force optimum.
//
//   ./quickstart [--seed=N] [--trials=K]
#include <iostream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/component_solver.hpp"
#include "core/instance.hpp"
#include "core/placements.hpp"
#include "core/rounding.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const int trials = static_cast<int>(args.get_int("trials", 16));
  args.reject_unused();

  // Objects: two tightly correlated clusters {0,1,2} and {3,4}, a loose
  // pair {5,6}, and a loner {7}. Sizes in "MB"; three nodes with capacity
  // twice the average load (the paper's rule).
  const std::vector<double> sizes{40, 30, 20, 50, 35, 25, 25, 60};
  double total = 0.0;
  for (double s : sizes) total += s;
  const std::vector<double> capacities(3, 2.0 * total / 3.0);
  const std::vector<core::PairWeight> pairs{
      {0, 1, 0.30, 30.0}, {0, 2, 0.25, 20.0}, {1, 2, 0.20, 20.0},
      {3, 4, 0.40, 35.0}, {5, 6, 0.05, 25.0}, {2, 3, 0.01, 20.0},
  };
  const core::CcaInstance instance(sizes, capacities, pairs);

  std::cout << "CCA quickstart: " << instance.num_objects() << " objects, "
            << instance.num_nodes() << " nodes, " << instance.pairs().size()
            << " correlated pairs\n"
            << "total pair cost if everything were separated: "
            << instance.total_pair_cost() << "\n\n";

  // 1) LPRR: exact LP relaxation (component solver), then best-of-K
  //    randomized rounding.
  const core::FractionalPlacement fractional =
      core::ComponentLpSolver(seed).solve(instance);
  std::cout << "LP relaxation objective: " << fractional.lp_objective(instance)
            << " (the relaxation is degenerate for pin-free instances —"
               " see DESIGN.md)\n\n";
  common::Rng rng(seed);
  const core::RoundingResult lprr = core::round_best_of(
      fractional, instance, core::RoundingPolicy{trials, true}, rng);

  // 2) Baselines.
  const core::Placement random = core::random_hash_placement(instance);
  const core::Placement greedy = core::greedy_placement(instance);
  const auto exact = core::brute_force_optimal(instance);

  common::Table table(
      {"strategy", "comm cost", "normalized", "max load factor", "feasible"});
  const auto add = [&](const std::string& name, const core::Placement& p) {
    const core::PlacementReport r = core::evaluate_placement(instance, p);
    table.add_row({name, common::Table::num(r.cost, 3),
                   common::Table::pct(r.normalized_cost),
                   common::Table::num(r.max_load_factor, 2),
                   r.feasible ? "yes" : "no"});
  };
  add("random-hash", random);
  add("greedy", greedy);
  add("lprr (best of " + std::to_string(trials) + ")", lprr.placement);
  if (exact) add("brute-force optimal", exact->placement);
  table.print(std::cout);

  std::cout << "\nLPRR placement:";
  for (int i = 0; i < instance.num_objects(); ++i)
    std::cout << " obj" << i << "->node" << lprr.placement[i];
  std::cout << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
