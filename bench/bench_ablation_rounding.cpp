// Ablation A — repeated randomized rounding (Sec. 2.3: "repeat the
// randomized rounding several times and pick the best solution").
//
// Sweeps the number of rounding trials K and the prefer-feasible policy,
// reporting the chosen solution's modeled cost and realized load factor
// (mean over independent seeds). Shows what K buys: with the degenerate
// zero-objective relaxation the modeled cost is flat at 0, so the entire
// benefit of repetition is in realized load balance.
//
//   ./bench_ablation_rounding [--scope=800] [--nodes=10] [--repeats=10]
//                             [testbed flags]
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/component_solver.hpp"
#include "core/rounding.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 800));
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const int repeats = static_cast<int>(args.get_int("repeats", 10));
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Ablation A — best-of-K randomized rounding");

  // Build the scoped instance once via the optimizer's machinery.
  core::PartialOptimizerConfig opt_cfg;
  opt_cfg.num_nodes = nodes;
  opt_cfg.scope = scope;
  opt_cfg.seed = cfg.seed;
  const core::PartialOptimizer optimizer(tb.january, tb.sizes, opt_cfg);
  const core::CcaInstance& instance = optimizer.scoped_instance();
  std::cout << "scoped instance: " << instance.num_objects() << " objects, "
            << instance.pairs().size() << " pairs, total pair cost "
            << common::Table::num(instance.total_pair_cost(), 1) << "\n\n";

  common::Table table({"solver", "trials K", "policy", "mean cost",
                       "mean max-load", "feasible roundings"});
  // Two fractional inputs: the literal LP optimum (whole components,
  // objective 0, collapses) and the capacity-split groups the pipeline
  // uses by default.
  for (const double fill : {0.0, 1.0}) {
    const core::FractionalPlacement fractional =
        core::ComponentLpSolver(core::ComponentSolverOptions{cfg.seed, fill})
            .solve(instance);
    const std::string solver = fill > 0.0 ? "split-groups" : "literal-LP";
    for (const bool prefer_feasible : {false, true}) {
      for (const int trials : {1, 4, 16, 64}) {
        common::RunningStats cost, load;
        int feasible = 0;
        for (int rep = 0; rep < repeats; ++rep) {
          common::Rng rng(cfg.seed * 1000 + static_cast<std::uint64_t>(rep));
          const core::RoundingResult result = core::round_best_of(
              fractional, instance,
              core::RoundingPolicy{trials, prefer_feasible}, rng);
          cost.add(result.cost);
          load.add(result.max_load_factor);
          if (result.feasible) ++feasible;
        }
        table.add_row({solver, std::to_string(trials),
                       prefer_feasible ? "prefer-feasible" : "cost-only",
                       common::Table::num(cost.mean(), 1),
                       common::Table::num(load.mean(), 3),
                       std::to_string(feasible) + "/" +
                           std::to_string(repeats)});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\n(cost is the modeled objective (1) on the scoped"
               " instance; max-load is realized load / capacity. The"
               " literal LP optimum always rounds to cost 0 but collapses"
               " whole components onto single nodes; the split-group input"
               " pays cut cost to keep realized loads near capacity.)\n";
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
