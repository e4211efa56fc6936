// Ablation D — additional node capacity constraints (Sec. 3.3).
//
// The paper sketches bandwidth/CPU constraints as extra LP rows and leaves
// quantification to future work; this harness does the experiment. Each
// keyword gets a bandwidth demand of (query frequency x index size) — the
// bytes it would serve per trace replay — and nodes get a bandwidth budget
// of `slack` x the average demand. We compare LPRR placements with and
// without the bandwidth rows on modeled communication and on the realized
// per-node bandwidth imbalance.
//
//   ./bench_ablation_multiresource [--scope=800] [--nodes=10] [testbed flags]
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/component_solver.hpp"
#include "core/rounding.hpp"
#include "testbed.hpp"

using namespace cca;

namespace {

/// Realized max/mean of per-node demand under a placement.
double demand_imbalance(const std::vector<double>& demands,
                        const core::Placement& placement, int nodes) {
  std::vector<double> loads(static_cast<std::size_t>(nodes), 0.0);
  for (std::size_t i = 0; i < placement.size(); ++i)
    loads[placement[i]] += demands[i];
  double total = 0.0, peak = 0.0;
  for (double v : loads) {
    total += v;
    peak = std::max(peak, v);
  }
  return total > 0.0 ? peak / (total / static_cast<double>(nodes)) : 0.0;
}

}  // namespace

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 800));
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Ablation D — bandwidth as a second capacity dimension");

  core::PartialOptimizerConfig opt_cfg;
  opt_cfg.num_nodes = nodes;
  opt_cfg.scope = scope;
  opt_cfg.seed = cfg.seed;
  const core::PartialOptimizer optimizer(tb.january, tb.sizes, opt_cfg);
  const core::PlacementPlan plan = optimizer.run("lprr");

  // Bandwidth demand per scoped keyword: query frequency x index bytes.
  const std::vector<std::size_t> freq = tb.january.keyword_frequencies();
  std::vector<double> demands(plan.scope.size());
  double total_demand = 0.0;
  for (std::size_t pos = 0; pos < plan.scope.size(); ++pos) {
    const trace::KeywordId kw = plan.scope[pos];
    demands[pos] = static_cast<double>(freq[kw]) *
                   static_cast<double>(tb.sizes[kw]);
    total_demand += demands[pos];
  }

  common::Table table({"bw slack", "rounded cost", "bw imbalance",
                       "storage load factor", "feasible"});
  for (const double slack : {0.0, 3.0, 2.0, 1.5, 1.25}) {
    core::CcaInstance instance = optimizer.scoped_instance();  // copy
    if (slack > 0.0) {
      instance.add_resource(core::Resource{
          "bandwidth", demands,
          std::vector<double>(static_cast<std::size_t>(nodes),
                              slack * total_demand /
                                  static_cast<double>(nodes))});
    }
    const std::string label =
        slack > 0.0 ? common::Table::num(slack, 2) : std::string("(off)");
    try {
      const core::FractionalPlacement x =
          core::ComponentLpSolver(cfg.seed).solve(instance);
      common::Rng rng(cfg.seed + 17);
      const core::RoundingResult result = core::round_best_of(
          x, instance, core::RoundingPolicy{16, true}, rng);
      table.add_row({label, common::Table::num(result.cost, 1),
                     common::Table::num(
                         demand_imbalance(demands, result.placement, nodes), 2),
                     common::Table::num(result.max_load_factor, 2),
                     result.feasible ? "yes" : "no"});
    } catch (const common::Error&) {
      // Documented limitation: when the contracted program cannot satisfy
      // the bandwidth rows, the full Fig. 4 LP would be required.
      table.add_row({label, "(contracted program infeasible)", "-", "-", "-"});
    }
  }
  table.print(std::cout);
  std::cout << "\n(bw imbalance = max node bandwidth demand / mean; tighter"
               " slack spreads hot keywords at the price of more"
               " communication)\n";
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
