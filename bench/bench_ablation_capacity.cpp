// Ablation C — capacity-slack factor (Sec. 2.3 / Sec. 4.1).
//
// The paper fixes per-node capacity at 2x the average load and notes that
// "conservative capacities may be used" because the rounding only bounds
// *expected* loads. This sweep varies the slack factor and reports the
// measured communication / realized-balance trade-off for LPRR and greedy.
//
//   ./bench_ablation_capacity [--scope=1000] [--nodes=10] [testbed flags]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 1000));
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Ablation C — capacity slack factor");

  const sim::ReplayStats random = tb.measure("random-hash", nodes, 1);

  common::Table table({"slack", "strategy", "norm. cost", "saving",
                       "storage imbalance", "scoped max-load"});
  for (const double slack : {1.05, 1.25, 1.5, 2.0, 3.0}) {
    for (const std::string_view strategy :
         {"greedy", "lprr"}) {
      core::PlacementPlan plan;
      const sim::ReplayStats stats =
          tb.measure(strategy, nodes, scope, &plan, slack);
      const double norm = static_cast<double>(stats.total_bytes) /
                          static_cast<double>(random.total_bytes);
      table.add_row({common::Table::num(slack, 2), std::string(strategy),
                     common::Table::num(norm, 3),
                     common::Table::pct(1.0 - norm),
                     common::Table::num(stats.storage_imbalance, 2),
                     common::Table::num(plan.scoped_report.max_load_factor,
                                        2)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(smaller slack forces the optimizer to spread correlated"
               " groups: better balance, more communication — the paper's"
               " trade-off made quantitative)\n";
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
