// Headline-numbers reproduction: the paper's abstract claims 37-86%
// communication reduction vs random hash placement and 30-78% vs the
// greedy heuristic "on a range of optimization scopes and system sizes".
// This harness sweeps the same grid (scopes x node counts) and reports
// the min/max savings bands.
//
// The grid cells are independent (each owns its optimizer, cluster, and
// RNG), so they evaluate concurrently on the common::parallel pool; rows
// print in deterministic grid order and the table is bit-identical for
// any --threads value.
//
//   ./bench_headline_summary [--threads=N] [--json=path] [testbed flags]
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Headline summary — savings bands across the grid");

  const std::vector<std::size_t> scopes{250, 500, 1000, 2000};
  const std::vector<int> node_counts{10, 20, 50, 100};
  const std::vector<std::string> strategies{
      "random-hash", "greedy",
      "multilevel", "lprr"};

  // One task per (scope, nodes, strategy) for load balance; results land
  // in a strategy-major-indexed vector, so assembly below is in fixed
  // grid order regardless of completion order.
  const std::size_t grid = scopes.size() * node_counts.size();
  const auto cells =
      common::parallel_map(grid * strategies.size(), [&](std::size_t i) {
        const std::size_t cell = i / strategies.size();
        const std::string_view strategy = strategies[i % strategies.size()];
        const std::size_t scope_for_strategy =
            strategy == "random-hash"
                ? 1  // random hash ignores the scope
                : scopes[cell / node_counts.size()];
        const int nodes = node_counts[cell % node_counts.size()];
        return tb.measure_cell(strategy, nodes, scope_for_strategy);
      });
  const auto cell_of = [&](std::size_t scope_idx, std::size_t node_idx,
                           std::size_t strategy_idx) -> const bench::CellResult& {
    return cells[(scope_idx * node_counts.size() + node_idx) *
                     strategies.size() +
                 strategy_idx];
  };

  common::Table table({"scope", "nodes", "lprr vs random", "lprr vs greedy",
                       "lprr vs multilevel"});
  bench::JsonLog json(cfg.json_path);
  double min_vs_random = 1.0, max_vs_random = 0.0;
  double min_vs_greedy = 1.0, max_vs_greedy = 0.0;

  for (std::size_t si = 0; si < scopes.size(); ++si) {
    const std::size_t scope = scopes[si];
    for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
      const int nodes = node_counts[ni];
      const bench::CellResult& random = cell_of(si, ni, 0);
      const bench::CellResult& greedy = cell_of(si, ni, 1);
      const bench::CellResult& multilevel = cell_of(si, ni, 2);
      const bench::CellResult& lprr = cell_of(si, ni, 3);
      json.add(cfg, "random-hash", nodes, scope, random);
      json.add(cfg, "greedy", nodes, scope, greedy);
      json.add(cfg, "multilevel", nodes, scope, multilevel);
      json.add(cfg, "lprr", nodes, scope, lprr);
      const double vs_random =
          1.0 - static_cast<double>(lprr.stats.total_bytes) /
                    static_cast<double>(random.stats.total_bytes);
      const double vs_greedy =
          1.0 - static_cast<double>(lprr.stats.total_bytes) /
                    static_cast<double>(greedy.stats.total_bytes);
      min_vs_random = std::min(min_vs_random, vs_random);
      max_vs_random = std::max(max_vs_random, vs_random);
      min_vs_greedy = std::min(min_vs_greedy, vs_greedy);
      max_vs_greedy = std::max(max_vs_greedy, vs_greedy);
      const double vs_multilevel =
          1.0 - static_cast<double>(lprr.stats.total_bytes) /
                    static_cast<double>(multilevel.stats.total_bytes);
      table.add_row({std::to_string(scope), std::to_string(nodes),
                     common::Table::pct(vs_random),
                     common::Table::pct(vs_greedy),
                     common::Table::pct(vs_multilevel)});
    }
  }
  bench::print_table(table, cfg);
  std::cout << "\nLPRR saving vs random hash: "
            << common::Table::pct(min_vs_random) << " – "
            << common::Table::pct(max_vs_random)
            << "   (paper: 37% – 86%)\n"
            << "LPRR saving vs greedy:      "
            << common::Table::pct(min_vs_greedy) << " – "
            << common::Table::pct(max_vs_greedy)
            << "   (paper: 30% – 78%)\n";
  json.write();
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
