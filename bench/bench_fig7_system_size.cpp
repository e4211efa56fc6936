// Figure 7 reproduction: communication cost (normalized to random hash
// placement) vs system size, at a fixed optimization scope.
//
// Paper reference points: LPRR saves 73-86% across 10-100 nodes, with
// savings peaking around 40-50 nodes and shrinking at larger sizes;
// greedy only helps while per-node capacity is large (few nodes).
//
//   ./bench_fig7_system_size [--scope=1500] [--max-nodes=100]
//                            [--node-step=10] [--seeds=3] [--threads=N]
//                            [--json=path] [testbed flags]
//
// With --seeds=K each row averages K independent testbeds; the +- column
// is the 95% CI half-width on the LPRR normalized cost.
//
// The (seed x nodes) grid cells are independent and evaluate concurrently;
// accumulation happens in fixed seed order after the join, so output is
// identical for any --threads.
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 1500));
  const int max_nodes = static_cast<int>(args.get_int("max-nodes", 100));
  const int node_step = static_cast<int>(args.get_int("node-step", 10));
  const int seeds = cfg.seeds;
  args.reject_unused();

  std::cout << "Figure 7 — communication vs system size\n"
            << "optimization scope: top " << scope << " keywords; averaging "
            << seeds << " seeds\n\n";

  std::vector<int> node_counts;
  for (int nodes = node_step; nodes <= max_nodes; nodes += node_step)
    node_counts.push_back(nodes);

  // Phase 1 — one testbed per seed, concurrently (unique_ptr because
  // Testbed is not default-constructible, which parallel_map's
  // index-ordered result vector requires).
  const auto testbeds = common::parallel_map(
      static_cast<std::size_t>(seeds), [&](std::size_t s) {
        return std::make_unique<bench::Testbed>(
            bench::Testbed::build(cfg.with_seed_offset(s)));
      });
  testbeds[0]->print_banner("(first testbed)");

  // Phase 2 — every (seed, node-count) cell measures its three
  // strategies. The random baseline depends on the node count, so it is
  // part of the cell.
  struct Cell {
    bench::CellResult random, greedy, lprr;
  };
  const auto cells = common::parallel_map(
      static_cast<std::size_t>(seeds) * node_counts.size(),
      [&](std::size_t i) {
        const bench::Testbed& tb = *testbeds[i / node_counts.size()];
        const int nodes = node_counts[i % node_counts.size()];
        return Cell{tb.measure_cell("random-hash", nodes, 1),
                    tb.measure_cell("greedy", nodes, scope),
                    tb.measure_cell("lprr", nodes, scope)};
      });

  std::vector<common::RunningStats> random_kib(node_counts.size()),
      greedy_norm(node_counts.size()), lprr_norm(node_counts.size()),
      lprr_imbalance(node_counts.size());
  bench::JsonLog json(cfg.json_path);
  for (int s = 0; s < seeds; ++s) {
    const bench::TestbedConfig seeded =
        cfg.with_seed_offset(static_cast<std::uint64_t>(s));
    for (std::size_t i = 0; i < node_counts.size(); ++i) {
      const Cell& cell =
          cells[static_cast<std::size_t>(s) * node_counts.size() + i];
      const double random_bytes =
          static_cast<double>(cell.random.stats.total_bytes);
      random_kib[i].add(random_bytes / 1024);
      greedy_norm[i].add(
          static_cast<double>(cell.greedy.stats.total_bytes) / random_bytes);
      lprr_norm[i].add(
          static_cast<double>(cell.lprr.stats.total_bytes) / random_bytes);
      lprr_imbalance[i].add(cell.lprr.stats.storage_imbalance);
      json.add(seeded, "random-hash", node_counts[i], 1, cell.random);
      json.add(seeded, "greedy", node_counts[i], scope, cell.greedy);
      json.add(seeded, "lprr", node_counts[i], scope, cell.lprr);
    }
  }

  common::Table table({"nodes", "random KiB", "greedy norm. cost",
                       "lprr norm. cost", "+-", "lprr saving",
                       "lprr storage imbalance"});
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    table.add_row({std::to_string(node_counts[i]),
                   common::Table::num(random_kib[i].mean(), 0),
                   common::Table::num(greedy_norm[i].mean(), 3),
                   common::Table::num(lprr_norm[i].mean(), 3),
                   common::Table::num(lprr_norm[i].ci95_halfwidth(), 3),
                   common::Table::pct(1.0 - lprr_norm[i].mean()),
                   common::Table::num(lprr_imbalance[i].mean(), 2)});
  }
  bench::print_table(table, cfg);
  std::cout << "\n(normalized to random hash at the same node count;"
               " paper Fig. 7: LPRR 73-86% savings, greedy fading as nodes"
               " grow)\n";
  json.write();
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
