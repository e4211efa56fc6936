// Figure 6 reproduction: communication cost (normalized to random hash
// placement) vs optimization scope, at a fixed system size of 10 nodes.
//
// Paper reference points: with the top-10000 keywords optimized, LPRR
// saves ~78% vs random and greedy up to ~44%; savings grow with scope and
// LPRR dominates greedy throughout. Our sweep keeps the paper's
// scope-to-vocabulary regime at reproduction scale (see EXPERIMENTS.md).
//
//   ./bench_fig6_scope_sweep [--nodes=10] [--min-scope=25]
//                            [--max-scope=3200] [--seeds=3] [--threads=N]
//                            [--json=path] [testbed flags]
//
// With --seeds=K each row averages K independent testbeds (corpus, trace,
// and optimizer seeds all vary); the +- column is the 95% CI half-width.
//
// The sweep is geometric (each step doubles the scope): the paper's
// linear 1000..10000 range spans cost coverages of roughly 20%..60% on
// its 253k-keyword vocabulary, and on our scaled-down testbed the same
// coverage span lives at much smaller scopes (see bench_fig5_importance).
//
// The (seed x scope) grid cells are independent and evaluate concurrently;
// per-seed normalized costs accumulate into the row statistics in fixed
// seed order after the join, so output is identical for any --threads.
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const auto min_scope =
      static_cast<std::size_t>(args.get_int("min-scope", 25));
  const auto max_scope =
      static_cast<std::size_t>(args.get_int("max-scope", 3200));
  const int seeds = cfg.seeds;
  args.reject_unused();

  std::cout << "Figure 6 — communication vs optimization scope\n"
            << "system size: " << nodes << " nodes; capacity = 2x average"
            << " load (paper's rule); averaging " << seeds << " seeds\n\n";

  std::vector<std::size_t> scopes;
  for (std::size_t scope = min_scope; scope <= max_scope; scope *= 2)
    scopes.push_back(scope);

  // Phase 1 — one testbed + random-hash baseline per seed, concurrently.
  // (unique_ptr because Testbed is not default-constructible, which
  // parallel_map's index-ordered result vector requires.)
  struct SeedBase {
    bench::Testbed tb;
    bench::CellResult random;
  };
  const auto bases = common::parallel_map(
      static_cast<std::size_t>(seeds), [&](std::size_t s) {
        const bench::TestbedConfig seeded = cfg.with_seed_offset(s);
        auto base = std::make_unique<SeedBase>(
            SeedBase{bench::Testbed::build(seeded), {}});
        // Random hash ignores the scope: one normalization base per seed.
        base->random = base->tb.measure_cell("random-hash", nodes, 1);
        return base;
      });
  bases[0]->tb.print_banner("(first testbed)");

  // Phase 2 — every (seed, scope) cell runs the three optimizing
  // strategies; cells are independent and run concurrently.
  struct Cell {
    bench::CellResult greedy, multilevel, lprr;
  };
  const auto cells = common::parallel_map(
      static_cast<std::size_t>(seeds) * scopes.size(), [&](std::size_t i) {
        const bench::Testbed& tb = bases[i / scopes.size()]->tb;
        const std::size_t scope = scopes[i % scopes.size()];
        return Cell{tb.measure_cell("greedy", nodes, scope),
                    tb.measure_cell("multilevel", nodes, scope),
                    tb.measure_cell("lprr", nodes, scope)};
      });

  // Reduction in fixed seed-major order: the accumulated doubles see the
  // same addition order as a sequential sweep.
  std::vector<common::RunningStats> greedy_norm(scopes.size()),
      multilevel_norm(scopes.size()), lprr_norm(scopes.size()),
      lprr_imbalance(scopes.size());
  bench::JsonLog json(cfg.json_path);
  for (int s = 0; s < seeds; ++s) {
    const SeedBase& base = *bases[s];
    const bench::TestbedConfig seeded =
        cfg.with_seed_offset(static_cast<std::uint64_t>(s));
    json.add(seeded, "random-hash", nodes, 1, base.random);
    for (std::size_t i = 0; i < scopes.size(); ++i) {
      const Cell& cell = cells[static_cast<std::size_t>(s) * scopes.size() + i];
      const auto norm = [&](const sim::ReplayStats& stats) {
        return static_cast<double>(stats.total_bytes) /
               static_cast<double>(base.random.stats.total_bytes);
      };
      greedy_norm[i].add(norm(cell.greedy.stats));
      multilevel_norm[i].add(norm(cell.multilevel.stats));
      lprr_norm[i].add(norm(cell.lprr.stats));
      lprr_imbalance[i].add(cell.lprr.stats.storage_imbalance);
      json.add(seeded, "greedy", nodes, scopes[i], cell.greedy);
      json.add(seeded, "multilevel", nodes, scopes[i], cell.multilevel);
      json.add(seeded, "lprr", nodes, scopes[i], cell.lprr);
    }
  }

  common::Table table({"scope (top keywords)", "greedy norm. cost",
                       "multilevel norm. cost", "lprr norm. cost", "+-",
                       "lprr saving", "lprr storage imbalance"});
  for (std::size_t i = 0; i < scopes.size(); ++i) {
    table.add_row({std::to_string(scopes[i]),
                   common::Table::num(greedy_norm[i].mean(), 3),
                   common::Table::num(multilevel_norm[i].mean(), 3),
                   common::Table::num(lprr_norm[i].mean(), 3),
                   common::Table::num(lprr_norm[i].ci95_halfwidth(), 3),
                   common::Table::pct(1.0 - lprr_norm[i].mean()),
                   common::Table::num(lprr_imbalance[i].mean(), 2)});
  }
  bench::print_table(table, cfg);
  std::cout << "\n(normalized to random hash = 1.0; paper Fig. 6 shows the"
               " same monotone-improving curves with LPRR below greedy;"
               " multilevel partitioning is our added modern comparator)\n";
  json.write();
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
