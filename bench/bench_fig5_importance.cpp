// Figure 5 reproduction: dominance of the most important keywords in
// cumulative index size and cumulative inter-keyword communication cost.
//
// The paper shows that a small keyword prefix (by importance rank) covers
// most of the communication cost and a large share of total index bytes —
// the justification for important-object partial optimization (Sec. 4.2).
//
//   ./bench_fig5_importance [--vocab=N] [--docs=N] [--queries=N] [--seed=N]
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/correlation.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Figure 5 — dominance of important keywords");

  // The figure is drawn from exact counts. The testbed already mined
  // them when its miner is the exact one; a sketch testbed mines again.
  std::shared_ptr<const core::CorrelationArtifacts> exact =
      tb.january_artifacts;
  if (cfg.miner.kind != core::MinerOptions::Kind::kExact)
    exact = core::CorrelationArtifacts::of(
        tb.january, tb.sizes, core::OperationModel::kSmallestPair,
        core::MinerOptions{});
  const auto& pairs = exact->pairs();
  const auto& ranking = exact->ranking();
  const auto curve = core::dominance_curve(ranking, pairs, tb.sizes, 20);

  common::Table table({"top keywords", "share of vocab",
                       "cumulative comm cost", "cumulative index size"});
  for (const core::DominancePoint& pt : curve) {
    table.add_row(
        {std::to_string(pt.rank),
         common::Table::pct(static_cast<double>(pt.rank) /
                            static_cast<double>(ranking.size())),
         common::Table::pct(pt.cumulative_cost_fraction),
         common::Table::pct(pt.cumulative_size_fraction)});
  }
  bench::print_table(table, cfg);

  // Paper's qualitative claim: a small prefix covers most of the cost.
  for (const core::DominancePoint& pt : curve) {
    if (pt.rank * 10 >= ranking.size()) {  // first point at >= 10% of vocab
      std::cout << "\nat " << pt.rank << " keywords ("
                << common::Table::pct(static_cast<double>(pt.rank) /
                                      static_cast<double>(ranking.size()))
                << " of vocabulary): "
                << common::Table::pct(pt.cumulative_cost_fraction)
                << " of communication cost, "
                << common::Table::pct(pt.cumulative_size_fraction)
                << " of index bytes\n";
      break;
    }
  }
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
