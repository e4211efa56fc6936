// Ablation G — Bloom-assisted intersection (companion work [13]).
//
// Bloom filters attack the same communication the placement attacks, from
// the protocol side: a separated pair exchanges a filter + candidates
// instead of a whole posting list. This harness replays the trace with
// and without Bloom assistance under every placement strategy, measuring
// (a) how much the protocol saves on its own and (b) how much placement
// still matters once the protocol is smarter — the two techniques
// overlap, so LPRR's relative advantage narrows under Bloom.
//
//   ./bench_ablation_bloom [--nodes=10] [--scope=1000] [testbed flags]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 1000));
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Ablation G — Bloom-assisted intersection vs placement");

  const core::PartialOptimizerConfig opt_cfg = tb.optimizer_config(nodes,
                                                                   scope);
  const core::PartialOptimizer optimizer(tb.january, tb.sizes, opt_cfg);
  const double capacity =
      opt_cfg.capacity_slack * tb.total_index_bytes / nodes;

  common::Table table({"strategy", "classic KiB", "bloom KiB",
                       "bloom saving", "bloom msgs/query"});
  std::uint64_t random_classic = 0, random_bloom = 0, lprr_classic = 0,
                lprr_bloom = 0;
  for (const std::string_view strategy :
       {"random-hash", "greedy",
        "multilevel", "lprr"}) {
    const core::PlacementPlan plan = optimizer.run(strategy);
    const auto map = tb.build_map(plan.keyword_to_node, nodes);
    sim::Cluster classic_cluster(nodes, capacity);
    classic_cluster.install_placement(map, tb.sizes);
    const sim::ReplayStats classic = sim::replay_trace(
        classic_cluster, tb.index, tb.february,
        sim::OperationKind::kIntersection);
    sim::Cluster bloom_cluster(nodes, capacity);
    bloom_cluster.install_placement(map, tb.sizes);
    const sim::ReplayStats bloom = sim::replay_trace(
        bloom_cluster, tb.index, tb.february,
        sim::OperationKind::kIntersectionBloom);

    if (strategy == "random-hash") {
      random_classic = classic.total_bytes;
      random_bloom = bloom.total_bytes;
    }
    if (strategy == "lprr") {
      lprr_classic = classic.total_bytes;
      lprr_bloom = bloom.total_bytes;
    }
    table.add_row(
        {std::string(strategy),
         common::Table::num(static_cast<double>(classic.total_bytes) / 1024,
                            1),
         common::Table::num(static_cast<double>(bloom.total_bytes) / 1024, 1),
         common::Table::pct(1.0 - static_cast<double>(bloom.total_bytes) /
                                      static_cast<double>(classic.total_bytes)),
         common::Table::num(static_cast<double>(bloom.total_messages) /
                                static_cast<double>(bloom.queries),
                            2)});
  }
  table.print(std::cout);

  std::cout << "\nLPRR saving vs random: "
            << common::Table::pct(1.0 - static_cast<double>(lprr_classic) /
                                            static_cast<double>(
                                                random_classic))
            << " with classic intersection, "
            << common::Table::pct(1.0 - static_cast<double>(lprr_bloom) /
                                            static_cast<double>(random_bloom))
            << " with Bloom assistance\n"
            << "(the protocol and the placement attack the same bytes;"
               " combining both still wins overall)\n";
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
