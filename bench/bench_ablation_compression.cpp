// Ablation E — index-size model: raw 8-byte postings (the paper's
// prototype) vs delta-varint compression over dense ordinals (production
// practice).
//
// Compression changes s(i), w(i,j), and the shipped bytes themselves, so
// it can change both the placement and the measured savings. This harness
// runs the full pipeline under each size model (optimizer input AND
// replay accounting use the same model) and reports compression ratio,
// scope overlap between the two importance rankings, and the savings of
// each strategy under each model.
//
//   ./bench_ablation_compression [--nodes=10] [--scope=1000] [testbed flags]
#include <algorithm>
#include <iostream>
#include <set>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "search/compression.hpp"
#include "testbed.hpp"

using namespace cca;

namespace {

struct ModelRun {
  std::string name;
  std::vector<std::uint64_t> sizes;
};

}  // namespace

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 1000));
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Ablation E — raw vs compressed index-size model");

  const std::vector<std::uint64_t> compressed =
      search::compressed_index_sizes(tb.index);
  std::uint64_t raw_total = 0, compressed_total = 0;
  for (std::size_t k = 0; k < tb.sizes.size(); ++k) {
    raw_total += tb.sizes[k];
    compressed_total += compressed[k];
  }
  std::cout << "compression: " << raw_total / 1024 << " KiB raw -> "
            << compressed_total / 1024 << " KiB ("
            << common::Table::num(
                   static_cast<double>(raw_total) /
                       static_cast<double>(std::max<std::uint64_t>(
                           compressed_total, 1)),
                   2)
            << "x)\n\n";

  const std::vector<ModelRun> models = {{"raw-8B", tb.sizes},
                                        {"varint-delta", compressed}};

  common::Table table({"size model", "strategy", "KiB moved", "norm. cost",
                       "storage imbalance"});
  std::vector<std::set<trace::KeywordId>> scopes;
  for (const ModelRun& model : models) {
    const core::PartialOptimizerConfig opt_cfg =
        tb.optimizer_config(nodes, scope);
    const core::PartialOptimizer optimizer(tb.january, model.sizes, opt_cfg);

    double total_bytes = 0.0;
    for (std::uint64_t s : model.sizes)
      total_bytes += static_cast<double>(s);

    std::uint64_t random_bytes = 0;
    for (const std::string_view strategy :
         {"random-hash", "greedy",
          "lprr"}) {
      const core::PlacementPlan plan = optimizer.run(strategy);
      if (strategy == "lprr")
        scopes.emplace_back(plan.scope.begin(), plan.scope.end());
      sim::Cluster cluster(nodes,
                           opt_cfg.capacity_slack * total_bytes / nodes);
      cluster.install_placement(tb.build_map(plan.keyword_to_node, nodes),
                                model.sizes);
      const sim::ReplayStats stats =
          sim::replay_trace(cluster, tb.index, tb.february,
                            sim::OperationKind::kIntersection, model.sizes);
      if (strategy == "random-hash")
        random_bytes = stats.total_bytes;
      table.add_row(
          {model.name, std::string(strategy),
           common::Table::num(static_cast<double>(stats.total_bytes) / 1024,
                              1),
           common::Table::num(static_cast<double>(stats.total_bytes) /
                                  static_cast<double>(std::max<std::uint64_t>(
                                      random_bytes, 1)),
                              3),
           common::Table::num(stats.storage_imbalance, 2)});
    }
  }
  table.print(std::cout);

  if (scopes.size() == 2) {
    std::vector<trace::KeywordId> common_kw;
    std::set_intersection(scopes[0].begin(), scopes[0].end(),
                          scopes[1].begin(), scopes[1].end(),
                          std::back_inserter(common_kw));
    std::cout << "\nscope overlap between size models: " << common_kw.size()
              << "/" << scope << " keywords ("
              << common::Table::pct(static_cast<double>(common_kw.size()) /
                                    static_cast<double>(scope))
              << ")\n";
  }
  std::cout << "(normalized within each size model to its own random-hash"
               " baseline; compression shrinks w(i,j) asymmetrically — big"
               " lists compress better — which reshuffles the importance"
               " ranking's tail)\n";
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
