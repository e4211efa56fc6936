// Distributed full-text search engine — the paper's motivating application.
//
// Generates a synthetic web corpus and a two-"month" query workload,
// builds inverted indices, optimizes keyword-index placement with each
// strategy on the January trace, then replays the February trace and
// reports measured communication, locality, and storage balance.
//
//   ./search_engine [--nodes=10] [--scope=500] [--docs=4000]
//                   [--vocab=2000] [--queries=30000] [--seed=1]
//                   [--strategies=random-hash,greedy,lprr]
//
// --strategies is resolved by name through core::StrategyRegistry; any
// strategy registered at startup can be compared without editing this
// example.
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placement_map.hpp"
#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 500));
  const auto docs = static_cast<std::size_t>(args.get_int("docs", 4000));
  const auto vocab = static_cast<std::size_t>(args.get_int("vocab", 2000));
  const auto queries =
      static_cast<std::size_t>(args.get_int("queries", 30000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::vector<std::string> strategies = core::parse_strategy_list(
      args.get_string("strategies", "random-hash,greedy,lprr"));
  args.reject_unused();

  std::cout << "Building corpus (" << docs << " pages, vocabulary " << vocab
            << ") and inverted indices...\n";
  trace::CorpusConfig corpus_cfg;
  corpus_cfg.num_documents = docs;
  corpus_cfg.vocabulary_size = vocab;
  corpus_cfg.mean_distinct_words = 80.0;
  corpus_cfg.seed = seed;
  const trace::Corpus corpus = trace::Corpus::generate(corpus_cfg);
  const search::InvertedIndex index = search::InvertedIndex::build(corpus);
  const std::vector<std::uint64_t> sizes = index.index_sizes();
  std::cout << "  total index size: " << index.total_bytes() / 1024
            << " KiB\n";

  trace::WorkloadConfig query_cfg;
  query_cfg.vocabulary_size = vocab;
  query_cfg.num_topics = vocab / 20;
  query_cfg.seed = seed;
  const trace::WorkloadModel model(query_cfg);
  const trace::QueryTrace january = model.generate(queries, seed * 11 + 1);
  const trace::QueryTrace february = model.generate(queries, seed * 13 + 2);
  std::cout << "  January trace: " << january.size()
            << " queries (mean length "
            << common::Table::num(january.mean_query_length(), 2)
            << "); optimizing placement on it\n"
            << "  February trace: " << february.size()
            << " queries; measuring on it\n\n";

  core::PartialOptimizerConfig cfg;
  cfg.num_nodes = nodes;
  cfg.scope = scope;
  cfg.seed = seed;
  cfg.rounding.trials = 16;
  const core::PartialOptimizer optimizer(january, sizes, cfg);

  double total_bytes = 0.0;
  for (std::uint64_t s : sizes) total_bytes += static_cast<double>(s);
  const double capacity = cfg.capacity_slack * total_bytes / nodes;

  common::Table table({"strategy", "KiB moved", "bytes/query", "local ops",
                       "p99 latency ms", "storage imbalance",
                       "lookup entries"});
  std::uint64_t random_bytes = 0;
  for (const std::string& strategy : strategies) {
    const core::PlacementPlan plan = optimizer.run(strategy);
    core::PlacementMapConfig map_cfg;
    map_cfg.num_nodes = nodes;
    const auto map = std::make_shared<const core::PlacementMap>(
        core::PlacementMap::build(plan.keyword_to_node, map_cfg));
    sim::Cluster cluster(nodes, capacity);
    cluster.install_placement(map, sizes);
    const sim::ReplayStats stats =
        sim::replay_trace(cluster, index, february);
    if (strategy == "random-hash") random_bytes = stats.total_bytes;
    table.add_row(
        {strategy,
         common::Table::num(static_cast<double>(stats.total_bytes) / 1024, 1),
         common::Table::num(stats.mean_bytes_per_query, 1),
         common::Table::pct(
             stats.multi_keyword_queries > 0
                 ? static_cast<double>(stats.local_queries) /
                       static_cast<double>(stats.multi_keyword_queries)
                 : 0.0),
         common::Table::num(stats.p99_latency_ms, 2),
         common::Table::num(stats.storage_imbalance, 2),
         std::to_string(map->entries())});
    if (strategy == "lprr" && random_bytes > 0) {
      const double saving =
          1.0 - static_cast<double>(stats.total_bytes) /
                    static_cast<double>(random_bytes);
      std::cout << "LPRR communication saving vs random hash: "
                << common::Table::pct(saving) << "\n\n";
    }
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
