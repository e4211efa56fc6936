// Distributed aggregation database — the paper's second motivating
// application (Sec. 1.1): a partitioned dataset (think biological-sequence
// shards) where queries touch several partitions and results are combined
// with UNION-like aggregation, so the Sec. 3.2 union cost model applies:
// every requested shard ships to the largest shard's node.
//
// Shards play the role of objects: sizes are heavy-tailed, and access
// correlations come from "studies" that repeatedly co-access the same
// shard families. We optimize shard placement with each strategy and
// measure union-style replay traffic.
//
//   ./aggregation_db [--nodes=6] [--shards=300] [--queries=20000] [--seed=3]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/partial_optimizer.hpp"
#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const int nodes = static_cast<int>(args.get_int("nodes", 6));
  const auto shards = static_cast<std::size_t>(args.get_int("shards", 300));
  const auto queries =
      static_cast<std::size_t>(args.get_int("queries", 20000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  args.reject_unused();

  // Model each shard as a "keyword" whose records are synthetic documents:
  // reusing the corpus machinery gives heavy-tailed shard sizes for free.
  trace::CorpusConfig shard_cfg;
  shard_cfg.num_documents = 4000;  // records spread across shards
  shard_cfg.vocabulary_size = shards;
  shard_cfg.mean_distinct_words = 12.0;  // each record lives in ~12 shards
  shard_cfg.seed = seed;
  const trace::Corpus records = trace::Corpus::generate(shard_cfg);
  const search::InvertedIndex shard_index =
      search::InvertedIndex::build(records);
  const std::vector<std::uint64_t> sizes = shard_index.index_sizes();

  // Studies co-access shard families: the topic model again.
  trace::WorkloadConfig access_cfg;
  access_cfg.vocabulary_size = shards;
  access_cfg.num_topics = shards / 10;
  access_cfg.topic_size = 5;
  access_cfg.mean_query_length = 3.2;  // aggregations touch more objects
  access_cfg.seed = seed;
  const trace::WorkloadModel model(access_cfg);
  const trace::QueryTrace history = model.generate(queries, seed + 100);
  const trace::QueryTrace live = model.generate(queries, seed + 200);

  std::cout << "Aggregation DB: " << shards << " shards over " << nodes
            << " nodes; " << history.size()
            << " historical aggregation queries (mean "
            << common::Table::num(history.mean_query_length(), 2)
            << " shards/query)\n\n";

  core::PartialOptimizerConfig cfg;
  cfg.num_nodes = nodes;
  cfg.scope = shards;  // small object count: optimize everything
  cfg.seed = seed;
  cfg.rounding.trials = 16;
  // Union-like operations: every co-requested pair matters, not just the
  // two smallest objects.
  cfg.operation_model = core::OperationModel::kAllPairs;
  const core::PartialOptimizer optimizer(history, sizes, cfg);

  double total_bytes = 0.0;
  for (std::uint64_t s : sizes) total_bytes += static_cast<double>(s);
  const double capacity = cfg.capacity_slack * total_bytes / nodes;

  common::Table table({"strategy", "KiB moved", "bytes/query",
                       "p99 bytes/query", "storage imbalance"});
  for (std::string_view strategy :
       {"random-hash", "greedy",
        "lprr"}) {
    const core::PlacementPlan plan = optimizer.run(strategy);
    sim::Cluster cluster(nodes, capacity);
    cluster.install_placement(plan.keyword_to_node, sizes);
    const sim::ReplayStats stats = sim::replay_trace(
        cluster, shard_index, live, sim::OperationKind::kUnion);
    table.add_row(
        {std::string(strategy),
         common::Table::num(static_cast<double>(stats.total_bytes) / 1024, 1),
         common::Table::num(stats.mean_bytes_per_query, 1),
         common::Table::num(stats.p99_bytes_per_query, 0),
         common::Table::num(stats.storage_imbalance, 2)});
  }
  table.print(std::cout);
  std::cout << "\n(Union-like aggregation: requested shards ship to the"
               " largest shard's node; correlations use the all-pairs"
               " model.)\n";
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
