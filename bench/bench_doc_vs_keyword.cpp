// Ablation I — keyword-based vs document-based partitioning (footnote 1).
//
// The paper's footnote 1 scopes the study to keyword partitioning. This
// harness quantifies the alternative it set aside: document partitioning
// never ships posting lists (every node intersects its own document
// slice) but broadcasts every query to every node and gathers the
// results, so its communication AND its CPU fan-out grow with the node
// count while keyword partitioning's costs depend on placement quality.
//
//   ./bench_doc_vs_keyword [--scope=1000] [testbed flags]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/doc_partition.hpp"
#include "testbed.hpp"
#include "trace/documents.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 1000));
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Ablation I — keyword vs document partitioning");

  // The document-partitioned replay needs the corpus itself (to slice by
  // document); rebuild it with the testbed's configuration.
  trace::CorpusConfig corpus_cfg;
  corpus_cfg.num_documents = cfg.documents;
  corpus_cfg.vocabulary_size = cfg.vocabulary;
  corpus_cfg.mean_distinct_words = cfg.words_per_doc;
  corpus_cfg.seed = cfg.seed;
  const trace::Corpus corpus = trace::Corpus::generate(corpus_cfg);

  common::Table table({"nodes", "scheme", "bytes/query", "msgs/query",
                       "wasted node work", "storage imbalance"});
  for (const int nodes : {10, 20, 50, 100}) {
    // Document partitioning.
    sim::DocPartitionConfig doc_cfg;
    doc_cfg.num_nodes = nodes;
    const sim::DocPartitionStats doc =
        sim::replay_doc_partitioned(corpus, tb.february, doc_cfg);
    table.add_row({std::to_string(nodes), "doc-partitioned",
                   common::Table::num(doc.mean_bytes_per_query, 1),
                   common::Table::num(
                       static_cast<double>(doc.total_messages) /
                           static_cast<double>(doc.queries),
                       1),
                   common::Table::pct(doc.wasted_node_fraction),
                   common::Table::num(doc.storage_imbalance, 2)});

    // Keyword partitioning: random hash and LPRR.
    for (const std::string_view strategy :
         {"random-hash", "lprr"}) {
      const sim::ReplayStats kw = tb.measure(strategy, nodes, scope);
      table.add_row(
          {std::to_string(nodes),
           std::string("kw-") + std::string(strategy),
           common::Table::num(kw.mean_bytes_per_query, 1),
           common::Table::num(static_cast<double>(kw.total_messages) /
                                  static_cast<double>(kw.queries),
                              2),
           "0.0%",  // keyword partitioning computes only where indices live
           common::Table::num(kw.storage_imbalance, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(doc partitioning: 2(N-1) messages and N-way CPU fan-out"
               " per query, but perfect storage balance and no index"
               " shipping; keyword partitioning pays bytes only where the"
               " placement is wrong — which LPRR minimizes. The paper's"
               " footnote 1 trade-off, quantified.)\n";
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
