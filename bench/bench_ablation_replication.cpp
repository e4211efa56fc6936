// Ablation J — full replication of hot keywords vs placement.
//
// The paper's Sec. 5 points to the authors' companion work on
// replication-degree customization. The simplest instance of that idea:
// give the R most query-frequent keywords a replica on EVERY node, so they
// never cause transfers, at a storage cost of (N-1) extra copies each.
// This harness sweeps R for the random and LPRR placements and reports
// the communication saved per byte of replica storage — quantifying how
// replication and correlation-aware placement overlap (both co-locate the
// head of the workload; replication also helps the tail random placement
// leaves behind).
//
//   ./bench_ablation_replication [--nodes=10] [--scope=1000] [testbed flags]
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "search/query_engine.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 1000));
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Ablation J — hot-keyword replication vs placement");

  // Replication candidates: keywords by descending query frequency.
  const std::vector<std::size_t> freq = tb.january.keyword_frequencies();
  std::vector<trace::KeywordId> by_frequency(tb.sizes.size());
  for (std::size_t k = 0; k < by_frequency.size(); ++k)
    by_frequency[k] = static_cast<trace::KeywordId>(k);
  std::sort(by_frequency.begin(), by_frequency.end(),
            [&](trace::KeywordId a, trace::KeywordId b) {
              return freq[a] != freq[b] ? freq[a] > freq[b] : a < b;
            });

  const core::PartialOptimizer optimizer(tb.january, tb.sizes,
                                         tb.optimizer_config(nodes, scope));
  const search::QueryEngine engine(tb.index);

  common::Table table({"replicated R", "strategy", "KiB moved", "saving",
                       "replica storage KiB"});
  std::uint64_t baseline = 0;  // unreplicated random hash
  for (const std::size_t replicas : {std::size_t{0}, std::size_t{10},
                                     std::size_t{50}, std::size_t{100},
                                     std::size_t{250}}) {
    std::vector<char> replicated(tb.sizes.size(), 0);
    std::uint64_t replica_bytes = 0;
    for (std::size_t r = 0; r < replicas; ++r) {
      replicated[by_frequency[r]] = 1;
      replica_bytes += tb.sizes[by_frequency[r]] *
                       static_cast<std::uint64_t>(nodes - 1);
    }

    for (const std::string_view strategy :
         {"random-hash", "lprr"}) {
      const core::PlacementPlan plan = optimizer.run(strategy);
      // Replicated keywords resolve to the full-degree set (a copy on
      // every node); the rest to their placement's singleton.
      const auto placement = [&](trace::KeywordId k) {
        return replicated[k]
                   ? core::ReplicaSet{plan.keyword_to_node[k], nodes - 1,
                                      nodes}
                   : core::ReplicaSet{plan.keyword_to_node[k], 0, nodes};
      };
      std::uint64_t total_bytes = 0;
      for (const trace::Query& query : tb.february.queries())
        total_bytes +=
            engine.execute_intersection(query, placement).bytes_transferred;

      if (replicas == 0 && strategy == "random-hash")
        baseline = total_bytes;
      table.add_row(
          {std::to_string(replicas), std::string(strategy),
           common::Table::num(static_cast<double>(total_bytes) / 1024, 1),
           common::Table::pct(1.0 - static_cast<double>(total_bytes) /
                                        static_cast<double>(baseline)),
           common::Table::num(static_cast<double>(replica_bytes) / 1024,
                              1)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(savings relative to unreplicated random hash; replica"
               " storage is the extra (N-1) copies of each replicated"
               " index. Replication rescues random placement's head"
               " traffic; LPRR already co-located it, so its gain is the"
               " tail the scope missed.)\n";
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
