// Drift replanner: six months of interest drift, three operating policies.
//
// Month 0 optimizes placement from the first month's queries (LPRR). Each
// later month the interest model drifts a little more and a new month of
// queries arrives. Three operators respond differently:
//   never    — keep the month-0 placement forever (the paper's implicit
//              strategy; Fig. 2B argues drift is slow),
//   budgeted — bounded-churn incremental replanning (10% of bytes/month),
//   full     — re-optimize from scratch every month.
// Costs are MEASURED by replaying each month's trace through the cluster;
// migration bytes are what each policy shipped to re-arrange indices.
//
//   ./drift_replanner [--months=6] [--drift=0.08] [--budget=0.1]
//                     [--nodes=10] [--scope=600]
#include <iostream>
#include <unordered_map>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/correlation.hpp"
#include "core/migration.hpp"
#include "core/partial_optimizer.hpp"
#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"
#include "testbed.hpp"

using namespace cca;

namespace {

/// Scoped instance over a fixed keyword set with correlations from `t`.
core::CcaInstance scoped_instance(const std::vector<trace::KeywordId>& scope,
                                  const std::vector<std::uint64_t>& sizes,
                                  const trace::QueryTrace& t, int nodes,
                                  double slack) {
  std::unordered_map<trace::KeywordId, int> object_of;
  std::vector<double> object_sizes;
  double total = 0.0;
  for (std::size_t pos = 0; pos < scope.size(); ++pos) {
    object_of[scope[pos]] = static_cast<int>(pos);
    object_sizes.push_back(static_cast<double>(sizes[scope[pos]]));
    total += object_sizes.back();
  }
  std::vector<core::PairWeight> pairs;
  for (const core::KeywordPairWeight& p : core::build_pair_weights(
           t, sizes, core::OperationModel::kSmallestPair)) {
    const auto i = object_of.find(p.a);
    const auto j = object_of.find(p.b);
    if (i == object_of.end() || j == object_of.end()) continue;
    pairs.push_back({i->second, j->second, p.r, p.w});
  }
  return core::CcaInstance(
      object_sizes,
      std::vector<double>(static_cast<std::size_t>(nodes),
                          slack * total / nodes),
      pairs);
}

}  // namespace

static int main_body(const common::CliArgs& args) {
  const int months = static_cast<int>(args.get_int("months", 6));
  const double drift_per_month = args.get_double("drift", 0.08);
  const double budget = args.get_double("budget", 0.1);
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 600));
  args.reject_unused();

  // Corpus, index, initial workload.
  trace::CorpusConfig corpus_cfg;
  corpus_cfg.num_documents = 4000;
  corpus_cfg.vocabulary_size = 2500;
  corpus_cfg.mean_distinct_words = 70.0;
  corpus_cfg.seed = 2;
  const search::InvertedIndex index =
      search::InvertedIndex::build(trace::Corpus::generate(corpus_cfg));
  const std::vector<std::uint64_t> sizes = index.index_sizes();

  trace::WorkloadConfig query_cfg;
  query_cfg.vocabulary_size = 2500;
  query_cfg.num_topics = 125;
  query_cfg.topic_coherence = 0.9;
  query_cfg.seed = 2;
  trace::WorkloadModel model(query_cfg);
  const trace::QueryTrace month0 = model.generate(25000, 1000);

  // Month-0 plan: LPRR partial optimization.
  core::PartialOptimizerConfig opt_cfg;
  opt_cfg.num_nodes = nodes;
  opt_cfg.scope = scope;
  opt_cfg.seed = 2;
  opt_cfg.rounding.trials = 16;
  const core::PartialOptimizer optimizer(month0, sizes, opt_cfg);
  const core::PlacementPlan base_plan = optimizer.run("lprr");

  double total_bytes = 0.0;
  for (std::uint64_t s : sizes) total_bytes += static_cast<double>(s);
  const double capacity = opt_cfg.capacity_slack * total_bytes / nodes;

  // Per-policy state: the scoped placement (tail stays hashed).
  core::Placement initial(base_plan.scope.size());
  for (std::size_t pos = 0; pos < base_plan.scope.size(); ++pos)
    initial[pos] = base_plan.keyword_to_node[base_plan.scope[pos]];
  struct Policy {
    std::string name;
    double budget_fraction;  // <0 = never replan
    core::Placement placement;
    double migrated_bytes = 0.0;
  };
  std::vector<Policy> policies = {{"never", -1.0, initial, 0.0},
                                  {"budgeted", budget, initial, 0.0},
                                  {"full", 1.0, initial, 0.0}};

  const auto replay_policy = [&](const Policy& policy,
                                 const trace::QueryTrace& month_trace) {
    std::vector<int> keyword_to_node = base_plan.keyword_to_node;
    for (std::size_t pos = 0; pos < base_plan.scope.size(); ++pos)
      keyword_to_node[base_plan.scope[pos]] = policy.placement[pos];
    sim::Cluster cluster(nodes, capacity);
    cluster.install_placement(keyword_to_node, sizes);
    return sim::replay_trace(cluster, index, month_trace);
  };

  std::cout << "Drift replanner: " << months << " months, "
            << common::Table::pct(drift_per_month) << " drift/month, "
            << common::Table::pct(budget) << " monthly migration budget\n\n";
  common::Table table({"month", "policy", "MiB moved (queries)",
                       "MiB migrated", "local ops"});

  for (int month = 1; month <= months; ++month) {
    model = model.drifted(drift_per_month, 4000 + month);
    const trace::QueryTrace month_trace =
        model.generate(25000, 1000 + month);
    const core::CcaInstance month_instance =
        scoped_instance(base_plan.scope, sizes, month_trace, nodes,
                        opt_cfg.capacity_slack);

    for (Policy& policy : policies) {
      double migrated = 0.0;
      if (policy.budget_fraction >= 0.0) {
        core::IncrementalConfig inc;
        inc.migration_budget_fraction = policy.budget_fraction;
        inc.rounding.trials = 16;
        inc.seed = 2 + static_cast<std::uint64_t>(month);
        const core::IncrementalResult r =
            core::IncrementalOptimizer(inc).reoptimize(month_instance,
                                                       policy.placement);
        migrated = r.migration.bytes_moved;
        policy.placement = r.placement;
        policy.migrated_bytes += migrated;
      }
      const sim::ReplayStats stats = replay_policy(policy, month_trace);
      table.add_row(
          {std::to_string(month), policy.name,
           common::Table::num(
               static_cast<double>(stats.total_bytes) / (1024 * 1024), 1),
           common::Table::num(migrated / (1024 * 1024), 2),
           common::Table::pct(
               stats.multi_keyword_queries > 0
                   ? static_cast<double>(stats.local_queries) /
                         static_cast<double>(stats.multi_keyword_queries)
                   : 0.0)});
    }
  }
  table.print(std::cout);

  std::cout << "\ncumulative migration: ";
  for (const Policy& policy : policies)
    std::cout << policy.name << "="
              << common::Table::num(policy.migrated_bytes / (1024 * 1024), 1)
              << "MiB  ";
  std::cout << "\n(query traffic vs migration traffic is the operator's"
               " real trade-off; 'never' banks on the paper's stability"
               " premise)\n";
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
