// Failover demo: one cluster's afternoon of crashes, end to end.
//
// A small search tier runs an LPRR placement when nodes start failing.
// The walkthrough shows the three layers the serving stack stacks up
// against fail-stop faults:
//   1. replication + failover — each keyword's replica set follows the
//      placement (core::PlacementMap resolve); a dead primary costs a
//      timeout and a retry, not the query;
//   2. degraded results — when every reachable replica of a keyword is
//      down, the query is answered over the keywords that remain and
//      reports partial coverage instead of failing outright;
//   3. recovery — core::RecoveryPlanner re-places the dead nodes'
//      objects onto survivors under a migration budget, most valuable
//      (query-frequent) first; the repaired placement is published as
//      the next PlacementMap epoch (with_placement).
//
//   ./failover_demo [--nodes=6] [--degree=1] [--mttf=4000] [--mttr=1500]
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placement_map.hpp"
#include "core/recovery.hpp"
#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"
#include "testbed.hpp"

using namespace cca;

static int main_body(const common::CliArgs& args) {
  const int nodes = static_cast<int>(args.get_int("nodes", 6));
  const int degree = static_cast<int>(args.get_int("degree", 1));
  const double mttf_ms = args.get_double("mttf", 4000.0);
  const double mttr_ms = args.get_double("mttr", 1500.0);
  args.reject_unused();

  // A small corpus, a workload, and an LPRR placement to protect.
  trace::CorpusConfig corpus_cfg;
  corpus_cfg.num_documents = 1500;
  corpus_cfg.vocabulary_size = 1200;
  corpus_cfg.mean_distinct_words = 60.0;
  corpus_cfg.seed = 7;
  const search::InvertedIndex index =
      search::InvertedIndex::build(trace::Corpus::generate(corpus_cfg));
  const std::vector<std::uint64_t> sizes = index.index_sizes();

  trace::WorkloadConfig query_cfg;
  query_cfg.vocabulary_size = 1200;
  query_cfg.num_topics = 60;
  query_cfg.topic_coherence = 0.9;
  query_cfg.seed = 7;
  trace::WorkloadModel model(query_cfg);
  const trace::QueryTrace training = model.generate(15000, 71);
  const trace::QueryTrace serving = model.generate(15000, 72);

  core::PartialOptimizerConfig opt_cfg;
  opt_cfg.num_nodes = nodes;
  opt_cfg.scope = 300;
  opt_cfg.seed = 7;
  opt_cfg.rounding.trials = 16;
  const core::PartialOptimizer optimizer(training, sizes, opt_cfg);
  const core::PlacementPlan plan = optimizer.run("lprr");

  double total_bytes = 0.0;
  for (std::uint64_t s : sizes) total_bytes += static_cast<double>(s);
  const double capacity = opt_cfg.capacity_slack * total_bytes / nodes;

  // The afternoon's fault timeline: every node crashes and recovers on
  // exponential clocks. The same schedule drives every run below.
  sim::FaultScheduleConfig fault_cfg;
  fault_cfg.mttf_ms = mttf_ms;
  fault_cfg.mttr_ms = mttr_ms;
  fault_cfg.horizon_ms = 30000.0;
  fault_cfg.seed = 7;
  const sim::FaultSchedule schedule =
      sim::FaultSchedule::generate(nodes, fault_cfg);
  std::cout << "fault schedule: " << schedule.crash_count() << " crashes"
            << " across " << nodes << " nodes over "
            << fault_cfg.horizon_ms / 1000.0 << "s (mttf "
            << mttf_ms / 1000.0 << "s, mttr " << mttr_ms / 1000.0
            << "s)\n\n";

  // Serve the same trace healthy, unreplicated, and replicated. The
  // replica set of every keyword comes from the installed PlacementMap:
  // degree r puts copies on the r placement-following successor nodes.
  const auto serve = [&](const sim::FaultSchedule* faults, int deg) {
    core::PlacementMapConfig map_cfg;
    map_cfg.num_nodes = nodes;
    map_cfg.degree = deg;
    sim::Cluster cluster(nodes, capacity);
    cluster.install_placement(
        std::make_shared<const core::PlacementMap>(
            core::PlacementMap::build(plan.keyword_to_node, map_cfg)),
        sizes);
    sim::FaultReplayConfig cfg;
    cfg.faults = faults;
    cfg.arrival_rate_qps =
        static_cast<double>(serving.size()) * 1000.0 / fault_cfg.horizon_ms;
    return sim::replay_trace_with_faults(cluster, index, serving, cfg);
  };

  common::Table table({"configuration", "avail", "coverage", "p99 ms",
                       "retries", "failovers"});
  const auto add = [&](const char* name, const sim::FaultReplayStats& s) {
    table.add_row({name, common::Table::pct(s.availability),
                   common::Table::pct(s.mean_coverage),
                   common::Table::num(s.base.p99_latency_ms, 2),
                   std::to_string(s.retries), std::to_string(s.failovers)});
  };
  add("healthy cluster", serve(nullptr, 0));
  add("faults, no replicas", serve(&schedule, 0));
  add("faults, degree 1", serve(&schedule, degree));
  table.print(std::cout);
  std::cout << "\nReplication converts lost queries into failovers: a dead"
               " primary costs a timeout, then the replica answers.\n\n";

  // Recovery: at the worst instant, re-place the dead nodes' objects.
  double worst_time = 0.0;
  std::size_t worst_dead = 0;
  for (const sim::FaultEvent& ev : schedule.events()) {
    const std::size_t dead = schedule.dead_nodes(ev.time_ms).size();
    if (dead > worst_dead) {
      worst_dead = dead;
      worst_time = ev.time_ms;
    }
  }
  if (worst_dead == 0) {
    std::cout << "No node ever failed; nothing to recover.\n";
    return 0;
  }
  const std::vector<bool> alive = schedule.alive_mask(worst_time);
  core::Placement scoped(plan.scope.size());
  for (std::size_t i = 0; i < plan.scope.size(); ++i)
    scoped[i] = plan.keyword_to_node[plan.scope[i]];
  const std::vector<std::size_t> freq = training.keyword_frequencies();
  std::vector<double> weights(plan.scope.size());
  for (std::size_t i = 0; i < plan.scope.size(); ++i)
    weights[i] = static_cast<double>(freq[plan.scope[i]]) + 1.0;

  core::RecoveryConfig rec_cfg;
  rec_cfg.migration_budget_fraction = 0.25;
  rec_cfg.seed = 7;
  const core::RecoveryResult result = core::RecoveryPlanner(rec_cfg).replan(
      optimizer.scoped_instance(), scoped, alive, weights);
  std::cout << "recovery at t=" << common::Table::num(worst_time, 0)
            << "ms (" << worst_dead << "/" << nodes << " nodes dead): "
            << result.objects_recovered << "/" << result.objects_lost
            << " objects re-placed, "
            << common::Table::pct(result.coverage_restored)
            << " of lost importance restored, "
            << common::Table::num(result.migration.bytes_moved / 1024, 1)
            << " KiB migrated (budget "
            << common::Table::pct(rec_cfg.migration_budget_fraction)
            << " of scope bytes)\n";

  // Publish the repaired placement as the next epoch: in-flight queries
  // keep resolving against the old map; new ones see the repair.
  std::vector<int> repaired = plan.keyword_to_node;
  for (std::size_t i = 0; i < plan.scope.size(); ++i)
    repaired[plan.scope[i]] = result.placement[i];
  core::PlacementMapConfig map_cfg;
  map_cfg.num_nodes = nodes;
  const core::PlacementMap before =
      core::PlacementMap::build(plan.keyword_to_node, map_cfg);
  const core::PlacementMap after = before.with_placement(repaired);
  std::size_t moved = 0;
  for (trace::KeywordId k = 0;
       k < static_cast<trace::KeywordId>(repaired.size()); ++k)
    if (after.primary(k) != before.primary(k)) ++moved;
  std::cout << "published repaired placement as epoch " << after.epoch()
            << " (" << moved << " keywords moved, exception table "
            << after.bytes() << " bytes)\n";
  std::cout << "\n(The planner lands each object on the survivor holding"
               " its correlated siblings, so the co-location the optimizer"
               " paid for outlives the node that hosted it.)\n";
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
