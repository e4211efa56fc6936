// Churn — epoch swaps under membership change (the serving-side replay).
//
// The offline figures freeze one placement; an operator's cluster grows
// and shrinks. This harness replays the evaluation trace through the
// placement service (sim/placement_service.hpp) while a --churn script
// adds and removes nodes, and reports what every epoch swap cost: data
// migrated (objects and index bytes), the hash-tail movement fraction,
// and queries that touched a moved keyword in the swap's window. The
// grid crosses BOTH hash tails with every strategy — the headline is the
// "tail moved" column: a single-node add moves ~1/(N+1) of the jump tail
// but ~N/(N+1) of the md5 tail (Lamping & Veach vs mod-N rehash).
//
//   ./bench_churn [--nodes=10] [--scope=1000] [--qps=1000]
//                 [--strategies=random-hash,lprr] [--service={on,off}]
//                 [--migration-budget=0.25] [--churn=add:t,n;...]
//                 [testbed flags]
//
// Rebuild lanes: "random-hash" rebalances by the tail rule alone
// (PlacementMap::rebalanced); every other strategy re-optimizes at the
// new cluster size through the bounded-churn IncrementalOptimizer (LPRR
// target, --migration-budget byte budget, bench-wide LP warm-start
// cache) and publishes the successor epoch carrying the new pins.
//
// --service=off bypasses the service for a plain offline replay (churn
// scripts are rejected there). With an empty script --service=on must
// produce byte-identical stdout — the smoke_service_no_churn contract.
// The grid sweeps both tails itself; the testbed's --hash-tail flag only
// selects the epoch-0 default elsewhere and has no effect here.
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/migration.hpp"
#include "lp/basis.hpp"
#include "testbed.hpp"

using namespace cca;

namespace {

/// Per-cell --json rows (the churn analogue of bench::JsonLog — the cells
/// here carry transitions, which the shared writer has no schema for).
class ChurnJsonLog {
 public:
  explicit ChurnJsonLog(std::string path) : path_(std::move(path)) {}

  void add(const bench::TestbedConfig& cfg, core::HashTail tail,
           const std::string& strategy, int nodes, std::size_t scope,
           const sim::ServiceReplayStats& stats, double wall_ms) {
    if (path_.empty()) return;
    std::ostringstream row;
    row << "  {\"seed\": " << cfg.seed << ", \"threads\": " << cfg.threads
        << ", \"tail\": \"" << core::hash_tail_name(tail) << "\""
        << ", \"strategy\": \"" << strategy << "\""
        << ", \"nodes\": " << nodes << ", \"scope\": " << scope
        << ", \"queries\": " << stats.base.queries
        << ", \"total_bytes\": " << stats.base.total_bytes
        << ", \"mean_bytes_per_query\": " << stats.base.mean_bytes_per_query
        << ", \"p99_bytes_per_query\": " << stats.base.p99_bytes_per_query
        << ", \"local_queries\": " << stats.base.local_queries
        << ", \"final_epoch\": " << stats.final_epoch
        << ", \"final_nodes\": " << stats.final_num_nodes
        << ", \"wall_ms\": " << wall_ms << ", \"transitions\": [";
    for (std::size_t i = 0; i < stats.transitions.size(); ++i) {
      const sim::EpochTransition& t = stats.transitions[i];
      row << (i ? ", " : "") << "{\"from_epoch\": " << t.from_epoch
          << ", \"to_epoch\": " << t.to_epoch
          << ", \"time_ms\": " << t.time_ms
          << ", \"nodes_before\": " << t.nodes_before
          << ", \"nodes_after\": " << t.nodes_after
          << ", \"moved_objects\": " << t.moved_objects
          << ", \"moved_bytes\": " << t.moved_bytes
          << ", \"tail_objects\": " << t.tail_objects
          << ", \"moved_tail_objects\": " << t.moved_tail_objects
          << ", \"disrupted_queries\": " << t.disrupted_queries << "}";
    }
    row << "]}";
    rows_.push_back(row.str());
  }

  void write() const {
    if (path_.empty() || rows_.empty()) return;
    std::ofstream out(path_);
    CCA_CHECK_MSG(out.good(), "cannot write JSON log to " << path_);
    out << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      out << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
    out << "]\n";
    std::cout << "\nwrote " << rows_.size() << " cells to " << path_ << "\n";
  }

 private:
  std::string path_;
  std::vector<std::string> rows_;
};

}  // namespace

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 1000));
  const double qps = args.get_double("qps", 1000.0);
  const double budget = args.get_double("migration-budget", 0.25);
  const std::vector<std::string> strategies = core::parse_strategy_list(
      args.get_string("strategies", "random-hash,lprr"));
  const std::string service_flag = args.get_string("service", "on");
  if (service_flag != "on" && service_flag != "off") {
    const std::string hint =
        common::suggest_value(service_flag, {"on", "off"});
    CCA_CHECK_MSG(false, "--service must be one of 'off', 'on', got '"
                             << service_flag << "'"
                             << (hint.empty()
                                     ? std::string()
                                     : " (did you mean '" + hint + "'?)"));
  }
  const bool service_on = service_flag == "on";
  args.reject_unused();
  CCA_CHECK_MSG(service_on || cfg.churn.empty(),
                "--service=off replays offline and cannot apply a --churn "
                "script; drop one of the two");
  CCA_CHECK_MSG(budget >= 0.0 && budget <= 1.0,
                "--migration-budget must be in [0, 1], got " << budget);

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Churn — epoch swaps under membership change");
  std::cout << "churn script: " << cfg.churn.size() << " events, arrivals "
            << qps << " qps, migration budget "
            << static_cast<int>(budget * 100) << "%\n\n";

  // One LP warm-start cache for every rebuild in the run: successive
  // re-optimizations at the same cluster size restart from the previous
  // optimal basis. Results are identical either way (lp/basis.hpp).
  lp::WarmStartCache rebuild_cache;
  ChurnJsonLog json(cfg.json_path);

  common::Table table({"tail", "strategy", "mean B/q", "p99 B/q", "local",
                       "swaps", "moved objs", "moved MiB", "tail moved",
                       "disrupted"});
  for (const core::HashTail tail : {core::HashTail::kMd5,
                                    core::HashTail::kJump}) {
    for (const std::string& strategy : strategies) {
      const auto start = std::chrono::steady_clock::now();

      core::PartialOptimizerConfig opt_cfg = tb.optimizer_config(nodes,
                                                                 scope);
      opt_cfg.hash_tail = tail;
      const core::PartialOptimizer optimizer(tb.january, tb.sizes, opt_cfg);
      const core::PlacementPlan plan = optimizer.run(strategy);

      core::PlacementMapConfig map_cfg;
      map_cfg.num_nodes = nodes;
      map_cfg.hash_tail = tail;
      const auto epoch0 = std::make_shared<const core::PlacementMap>(
          core::PlacementMap::build(plan.keyword_to_node, map_cfg));

      sim::ServiceReplayStats stats;
      if (service_on) {
        sim::ServiceReplayConfig service_cfg;
        service_cfg.arrival_rate_qps = qps;
        service_cfg.arrival_seed = cfg.seed;
        // Optimized strategies rebuild through the bounded-churn lane;
        // "random-hash" keeps the default pure tail rebalance. Per-size
        // optimizers are cached so repeated events at one size share the
        // mined pipeline. The importance ranking (and so the scope) does
        // not depend on the cluster size, so the epoch-0 scope indexes
        // the re-optimized instance's objects at every size.
        std::map<int, std::unique_ptr<core::PartialOptimizer>> per_size;
        if (strategy != "random-hash") {
          service_cfg.rebuild = [&](const core::PlacementMap& current,
                                    const sim::ChurnEvent& event) {
            const int next = event.kind == sim::ChurnEvent::Kind::kAdd
                                 ? current.num_nodes() + 1
                                 : current.num_nodes() - 1;
            auto& opt = per_size[next];
            if (!opt) {
              core::PartialOptimizerConfig next_cfg =
                  tb.optimizer_config(next, scope);
              next_cfg.hash_tail = tail;
              opt = std::make_unique<core::PartialOptimizer>(
                  tb.january, tb.sizes, next_cfg);
            }
            // Start from the serving placement; scope keywords stranded
            // on a retiring node are evacuated to their tail node first
            // (forced moves, not charged against the budget).
            core::Placement current_scope(plan.scope.size());
            for (std::size_t pos = 0; pos < plan.scope.size(); ++pos) {
              int node = current.primary(plan.scope[pos]);
              if (node >= next)
                node = core::tail_node(tail, plan.scope[pos], next);
              current_scope[pos] = node;
            }
            core::IncrementalConfig inc;
            inc.migration_budget_fraction = budget;
            inc.rounding.trials = 16;
            inc.seed = cfg.seed;
            inc.warm_cache = &rebuild_cache;
            const core::IncrementalResult res =
                core::IncrementalOptimizer(inc).reoptimize(
                    opt->scoped_instance(), current_scope);
            // Successor plan: tail rule at the new size, re-optimized
            // scope pinned on top.
            std::vector<int> keyword_to_node(tb.sizes.size());
            for (trace::KeywordId k = 0; k < keyword_to_node.size(); ++k)
              keyword_to_node[k] = core::tail_node(tail, k, next);
            for (std::size_t pos = 0; pos < plan.scope.size(); ++pos)
              keyword_to_node[plan.scope[pos]] = res.placement[pos];
            core::PlacementMapConfig next_map;
            next_map.num_nodes = next;
            next_map.degree = current.degree();
            next_map.hash_tail = tail;
            next_map.epoch = current.epoch() + 1;
            return std::make_shared<const core::PlacementMap>(
                core::PlacementMap::build(keyword_to_node, next_map));
          };
        }
        sim::PlacementService service(epoch0);
        stats = sim::replay_trace_with_service(service, tb.index,
                                               tb.february, cfg.churn,
                                               service_cfg);
      } else {
        sim::Cluster cluster(nodes, 2.0 * tb.total_index_bytes / nodes);
        cluster.install_placement(epoch0, tb.sizes);
        stats.base = sim::replay_trace(cluster, tb.index, tb.february);
        stats.final_num_nodes = nodes;
      }
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();

      std::size_t moved_objects = 0, tail_objects = 0, moved_tail = 0;
      std::uint64_t moved_bytes = 0, disrupted = 0;
      for (const sim::EpochTransition& t : stats.transitions) {
        moved_objects += t.moved_objects;
        moved_bytes += t.moved_bytes;
        tail_objects += t.tail_objects;
        moved_tail += t.moved_tail_objects;
        disrupted += t.disrupted_queries;
      }
      const bool churned = !stats.transitions.empty();
      table.add_row(
          {core::hash_tail_name(tail), strategy,
           common::Table::num(stats.base.mean_bytes_per_query, 1),
           common::Table::num(stats.base.p99_bytes_per_query, 1),
           common::Table::pct(static_cast<double>(stats.base.local_queries) /
                              static_cast<double>(stats.base.queries)),
           churned ? std::to_string(stats.transitions.size()) : "-",
           churned ? std::to_string(moved_objects) : "-",
           churned ? common::Table::num(
                         static_cast<double>(moved_bytes) / (1024.0 * 1024.0),
                         2)
                   : "-",
           churned && tail_objects > 0
               ? common::Table::pct(static_cast<double>(moved_tail) /
                                    static_cast<double>(tail_objects))
               : "-",
           churned ? std::to_string(disrupted) : "-"});
      json.add(cfg, tail, strategy, nodes, scope, stats, wall_ms);
    }
  }
  bench::print_table(table, cfg);
  std::cout << "\n(\"tail moved\" is the fraction of hash-ruled keywords "
               "whose node changed across all swaps: jump keeps a "
               "single-node add near 1/N, md5 reshuffles nearly all of "
               "it. \"disrupted\" counts queries touching a moved keyword "
               "in the swap's window)\n";
  json.write();
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
