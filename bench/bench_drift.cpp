// Ablation F — correlation drift and bounded-churn replanning.
//
// The paper's premise (Fig. 2B) is that correlations are stable enough
// for a placement to stay effective "for a significantly long time
// period". This harness makes the horizon quantitative: it drifts the
// interest model by epsilon, re-estimates correlations, and compares
//   * stale    — keep the old placement (the paper's implicit strategy),
//   * fresh    — full re-optimization (max migration),
//   * budgeted — IncrementalOptimizer at a 10% migration byte budget.
// Costs are the modeled objective on the drifted scoped instance,
// normalized to random hash; migration is in fractions of total bytes.
//
// With --miner=sketch the re-estimation step runs on the streaming miner
// instead of the exact counter: each drift level copies the January-mined
// sketch, opens a decay window (--miner-decay), and feeds only the new
// trace — the bounded-memory "re-mine cheaply under drift" path that a
// million-object deployment would use (correlations become exponentially-
// weighted moving estimates instead of exact batch counts).
//
//   ./bench_drift [--nodes=10] [--scope=800] [--budget=0.1]
//                 [--miner={exact,sketch}] [--miner-decay=0.3]
//                 [testbed flags]
#include <iostream>
#include <unordered_map>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/migration.hpp"
#include "testbed.hpp"
#include "trace/stream_miner.hpp"

using namespace cca;

namespace {

/// Scoped CCA instance over a FIXED keyword set, built from pre-mined
/// full-vocabulary pair weights (so instances before/after drift share
/// the object space and placements are comparable).
core::CcaInstance scoped_instance(
    const std::vector<trace::KeywordId>& scope,
    const std::vector<std::uint64_t>& sizes,
    const std::vector<core::KeywordPairWeight>& mined_pairs, int nodes,
    double slack) {
  std::unordered_map<trace::KeywordId, int> object_of;
  std::vector<double> object_sizes;
  object_sizes.reserve(scope.size());
  double total = 0.0;
  for (std::size_t pos = 0; pos < scope.size(); ++pos) {
    object_of[scope[pos]] = static_cast<int>(pos);
    object_sizes.push_back(static_cast<double>(sizes[scope[pos]]));
    total += object_sizes.back();
  }
  std::vector<core::PairWeight> pairs;
  for (const core::KeywordPairWeight& p : mined_pairs) {
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
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const int nodes = static_cast<int>(args.get_int("nodes", 10));
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 800));
  const double budget = args.get_double("budget", 0.1);
  const double miner_decay = args.get_double("miner-decay", 0.3);
  args.reject_unused();
  const bool sketch = cfg.miner.kind == core::MinerOptions::Kind::kSketch;
  CCA_CHECK_MSG(miner_decay > 0.0 && miner_decay <= 1.0,
                "--miner-decay must be in (0, 1], got " << miner_decay);

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Ablation F — drift horizon and bounded-churn replanning");

  // Baseline placement from the January trace (mined with the selected
  // miner, so the sketch path is sketch end-to-end).
  core::PartialOptimizerConfig opt_cfg;
  opt_cfg.num_nodes = nodes;
  opt_cfg.scope = scope;
  opt_cfg.seed = cfg.seed;
  opt_cfg.miner = cfg.miner;
  opt_cfg.rounding.trials = 16;
  const core::PartialOptimizer optimizer(tb.january, tb.sizes, opt_cfg);
  const core::PlacementPlan plan = optimizer.run("lprr");

  // Sketch path: mine January once; every drift level re-mines by decayed
  // continuation instead of a from-scratch batch count.
  trace::StreamMiner january_miner(cfg.miner.sketch);
  if (sketch)
    january_miner.observe_trace(tb.january, trace::PairMode::kSmallestPair,
                                &tb.sizes);

  // The fixed object space: January's scope.
  const core::CcaInstance january_instance = scoped_instance(
      plan.scope, tb.sizes,
      sketch ? core::build_pair_weights(january_miner, tb.sizes)
             : core::build_pair_weights(tb.january, tb.sizes,
                                        core::OperationModel::kSmallestPair),
      nodes, opt_cfg.capacity_slack);
  core::Placement current(plan.scope.size());
  for (std::size_t pos = 0; pos < plan.scope.size(); ++pos)
    current[pos] = plan.keyword_to_node[plan.scope[pos]];

  // One optimizer per budget level, hoisted out of the drift loop: each
  // owns an LP warm-start cache, so every drift level after the first
  // re-solves the (same-shape) component LPs from the previous level's
  // optimal basis instead of from scratch. Results are identical either
  // way — visible only as lp.warm_start.hits under --metrics.
  core::IncrementalConfig inc_cfg;
  inc_cfg.migration_budget_fraction = budget;
  inc_cfg.rounding.trials = 16;
  inc_cfg.seed = cfg.seed;
  const core::IncrementalOptimizer budgeted_optimizer(inc_cfg);
  core::IncrementalConfig full_cfg = inc_cfg;
  full_cfg.migration_budget_fraction = 1.0;
  const core::IncrementalOptimizer fresh_optimizer(full_cfg);

  common::Table table({"drift", "stale norm.", "budgeted norm.",
                       "budgeted moved", "fresh norm.", "fresh moved"});
  for (const double drift : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4}) {
    const trace::WorkloadModel drifted_model =
        tb.model.drifted(drift, cfg.seed + 977);
    const trace::QueryTrace drifted_trace =
        drifted_model.generate(cfg.queries, cfg.seed * 271 + 5);
    std::vector<core::KeywordPairWeight> drifted_pairs;
    if (sketch) {
      // Decayed continuation: keep the January summary, open a window, and
      // stream only the new observations. Memory stays bounded and the old
      // interest distribution fades at --miner-decay per window.
      trace::StreamMiner remined = january_miner;
      remined.advance_window(miner_decay);
      remined.observe_trace(drifted_trace, trace::PairMode::kSmallestPair,
                            &tb.sizes);
      drifted_pairs = core::build_pair_weights(remined, tb.sizes);
    } else {
      drifted_pairs = core::build_pair_weights(
          drifted_trace, tb.sizes, core::OperationModel::kSmallestPair);
    }
    const core::CcaInstance drifted = scoped_instance(
        plan.scope, tb.sizes, drifted_pairs, nodes, opt_cfg.capacity_slack);

    // Normalizer: random hash on the same instance.
    const core::Placement random = core::random_hash_placement(
        drifted, [&](int i) { return trace::keyword_name(plan.scope[i]); });
    const double random_cost = drifted.communication_cost(random);

    const core::IncrementalResult budgeted =
        budgeted_optimizer.reoptimize(drifted, current);
    const core::IncrementalResult fresh =
        fresh_optimizer.reoptimize(drifted, current);

    const auto norm = [&](double cost) {
      return common::Table::num(cost / std::max(random_cost, 1e-9), 3);
    };
    table.add_row({common::Table::pct(drift, 0), norm(budgeted.stale_cost),
                   norm(budgeted.cost),
                   common::Table::pct(budgeted.migration.moved_fraction),
                   norm(fresh.cost),
                   common::Table::pct(fresh.migration.moved_fraction)});
  }
  table.print(std::cout);
  std::cout << "\n(modeled objective on the drifted scoped instance,"
               " normalized to random hash; budgeted = incremental"
               " re-optimization at a "
            << common::Table::pct(budget) << " migration byte budget)\n";
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
