// Fault tolerance — availability and recovery under fail-stop faults.
//
// The paper's evaluation assumes a healthy cluster; its Sec. 5 pointer
// to replication-degree customization only matters when nodes can die.
// This harness injects a seeded fail-stop fault timeline (sim/faults.hpp)
// into the trace replay and asks two questions:
//
//   Table 1 — serving under faults: fault rate x replication degree x
//   strategy. Replicas follow the placement (core::PlacementMap replica
//   sets), so failover preserves the co-location the optimizer paid for;
//   degree 0
//   is the replica-free baseline, degree N-1 the full-replication limit.
//   Availability counts fully-served queries; coverage credits partial
//   results; p99 includes the retry/timeout penalties queries paid
//   discovering dead replicas.
//
//   Table 2 — recovery: at the worst instant of the timeline (most nodes
//   down simultaneously), core::RecoveryPlanner re-places the dead-hosted
//   scope objects onto survivors under a migration-byte budget sweep,
//   weighting objects by query frequency. The availability column
//   re-scores the evaluation trace against the repaired placement at
//   that frozen instant.
//
//   Tables 3/4 (only with --topology) — hierarchical failure domains:
//   a scripted single-domain fail-stop (domain 0 dead for the middle
//   half of the horizon) at each granularity the topology supports
//   (node / rack / row), crossed with replica spread {flat, rack, row}
//   and degree {1, 2}. Table 3 reports availability and p99 under the
//   outage — the Mills et al. headline is rack-spread surviving a rack
//   loss that kills every flat (primary+r) mod N tail inside the rack.
//   Table 4 rebuilds the dead domain's scope objects at mid-outage,
//   single-successor funnel vs DAOS-style declustered, reporting the
//   parallel rebuild makespan under --rebuild-mbps per destination.
//
// The same fault schedule is shared by every strategy and degree of a
// sweep — comparisons see identical failure timelines.
//
//   ./bench_fault_tolerance [--nodes=10] [--scope=1000]
//       [--strategies=random-hash,lprr]
//       [--mttf=10000] [--mttr=1000] [--fault-horizon=60000]
//       [--fault-seed=1] [--timeout-ms=5] [--max-attempts=3]
//       [--topology=rows:racks:nodes] [--replica-spread={flat,rack,row}]
//       [--fault-script=rack:t,id;...] [--rack-mttf=...] [--row-mttf=...]
//       [--rebuild-mbps=800] [testbed flags]
//
// Output is bit-identical for any --threads (the determinism contract of
// the parallel substrate extends through the fault layer; enforced by the
// smoke suite), and byte-identical to the pre-topology output when no
// topology flags are passed (the golden contract).
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/placement_map.hpp"
#include "core/recovery.hpp"
#include "sim/faults.hpp"
#include "sim/pool_map.hpp"
#include "testbed.hpp"

using namespace cca;

namespace {

/// Fraction of trace queries whose every keyword's primary is alive under
/// `keyword_to_node` at a frozen liveness snapshot (no failover — the
/// recovery table isolates what re-placement alone restores).
double frozen_availability(const trace::QueryTrace& trace,
                           const std::vector<int>& keyword_to_node,
                           const std::vector<bool>& alive) {
  if (trace.empty()) return 1.0;
  std::size_t served = 0;
  for (const trace::Query& query : trace.queries()) {
    bool all_alive = true;
    for (const trace::KeywordId k : query.keywords)
      if (!alive[static_cast<std::size_t>(keyword_to_node[k])]) {
        all_alive = false;
        break;
      }
    if (all_alive) ++served;
  }
  return static_cast<double>(served) / static_cast<double>(trace.size());
}

}  // namespace

static int main_body(const common::CliArgs& args) {
  const bench::TestbedConfig cfg = bench::TestbedConfig::from_cli(args);
  const bench::FaultFlags faults = bench::FaultFlags::from_cli(args);
  int nodes = static_cast<int>(args.get_int("nodes", 10));
  if (faults.pool) {
    // The topology is authoritative for the cluster size; an explicit
    // --nodes must agree with it.
    CCA_CHECK_MSG(!args.has("nodes") || nodes == faults.pool->num_nodes(),
                  "--nodes=" << nodes << " disagrees with --topology ("
                             << faults.pool->num_nodes() << " nodes)");
    nodes = faults.pool->num_nodes();
  }
  const auto scope = static_cast<std::size_t>(args.get_int("scope", 1000));
  const std::vector<std::string> strategies = core::parse_strategy_list(
      args.get_string("strategies", "random-hash,lprr"));
  args.reject_unused();

  const bench::Testbed tb = bench::Testbed::build(cfg);
  tb.print_banner("Fault tolerance — availability and recovery");

  const core::PartialOptimizerConfig opt_cfg = tb.optimizer_config(nodes,
                                                                   scope);
  const core::PartialOptimizer optimizer(tb.january, tb.sizes, opt_cfg);
  const double capacity =
      opt_cfg.capacity_slack * tb.total_index_bytes / nodes;

  // Arrivals paced so the replay (one arrival per evaluation query)
  // spans the fault horizon — queries arriving after it would see an
  // always-healthy cluster.
  const double arrival_qps =
      static_cast<double>(tb.february.size()) * 1000.0 / faults.horizon_ms;
  std::cout << "fault model: mttf=" << faults.mttf_ms / 1000.0
            << "s mttr=" << faults.mttr_ms / 1000.0
            << "s horizon=" << faults.horizon_ms / 1000.0
            << "s fault-seed=" << faults.fault_seed << " timeout="
            << faults.timeout_ms << "ms attempts=" << faults.max_attempts
            << "; " << tb.february.size() << " arrivals at "
            << common::Table::num(arrival_qps, 0) << " qps\n\n";
  if (faults.pool) {
    std::cout << "topology: " << faults.pool->num_rows() << " row(s) x "
              << faults.pool->num_racks() << " rack(s) x " << nodes
              << " nodes; replica-spread="
              << core::replica_spread_name(faults.spread)
              << (faults.script.empty()
                      ? std::string()
                      : "; scripted events: " +
                            std::to_string(faults.script.size()))
              << "\n\n";
  }

  // --- Table 1: fault rate x replication degree x strategy. -------------
  std::vector<std::string> json_rows;
  common::Table table({"mttf s", "degree", "strategy", "avail", "coverage",
                       "p99 ms", "retries", "failovers", "KiB moved",
                       "replica KiB"});
  // One fault timeline per Table-1 row group: --fault-script pins the
  // single scripted timeline; otherwise the historical low/high
  // fault-rate pair, hierarchical when the topology carries domain MTTFs.
  struct Timeline {
    std::string label;
    double mttf_ms = 0.0;  // -1 when scripted
    sim::FaultSchedule schedule;
  };
  std::vector<Timeline> timelines;
  if (!faults.script.empty()) {
    timelines.push_back({"script", -1.0, faults.build_schedule(nodes)});
  } else {
    for (const double mttf_scale : {4.0, 1.0}) {
      sim::FaultScheduleConfig sched_cfg = faults.schedule_config();
      sched_cfg.mttf_ms = faults.mttf_ms * mttf_scale;
      timelines.push_back(
          {common::Table::num(sched_cfg.mttf_ms / 1000.0, 0),
           sched_cfg.mttf_ms,
           faults.pool && (sched_cfg.rack_mttf_ms > 0.0 ||
                           sched_cfg.row_mttf_ms > 0.0)
               ? sim::FaultSchedule::generate_hierarchical(*faults.pool,
                                                           sched_cfg)
               : sim::FaultSchedule::generate(nodes, sched_cfg)});
    }
  }
  for (const Timeline& timeline : timelines) {
    const sim::FaultSchedule& schedule = timeline.schedule;
    for (const int degree : {0, 1, nodes - 1}) {
      for (const std::string& strategy : strategies) {
        const core::PlacementPlan plan = optimizer.run(strategy);
        const auto map = tb.build_map(plan.keyword_to_node, nodes, degree,
                                      faults.spread, faults.pool.get());
        sim::Cluster cluster(nodes, capacity);
        cluster.install_placement(map, tb.sizes);

        sim::FaultReplayConfig replay_cfg;
        replay_cfg.faults = &schedule;
        replay_cfg.retry = faults.retry_policy();
        replay_cfg.arrival_rate_qps = arrival_qps;
        replay_cfg.arrival_seed = cfg.seed;
        const sim::FaultReplayStats stats = sim::replay_trace_with_faults(
            cluster, tb.index, tb.february, replay_cfg);

        const double replica_kib = static_cast<double>(map->bytes()) / 1024.0;
        table.add_row(
            {timeline.label,
             std::to_string(degree), strategy,
             common::Table::pct(stats.availability),
             common::Table::pct(stats.mean_coverage),
             common::Table::num(stats.base.p99_latency_ms, 2),
             std::to_string(stats.retries), std::to_string(stats.failovers),
             common::Table::num(
                 static_cast<double>(stats.base.total_bytes) / 1024, 1),
             common::Table::num(replica_kib, 1)});

        std::ostringstream row;
        row << "  {\"seed\": " << cfg.seed << ", \"threads\": " << cfg.threads
            << ", \"mttf_ms\": " << timeline.mttf_ms
            << ", \"degree\": " << degree << ", \"strategy\": \"" << strategy
            << "\", \"availability\": " << stats.availability
            << ", \"mean_coverage\": " << stats.mean_coverage
            << ", \"p99_latency_ms\": " << stats.base.p99_latency_ms
            << ", \"retries\": " << stats.retries
            << ", \"failovers\": " << stats.failovers
            << ", \"unserved_keywords\": " << stats.unserved_keywords
            << ", \"total_bytes\": " << stats.base.total_bytes
            << ", \"replica_bytes\": " << map->bytes() << "}";
        json_rows.push_back(row.str());
      }
    }
  }
  table.print(std::cout);
  std::cout << "\n(degree = replicas beyond the primary; replicas track the"
               " placement, so failover lands on the co-location-preserving"
               " node. Degree >= 1 should dominate degree 0 availability"
               " for every strategy; full replication trades storage for"
               " the transfer-free limit)\n\n";

  // --- Table 2: recovery re-placement under a migration budget. ---------
  const sim::FaultSchedule schedule = faults.build_schedule(nodes);
  // The worst instant: scan transitions for the maximum simultaneous
  // death toll (ties: earliest instant).
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
    std::cout << "recovery: the fault schedule never kills a node within"
                 " the horizon; nothing to re-place.\n";
  } else {
    const std::vector<bool> alive = schedule.alive_mask(worst_time);
    std::cout << "recovery snapshot: t=" << common::Table::num(worst_time, 0)
              << "ms, " << worst_dead << "/" << nodes << " nodes dead\n\n";

    const core::PlacementPlan plan = optimizer.run("lprr");
    const core::CcaInstance& instance = optimizer.scoped_instance();
    core::Placement scoped(plan.scope.size());
    for (std::size_t i = 0; i < plan.scope.size(); ++i)
      scoped[i] = plan.keyword_to_node[plan.scope[i]];

    // Restoration value = query frequency: recovering a hot keyword's
    // index buys more availability per migrated byte than a cold one's.
    const std::vector<std::size_t> freq = tb.january.keyword_frequencies();
    std::vector<double> weights(plan.scope.size());
    for (std::size_t i = 0; i < plan.scope.size(); ++i)
      weights[i] = static_cast<double>(freq[plan.scope[i]]) + 1.0;

    const double avail_before =
        frozen_availability(tb.february, plan.keyword_to_node, alive);
    common::Table recovery({"budget", "lost", "recovered", "coverage",
                            "KiB migrated", "avail before", "avail after"});
    for (const double budget : {0.0, 0.05, 0.25, 1.0}) {
      core::RecoveryConfig rec_cfg;
      rec_cfg.migration_budget_fraction = budget;
      rec_cfg.seed = cfg.seed;
      const core::RecoveryResult result =
          core::RecoveryPlanner(rec_cfg).replan(instance, scoped, alive,
                                                weights);
      std::vector<int> repaired = plan.keyword_to_node;
      for (std::size_t i = 0; i < plan.scope.size(); ++i)
        repaired[plan.scope[i]] = result.placement[i];
      recovery.add_row(
          {common::Table::pct(budget), std::to_string(result.objects_lost),
           std::to_string(result.objects_recovered),
           common::Table::pct(result.coverage_restored),
           common::Table::num(result.migration.bytes_moved / 1024, 1),
           common::Table::pct(avail_before),
           common::Table::pct(
               frozen_availability(tb.february, repaired, alive))});

      std::ostringstream row;
      row << "  {\"seed\": " << cfg.seed << ", \"threads\": " << cfg.threads
          << ", \"recovery_budget\": " << budget
          << ", \"objects_lost\": " << result.objects_lost
          << ", \"objects_recovered\": " << result.objects_recovered
          << ", \"coverage_restored\": " << result.coverage_restored
          << ", \"bytes_migrated\": " << result.migration.bytes_moved
          << ", \"avail_before\": " << avail_before << ", \"avail_after\": "
          << frozen_availability(tb.february, repaired, alive) << "}";
      json_rows.push_back(row.str());
    }
    recovery.print(std::cout);
    std::cout << "\n(budget as a fraction of total scope bytes; coverage ="
                 " recovered / lost importance weight. Availability is the"
                 " evaluation trace re-scored at the frozen snapshot with"
                 " no failover — what re-placement alone restores. Tail"
                 " keywords stay hashed, so 100% needs every node or"
                 " replicas)\n";
  }

  // --- Tables 3/4: hierarchical failure domains (--topology only). ------
  if (faults.pool) {
    const sim::PoolMap& pool = *faults.pool;
    const auto gran_name = [](sim::FaultDomain d) {
      switch (d) {
        case sim::FaultDomain::kNode: return "node";
        case sim::FaultDomain::kRack: return "rack";
        case sim::FaultDomain::kRow: return "row";
      }
      return "?";
    };

    // One scripted whole-domain outage per granularity the topology
    // supports: domain 0 dead for the middle half of the horizon. Every
    // (spread, degree) cell replays the identical timeline, so the grid
    // isolates what domain-aware replica tails buy when the blast radius
    // grows from one node to a rack to a row.
    std::vector<sim::FaultDomain> granularities = {sim::FaultDomain::kNode};
    if (pool.num_racks() >= 2)
      granularities.push_back(sim::FaultDomain::kRack);
    if (pool.num_rows() >= 2) granularities.push_back(sim::FaultDomain::kRow);
    std::vector<core::ReplicaSpread> spreads = {core::ReplicaSpread::kFlat,
                                                core::ReplicaSpread::kRack};
    if (pool.num_rows() >= 2) spreads.push_back(core::ReplicaSpread::kRow);

    const std::string& strategy = strategies.back();
    const core::PlacementPlan plan = optimizer.run(strategy);
    const double crash_ms = 0.25 * faults.horizon_ms;
    const double recover_ms = 0.75 * faults.horizon_ms;

    std::cout << "\ndomain outage grid (strategy=" << strategy
              << "): domain 0 dead on ["
              << common::Table::num(crash_ms, 0) << "ms, "
              << common::Table::num(recover_ms, 0) << "ms)\n\n";

    common::Table grid({"granularity", "spread", "degree", "avail",
                        "coverage", "p99 ms", "retries", "failovers"});
    for (const sim::FaultDomain granularity : granularities) {
      std::vector<sim::DomainFaultEvent> outage;
      outage.push_back(
          {crash_ms, granularity, 0, sim::FaultEventKind::kCrash});
      outage.push_back(
          {recover_ms, granularity, 0, sim::FaultEventKind::kRecover});
      const sim::FaultSchedule domain_schedule =
          sim::FaultSchedule::from_domain_events(pool, outage);
      for (const core::ReplicaSpread spread : spreads) {
        for (const int degree : {1, 2}) {
          const auto map = tb.build_map(plan.keyword_to_node, nodes, degree,
                                        spread, &pool);
          sim::Cluster cluster(nodes, capacity);
          cluster.install_placement(map, tb.sizes);

          sim::FaultReplayConfig replay_cfg;
          replay_cfg.faults = &domain_schedule;
          replay_cfg.retry = faults.retry_policy();
          replay_cfg.arrival_rate_qps = arrival_qps;
          replay_cfg.arrival_seed = cfg.seed;
          const sim::FaultReplayStats stats = sim::replay_trace_with_faults(
              cluster, tb.index, tb.february, replay_cfg);

          grid.add_row({gran_name(granularity),
                        core::replica_spread_name(spread),
                        std::to_string(degree),
                        common::Table::pct(stats.availability),
                        common::Table::pct(stats.mean_coverage),
                        common::Table::num(stats.base.p99_latency_ms, 2),
                        std::to_string(stats.retries),
                        std::to_string(stats.failovers)});

          std::ostringstream row;
          row << "  {\"seed\": " << cfg.seed << ", \"threads\": "
              << cfg.threads << ", \"granularity\": \""
              << gran_name(granularity) << "\", \"spread\": \""
              << core::replica_spread_name(spread) << "\", \"degree\": "
              << degree << ", \"availability\": " << stats.availability
              << ", \"mean_coverage\": " << stats.mean_coverage
              << ", \"p99_latency_ms\": " << stats.base.p99_latency_ms
              << ", \"retries\": " << stats.retries
              << ", \"failovers\": " << stats.failovers
              << ", \"unserved_keywords\": " << stats.unserved_keywords
              << ", \"replica_bytes\": " << map->bytes() << "}";
          json_rows.push_back(row.str());
        }
      }
    }
    grid.print(std::cout);
    std::cout << "\n(the flat tail (primary+r) mod N stays inside a"
                 " rack-major-numbered rack for small r, so a rack loss"
                 " kills primary and replicas together; rack/row spread"
                 " places the tail across domains and should dominate flat"
                 " at rack/row granularity for degree >= 1)\n\n";

    // --- Table 4: rebuild of the dead domain, funnel vs declustered. ----
    // At mid-outage the dead domain's scope objects are re-placed under
    // an unlimited budget; the two modes differ only in destination
    // choice, which is exactly what the makespan measures.
    const core::PlacementPlan rec_plan = optimizer.run("lprr");
    const core::CcaInstance& instance = optimizer.scoped_instance();
    core::Placement scoped(rec_plan.scope.size());
    for (std::size_t i = 0; i < rec_plan.scope.size(); ++i)
      scoped[i] = rec_plan.keyword_to_node[rec_plan.scope[i]];
    const std::vector<std::size_t> freq = tb.january.keyword_frequencies();
    std::vector<double> weights(rec_plan.scope.size());
    for (std::size_t i = 0; i < rec_plan.scope.size(); ++i)
      weights[i] = static_cast<double>(freq[rec_plan.scope[i]]) + 1.0;

    common::Table rebuild({"granularity", "mode", "lost", "recovered",
                           "destinations", "makespan ms"});
    for (const sim::FaultDomain granularity : granularities) {
      std::vector<sim::DomainFaultEvent> outage;
      outage.push_back(
          {crash_ms, granularity, 0, sim::FaultEventKind::kCrash});
      outage.push_back(
          {recover_ms, granularity, 0, sim::FaultEventKind::kRecover});
      const sim::FaultSchedule domain_schedule =
          sim::FaultSchedule::from_domain_events(pool, outage);
      const std::vector<bool> alive =
          domain_schedule.alive_mask(0.5 * faults.horizon_ms);

      for (const core::RebuildMode mode :
           {core::RebuildMode::kSuccessor, core::RebuildMode::kDeclustered}) {
        const char* mode_name =
            mode == core::RebuildMode::kSuccessor ? "successor"
                                                  : "declustered";
        core::RecoveryConfig rec_cfg;
        rec_cfg.migration_budget_fraction = 1.0;
        rec_cfg.capacity_headroom = 2.0;
        rec_cfg.seed = cfg.seed;
        rec_cfg.rebuild_mode = mode;
        rec_cfg.rebuild_mbps = faults.rebuild_mbps;
        const core::RecoveryResult result =
            core::RecoveryPlanner(rec_cfg).replan(instance, scoped, alive,
                                                  weights);
        rebuild.add_row({gran_name(granularity), mode_name,
                         std::to_string(result.objects_lost),
                         std::to_string(result.objects_recovered),
                         std::to_string(result.rebuild_destinations),
                         common::Table::num(result.rebuild_makespan_ms, 3)});

        std::ostringstream row;
        row << "  {\"seed\": " << cfg.seed << ", \"threads\": "
            << cfg.threads << ", \"granularity\": \""
            << gran_name(granularity) << "\", \"rebuild_mode\": \""
            << mode_name << "\", \"objects_lost\": " << result.objects_lost
            << ", \"objects_recovered\": " << result.objects_recovered
            << ", \"rebuild_destinations\": " << result.rebuild_destinations
            << ", \"rebuild_makespan_ms\": " << result.rebuild_makespan_ms
            << ", \"bytes_migrated\": " << result.migration.bytes_moved
            << "}";
        json_rows.push_back(row.str());
      }
    }
    rebuild.print(std::cout);
    std::cout << "\n(makespan = largest per-destination rebuild slice over "
              << common::Table::num(faults.rebuild_mbps, 0)
              << " Mb/s; the successor funnel ingests a whole domain"
                 " through one survivor, declustering fans the same bytes"
                 " across every survivor with headroom)\n";
  }

  if (!cfg.json_path.empty() && !json_rows.empty()) {
    std::ofstream out(cfg.json_path);
    CCA_CHECK_MSG(out.good(), "cannot write JSON log to " << cfg.json_path);
    out << "[\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i)
      out << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    out << "]\n";
    std::cout << "\nwrote " << json_rows.size() << " cells to "
              << cfg.json_path << "\n";
  }
  bench::write_metrics(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, main_body);
}
