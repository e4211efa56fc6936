// Shared experiment testbed for the bench harnesses.
//
// Every figure-reproduction binary works from the same ingredients the
// paper's evaluation uses (Sec. 4.1): a web corpus with inverted indices,
// a "January" training trace, a "February" evaluation trace, and the
// partial-optimization pipeline. This header centralizes their
// construction so all benches stay parameter-for-parameter comparable.
//
// Scale note (EXPERIMENTS.md): the paper ran 3.7M pages / 6.8M queries /
// 253k keywords with 48-hour LP solves; the defaults here are chosen so
// every bench finishes quickly while keeping the same scope:vocabulary
// and capacity regimes. Flags let you scale up.
//
// Parallelism: every bench accepts --threads=N (or the CCA_THREADS env
// var; default hardware_concurrency) for the common::parallel pool. The
// grid benches additionally evaluate independent grid cells concurrently.
// All table output is bit-identical for any thread count (the substrate's
// determinism contract — see src/common/parallel.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placement_map.hpp"
#include "search/block_postings.hpp"
#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/placement_service.hpp"
#include "sim/pool_map.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca::bench {

/// The shared main of every bench and example: parses argv, runs `body`
/// and returns its status. A common::Error (bad flag or value, unreadable
/// input, failed check) prints as one stderr line and exits 2; --help
/// prints the flags the body read and exits 0.
inline int run_main(int argc, char** argv,
                    int (*body)(const common::CliArgs& args)) {
  try {
    const common::CliArgs args(argc, argv);
    return body(args);
  } catch (const common::HelpRequested& help) {
    std::cout << help.what();
    return 0;
  } catch (const common::Error& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
  }
}

struct TestbedConfig {
  std::size_t vocabulary = 4000;
  std::size_t documents = 6000;
  double words_per_doc = 80.0;
  std::size_t queries = 40000;
  std::size_t topics = 200;
  std::size_t topic_size = 8;
  double coherence = 0.9;
  bool disjoint_topics = false;
  std::uint64_t seed = 1;
  int threads = 0;        // resolved pool size (after --threads/CCA_THREADS)
  int seeds = 3;          // --seeds=K: independent testbeds per grid row
  bool csv = false;       // --csv: machine-readable table output
  std::string json_path;  // --json=<path>: machine-readable per-cell dump
  /// --metrics=<path>: enables the process-wide MetricsRegistry and names
  /// the JSON file write_metrics() dumps at exit. Enabling metrics never
  /// changes bench stdout (the contract tested by the smoke suite).
  std::string metrics_path;
  /// --miner={exact,sketch} plus --miner-pairs/--miner-objects/
  /// --miner-width/--miner-depth: which correlation miner feeds every
  /// optimizer built from this testbed. Default exact — the historical
  /// byte-identical pipeline.
  core::MinerOptions miner;
  /// --hash-tail={md5,jump}: the hash rule placing out-of-scope keywords
  /// and backing every installed PlacementMap. Default md5 — the paper's
  /// baseline and the historical byte-identical output.
  core::HashTail hash_tail = core::HashTail::kMd5;
  /// --churn=add:t,node;remove:t,node — membership events on the
  /// query-arrival clock, parsed strictly (empty = no churn).
  std::vector<sim::ChurnEvent> churn;

  static TestbedConfig from_cli(const common::CliArgs& args) {
    TestbedConfig cfg;
    cfg.vocabulary =
        static_cast<std::size_t>(args.get_int("vocab", cfg.vocabulary));
    cfg.documents =
        static_cast<std::size_t>(args.get_int("docs", cfg.documents));
    cfg.queries =
        static_cast<std::size_t>(args.get_int("queries", cfg.queries));
    cfg.topics = static_cast<std::size_t>(args.get_int("topics", cfg.topics));
    cfg.coherence = args.get_double("coherence", cfg.coherence);
    cfg.disjoint_topics = args.get_bool("disjoint", cfg.disjoint_topics);
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", cfg.seed));
    cfg.seeds = static_cast<int>(args.get_int("seeds", cfg.seeds));
    cfg.csv = args.get_bool("csv", cfg.csv);
    cfg.json_path = args.get_string("json", "");
    cfg.metrics_path = args.get_string("metrics", "");
    if (!cfg.metrics_path.empty())
      common::MetricsRegistry::global().set_enabled(true);
    const std::string miner = args.get_string("miner", "exact");
    CCA_CHECK_MSG(core::MinerOptions::parse_kind(miner, &cfg.miner.kind),
                  "--miner must be 'exact' or 'sketch', got '" << miner
                                                               << "'");
    cfg.miner.sketch.top_pairs = static_cast<std::size_t>(args.get_int(
        "miner-pairs", static_cast<std::int64_t>(cfg.miner.sketch.top_pairs)));
    cfg.miner.sketch.top_objects = static_cast<std::size_t>(
        args.get_int("miner-objects",
                     static_cast<std::int64_t>(cfg.miner.sketch.top_objects)));
    cfg.miner.sketch.cm_width = static_cast<std::size_t>(args.get_int(
        "miner-width", static_cast<std::int64_t>(cfg.miner.sketch.cm_width)));
    cfg.miner.sketch.cm_depth = static_cast<std::size_t>(args.get_int(
        "miner-depth", static_cast<std::int64_t>(cfg.miner.sketch.cm_depth)));
    // A bad enum value is a hard error naming the flag, the accepted
    // values, and the closest candidate.
    const auto enum_error = [](const char* flag, const std::string& got,
                               const std::vector<std::string>& accepted) {
      common::reject_enum_value(flag, got, accepted);
    };
    const std::string tail = args.get_string("hash-tail", "");
    if (!tail.empty() && !core::parse_hash_tail(tail, &cfg.hash_tail))
      enum_error("hash-tail", tail, {"md5", "jump"});
    // --codec={block,varint}: the posting codec every QueryEngine built
    // from this process uses. Answer-invariant by construction (both
    // codecs decode to the same ID sequence; the cost model is
    // untouched) — it selects the serving data plane's speed, with
    // varint kept as the ablation baseline.
    const std::string codec = args.get_string("codec", "");
    if (!codec.empty()) {
      search::PostingCodec posting_codec;
      if (!search::parse_posting_codec(codec, &posting_codec))
        enum_error("codec", codec, {"block", "varint"});
      search::set_default_posting_codec(posting_codec);
    }
    cfg.churn = sim::parse_churn_script(args.get_string("churn", ""));
    // The thread knob takes effect immediately: every bench parses its
    // flags before doing any work, so the pool is sized before first use.
    const int threads = static_cast<int>(args.get_int("threads", 0));
    if (threads > 0) common::set_global_threads(threads);
    cfg.threads = common::configured_threads();
    return cfg;
  }

  /// A copy with the seed advanced by `offset` — the per-seed config of a
  /// multi-seed grid row.
  TestbedConfig with_seed_offset(std::uint64_t offset) const {
    TestbedConfig copy = *this;
    copy.seed = seed + offset;
    return copy;
  }
};

/// The shared fault-injection flag group (--faults, --mttf, --mttr, ...).
/// Any bench that can simulate failures parses this next to its
/// TestbedConfig; with --faults absent the group is inert and the bench
/// must produce its healthy output byte for byte.
///
/// The hierarchical extension rides the same group: --topology installs
/// the failure-domain tree (rows:racks:nodes, or @<script>),
/// --replica-spread={flat,rack,row} picks the replica-tail rule,
/// --rack-mttf/--row-mttf (with their --*-mttr) enable correlated
/// whole-domain fault draws, and --fault-script pins an explicit event
/// timeline (node- and domain-level). Everything is validated here, at
/// parse time: spread or domain faults without a topology, malformed
/// scripts, and nonsensical retry backoffs all fail before any work runs.
struct FaultFlags {
  bool enabled = false;        // --faults
  double mttf_ms = 10000.0;    // --mttf: mean time to failure, ms
  double mttr_ms = 1000.0;     // --mttr: mean time to repair, ms
  double horizon_ms = 60000.0; // --fault-horizon: schedule span, ms
  std::uint64_t fault_seed = 1;  // --fault-seed: schedule substream
  int degree = 1;              // --degree: replicas beyond the primary
  double timeout_ms = 5.0;     // --timeout-ms: dead-contact timeout
  int max_attempts = 3;        // --max-attempts: contacts per fetch
  double base_backoff_ms = 1.0;   // --base-backoff-ms: first retry wait
  double max_backoff_ms = 64.0;   // --max-backoff-ms: backoff cap
  double rack_mttf_ms = 0.0;      // --rack-mttf: 0 = no rack faults
  double rack_mttr_ms = 2000.0;   // --rack-mttr
  double row_mttf_ms = 0.0;       // --row-mttf: 0 = no row faults
  double row_mttr_ms = 5000.0;    // --row-mttr
  double rebuild_mbps = 800.0;    // --rebuild-mbps: per-node ingest
  /// --replica-spread: how replica tails relate to the topology.
  core::ReplicaSpread spread = core::ReplicaSpread::kFlat;
  /// --topology: the failure-domain tree; null = flat cluster.
  std::shared_ptr<const sim::PoolMap> pool;
  /// --fault-script: explicit node/rack/row events (empty = generated).
  std::vector<sim::DomainFaultEvent> script;

  static FaultFlags from_cli(const common::CliArgs& args) {
    FaultFlags f;
    f.enabled = args.get_bool("faults", f.enabled);
    f.mttf_ms = args.get_double("mttf", f.mttf_ms);
    f.mttr_ms = args.get_double("mttr", f.mttr_ms);
    f.horizon_ms = args.get_double("fault-horizon", f.horizon_ms);
    f.fault_seed =
        static_cast<std::uint64_t>(args.get_int("fault-seed", f.fault_seed));
    f.degree = static_cast<int>(args.get_int("degree", f.degree));
    f.timeout_ms = args.get_double("timeout-ms", f.timeout_ms);
    f.max_attempts =
        static_cast<int>(args.get_int("max-attempts", f.max_attempts));
    f.base_backoff_ms =
        args.get_double("base-backoff-ms", f.base_backoff_ms);
    f.max_backoff_ms = args.get_double("max-backoff-ms", f.max_backoff_ms);
    f.rack_mttf_ms = args.get_double("rack-mttf", f.rack_mttf_ms);
    f.rack_mttr_ms = args.get_double("rack-mttr", f.rack_mttr_ms);
    f.row_mttf_ms = args.get_double("row-mttf", f.row_mttf_ms);
    f.row_mttr_ms = args.get_double("row-mttr", f.row_mttr_ms);
    f.rebuild_mbps = args.get_double("rebuild-mbps", f.rebuild_mbps);
    const std::string topology = args.get_string("topology", "");
    if (!topology.empty())
      f.pool = std::make_shared<const sim::PoolMap>(
          sim::parse_topology(topology));
    const std::string spread = args.get_string("replica-spread", "");
    if (!spread.empty() && !core::parse_replica_spread(spread, &f.spread))
      common::reject_enum_value("replica-spread", spread,
                                {"flat", "rack", "row"});
    f.script = sim::parse_fault_script(args.get_string("fault-script", ""));
    CCA_CHECK_MSG(f.spread == core::ReplicaSpread::kFlat || f.pool,
                  "--replica-spread="
                      << core::replica_spread_name(f.spread)
                      << " needs a failure-domain tree; pass --topology");
    CCA_CHECK_MSG(f.rebuild_mbps > 0.0,
                  "--rebuild-mbps must be positive, got " << f.rebuild_mbps);
    if (!f.pool) {
      CCA_CHECK_MSG(f.rack_mttf_ms == 0.0 && f.row_mttf_ms == 0.0,
                    "--rack-mttf/--row-mttf model whole-domain faults; pass "
                    "--topology");
      for (const sim::DomainFaultEvent& ev : f.script)
        CCA_CHECK_MSG(ev.domain == sim::FaultDomain::kNode,
                      "--fault-script has rack/row events; pass --topology");
    }
    // Rejects zero/negative backoffs, attempts < 1, cap below base — at
    // parse time, not mid-replay.
    f.retry_policy().validate();
    return f;
  }

  sim::FaultScheduleConfig schedule_config() const {
    sim::FaultScheduleConfig cfg;
    cfg.mttf_ms = mttf_ms;
    cfg.mttr_ms = mttr_ms;
    cfg.horizon_ms = horizon_ms;
    cfg.seed = fault_seed;
    cfg.rack_mttf_ms = rack_mttf_ms;
    cfg.rack_mttr_ms = rack_mttr_ms;
    cfg.row_mttf_ms = row_mttf_ms;
    cfg.row_mttr_ms = row_mttr_ms;
    return cfg;
  }

  sim::RetryPolicy retry_policy() const {
    sim::RetryPolicy retry;
    retry.timeout_ms = timeout_ms;
    retry.max_attempts = max_attempts;
    retry.base_backoff_ms = base_backoff_ms;
    retry.max_backoff_ms = max_backoff_ms;
    retry.seed = fault_seed;
    return retry;
  }

  /// The fault timeline for an `nodes`-node cluster, honouring the whole
  /// flag group: scripted events win, then hierarchical generation when
  /// a topology is installed, else the per-node baseline (byte-identical
  /// to the pre-topology behavior).
  sim::FaultSchedule build_schedule(int nodes) const {
    if (!script.empty()) {
      // Node-only scripts without --topology expand against the
      // single-rack flat pool (validated above).
      if (pool) return sim::FaultSchedule::from_domain_events(*pool, script);
      return sim::FaultSchedule::from_domain_events(sim::PoolMap::flat(nodes),
                                                    script);
    }
    if (pool && (rack_mttf_ms > 0.0 || row_mttf_ms > 0.0))
      return sim::FaultSchedule::generate_hierarchical(*pool,
                                                       schedule_config());
    return sim::FaultSchedule::generate(nodes, schedule_config());
  }
};

/// Prints `table` honouring --csv. Shared by every bench so the flag
/// behaves identically everywhere.
inline void print_table(const common::Table& table, const TestbedConfig& cfg) {
  if (cfg.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Dumps the process-wide metrics registry as JSON to --metrics=<path>
/// (no-op when the flag was not passed). The confirmation note goes to
/// stderr: stdout must stay byte-identical with metrics on or off.
inline void write_metrics(const TestbedConfig& cfg) {
  if (cfg.metrics_path.empty()) return;
  std::ofstream out(cfg.metrics_path);
  CCA_CHECK_MSG(out.good(), "cannot write metrics to " << cfg.metrics_path);
  common::MetricsRegistry::global().write_json(out);
  std::cerr << "wrote metrics to " << cfg.metrics_path << "\n";
}

/// One measured grid cell with its wall-clock, for tables and --json.
struct CellResult {
  sim::ReplayStats stats;
  double wall_ms = 0.0;
};

/// Collects per-cell records and dumps them as a JSON array so the perf
/// trajectory (BENCH_*.json) can be tracked across PRs. Append rows in
/// deterministic (grid) order after the parallel join; the writer itself
/// is not thread-safe.
class JsonLog {
 public:
  /// `path` empty disables the log (add/write become no-ops).
  explicit JsonLog(std::string path) : path_(std::move(path)) {}

  void add(const TestbedConfig& cfg, const char* strategy, int nodes,
           std::size_t scope, const CellResult& cell) {
    if (path_.empty()) return;
    std::ostringstream row;
    row << "  {\"seed\": " << cfg.seed << ", \"threads\": " << cfg.threads
        << ", \"scope\": " << scope << ", \"nodes\": " << nodes
        << ", \"strategy\": \"" << strategy << "\""
        << ", \"total_bytes\": " << cell.stats.total_bytes
        << ", \"mean_bytes_per_query\": " << cell.stats.mean_bytes_per_query
        << ", \"p99_bytes_per_query\": " << cell.stats.p99_bytes_per_query
        << ", \"mean_latency_ms\": " << cell.stats.mean_latency_ms
        << ", \"p99_latency_ms\": " << cell.stats.p99_latency_ms
        << ", \"storage_imbalance\": " << cell.stats.storage_imbalance
        << ", \"wall_ms\": " << cell.wall_ms << "}";
    rows_.push_back(row.str());
  }

  /// Writes the collected array; call once, after all adds.
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

struct Testbed {
  TestbedConfig config;
  trace::WorkloadModel model;
  trace::QueryTrace january;
  trace::QueryTrace february;
  search::InvertedIndex index;
  std::vector<std::uint64_t> sizes;
  double total_index_bytes = 0.0;

  static Testbed build(const TestbedConfig& cfg) {
    trace::CorpusConfig corpus_cfg;
    corpus_cfg.num_documents = cfg.documents;
    corpus_cfg.vocabulary_size = cfg.vocabulary;
    corpus_cfg.mean_distinct_words = cfg.words_per_doc;
    corpus_cfg.seed = cfg.seed;

    trace::WorkloadConfig query_cfg;
    query_cfg.vocabulary_size = cfg.vocabulary;
    query_cfg.num_topics = cfg.topics;
    query_cfg.topic_size = cfg.topic_size;
    query_cfg.topic_coherence = cfg.coherence;
    query_cfg.disjoint_topics = cfg.disjoint_topics;
    query_cfg.seed = cfg.seed;

    Testbed tb{cfg,
               trace::WorkloadModel(query_cfg),
               trace::QueryTrace(),
               trace::QueryTrace(),
               search::InvertedIndex(),
               {},
               0.0};
    tb.january = tb.model.generate(cfg.queries, cfg.seed * 7919 + 1);
    tb.february = tb.model.generate(cfg.queries, cfg.seed * 104729 + 2);
    tb.index =
        search::InvertedIndex::build(trace::Corpus::generate(corpus_cfg));
    tb.sizes = tb.index.index_sizes();
    for (std::uint64_t s : tb.sizes)
      tb.total_index_bytes += static_cast<double>(s);
    return tb;
  }

  void print_banner(const char* title) const {
    std::cout << title << "\n"
              << "testbed: vocab=" << config.vocabulary
              << " docs=" << config.documents << " queries=" << config.queries
              << " topics=" << config.topics
              << (config.disjoint_topics ? " (disjoint)" : " (overlapping)")
              << " coherence=" << config.coherence << " seed=" << config.seed
              << " threads=" << config.threads
              << " index=" << static_cast<long>(total_index_bytes / 1024)
              << "KiB\n\n";
  }

  /// The optimizer config every strategy run starts from, so benches that
  /// build their own optimizers stay parameter-for-parameter comparable.
  core::PartialOptimizerConfig optimizer_config(int nodes, std::size_t scope,
                                                double capacity_slack =
                                                    2.0) const {
    core::PartialOptimizerConfig cfg;
    cfg.num_nodes = nodes;
    cfg.scope = scope;
    cfg.seed = config.seed;
    cfg.capacity_slack = capacity_slack;
    cfg.hash_tail = config.hash_tail;
    cfg.miner = config.miner;
    cfg.rounding.trials = 16;
    return cfg;
  }

  /// Wraps a finished plan as the placement epoch the serving side
  /// installs (this testbed's hash tail; epoch 0). Passing a pool map
  /// and spread builds domain-aware replica tails; the flat default is
  /// the historical behavior.
  std::shared_ptr<const core::PlacementMap> build_map(
      const std::vector<core::NodeId>& keyword_to_node, int nodes,
      int degree = 0,
      core::ReplicaSpread spread = core::ReplicaSpread::kFlat,
      const sim::PoolMap* pool = nullptr) const {
    core::PlacementMapConfig map_cfg;
    map_cfg.num_nodes = nodes;
    map_cfg.degree = degree;
    map_cfg.hash_tail = config.hash_tail;
    map_cfg.spread = spread;
    if (pool) {
      CCA_CHECK_MSG(pool->num_nodes() == nodes,
                    "--topology describes " << pool->num_nodes()
                                            << " nodes, bench wants "
                                            << nodes);
      map_cfg.node_rack = pool->node_rack();
      map_cfg.rack_row = pool->rack_row();
      map_cfg.pool_version = pool->version();
    }
    return std::make_shared<const core::PlacementMap>(
        core::PlacementMap::build(keyword_to_node, map_cfg));
  }

  /// Runs one strategy end-to-end and replays the February trace.
  sim::ReplayStats measure(std::string_view strategy, int nodes,
                           std::size_t scope,
                           core::PlacementPlan* plan_out = nullptr,
                           double capacity_slack = 2.0) const {
    const core::PartialOptimizer optimizer(
        january, sizes, optimizer_config(nodes, scope, capacity_slack));
    const core::PlacementPlan plan = optimizer.run(strategy);
    if (plan_out) *plan_out = plan;

    sim::Cluster cluster(nodes,
                         capacity_slack * total_index_bytes / nodes);
    cluster.install_placement(build_map(plan.keyword_to_node, nodes), sizes);
    return sim::replay_trace(cluster, index, february);
  }

  /// measure() plus wall-clock, for grid cells and the --json dump.
  CellResult measure_cell(std::string_view strategy, int nodes,
                          std::size_t scope) const {
    const auto start = std::chrono::steady_clock::now();
    CellResult cell;
    cell.stats = measure(strategy, nodes, scope);
    cell.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return cell;
  }
};

}  // namespace cca::bench
