#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/component_solver.hpp"
#include "core/correlation.hpp"
#include "core/migration.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placement_map.hpp"
#include "core/rounding.hpp"
#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "sim/cluster.hpp"
#include "sim/event_sim.hpp"
#include "sim/placement_service.hpp"
#include "sim/replay.hpp"
#include "spans.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca::perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (failed_ < 10) std::cerr << "check failed: " << what << "\n";
  ++failed_;
}

void Checks::count(std::int64_t attempted, std::int64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  if (failed > 0 && failed_ < 10)
    std::cerr << "check failed " << failed << "/" << attempted << " times: "
              << what << "\n";
  failed_ += failed;
}

namespace {

constexpr double kCapacitySlack = 2.0;

// Each workload's planning inputs are a fixed data set drawn from seed 1:
// the corpus, the interest model, its drift, the training traces and the
// optimizer's random streams. The benchmark seed draws the traffic that
// is evaluated or served: the February trace (grid, serve) and each
// window's event-sim trace and arrivals (replan). Planning inputs drawn
// per seed would make runs at different seeds measure different
// workloads: which keywords form topics alone moves bytes per query by a
// third, and LP and rounding effort moves wall time by a fifth. At seed 1
// the grid's testbed is exactly bench_headline_summary's.
constexpr std::uint64_t kDatasetSeed = 1;

double elapsed_ms(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

trace::WorkloadModel make_model(std::size_t vocabulary, std::size_t topics,
                                std::uint64_t seed) {
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = vocabulary;
  cfg.num_topics = topics;
  cfg.topic_size = 8;
  cfg.topic_coherence = 0.9;
  cfg.seed = seed;
  return trace::WorkloadModel(cfg);
}

trace::QueryTrace generate(const trace::WorkloadModel& model,
                           std::size_t queries, std::uint64_t seed) {
  const Span span("trace.generate");
  return model.generate(queries, seed);
}

/// Corpus -> inverted index, the paper's Sec. 4.1 testbed ingredients.
search::InvertedIndex build_index(std::size_t documents,
                                  std::size_t vocabulary,
                                  std::uint64_t seed) {
  trace::CorpusConfig cfg;
  cfg.num_documents = documents;
  cfg.vocabulary_size = vocabulary;
  cfg.mean_distinct_words = 80.0;
  cfg.seed = seed;
  std::optional<trace::Corpus> corpus;
  {
    const Span span("trace.corpus");
    corpus.emplace(trace::Corpus::generate(cfg));
  }
  const Span span("search.index_build");
  return search::InvertedIndex::build(*corpus);
}

std::unique_ptr<search::QueryEngine> build_engine(
    const search::InvertedIndex& index) {
  const Span span("search.encode");
  return std::make_unique<search::QueryEngine>(index);
}

double total_bytes(const std::vector<std::uint64_t>& sizes) {
  double total = 0.0;
  for (const std::uint64_t s : sizes) total += static_cast<double>(s);
  return total;
}

core::PartialOptimizerConfig optimizer_config(int nodes, std::size_t scope,
                                              std::uint64_t seed) {
  core::PartialOptimizerConfig cfg;
  cfg.num_nodes = nodes;
  cfg.scope = scope;
  cfg.seed = seed;
  cfg.capacity_slack = kCapacitySlack;
  cfg.rounding.trials = 16;
  return cfg;
}

core::PlacementMapConfig map_config(int nodes, std::uint64_t epoch = 0) {
  core::PlacementMapConfig cfg;
  cfg.num_nodes = nodes;
  cfg.epoch = epoch;
  return cfg;
}

std::unique_ptr<core::PartialOptimizer> construct_optimizer(
    const trace::QueryTrace& training,
    const std::vector<std::uint64_t>& sizes,
    const core::PartialOptimizerConfig& cfg) {
  const Span span("core.optimizer_ctor");
  return std::make_unique<core::PartialOptimizer>(training, sizes, cfg);
}

/// Keyword -> node with the scope keywords placed by `scope_placement`
/// and every other keyword on its hash node — what PartialOptimizer::run
/// assembles, rebuilt from the public API ("random-hash" supplies the
/// scope list and the hash tail).
std::vector<int> assemble(const core::PartialOptimizer& opt,
                          const core::Placement& scope_placement) {
  core::PlacementPlan plan = opt.run("random-hash");
  CCA_CHECK(plan.scope.size() == scope_placement.size());
  for (std::size_t pos = 0; pos < plan.scope.size(); ++pos)
    plan.keyword_to_node[plan.scope[pos]] = scope_placement[pos];
  return std::move(plan.keyword_to_node);
}

/// LPRR as three calls on the scoped instance with the strategy's
/// options, so the traced run can time grouping, the LP and rounding
/// apart. The rounding stream is the benchmark's own: the placement is
/// an LPRR placement, not byte-for-byte run("lprr")'s.
std::vector<int> lprr_in_stages(const core::PartialOptimizer& opt) {
  const core::PartialOptimizerConfig& config = opt.config();
  const core::CcaInstance& instance = opt.scoped_instance();
  core::ComponentSolverOptions options;
  options.seed = config.seed;
  options.target_fill = config.component_fill;
  options.warm_cache = config.lp_warm_start ? opt.lp_warm_cache() : nullptr;
  {
    const Span span("core.groups");
    core::build_groups(instance, options);
  }
  std::optional<core::FractionalPlacement> fractional;
  {
    const Span span("lp.solve");
    fractional.emplace(core::ComponentLpSolver(options).solve(instance));
  }
  core::Placement placement;
  {
    const Span span("core.rounding");
    common::Rng rng(config.seed);
    placement =
        core::round_best_of(*fractional, instance, config.rounding, rng)
            .placement;
  }
  return assemble(opt, placement);
}

/// Keyword -> node for `strategy`: run(strategy), or LPRR in timed stages
/// while tracing.
std::vector<int> place(const core::PartialOptimizer& opt,
                       const char* strategy, const char* span_name) {
  const Span span(span_name);
  if (Tracer::enabled() && std::string_view(strategy) == "lprr")
    return lprr_in_stages(opt);
  return opt.run(strategy).keyword_to_node;
}

bool plan_in_range(const std::vector<int>& keyword_to_node,
                   std::size_t vocabulary, int nodes) {
  if (keyword_to_node.size() != vocabulary) return false;
  return std::all_of(keyword_to_node.begin(), keyword_to_node.end(),
                     [nodes](int n) { return n >= 0 && n < nodes; });
}

std::size_t max_width(const trace::QueryTrace& t) {
  std::size_t width = 1;
  for (const trace::Query& q : t.queries()) width = std::max(width, q.size());
  return width;
}

/// Bytes the data plane moves for every query of `t` under `map`, from
/// live execute_intersection calls.
std::uint64_t live_bytes(const search::QueryEngine& engine,
                         const core::PlacementMap& map,
                         const trace::QueryTrace& t) {
  search::QueryScratch scratch;
  scratch.reserve(max_width(t), engine.max_postings());
  scratch.begin_epoch(map.cache_token());
  const auto placement = [&map](trace::KeywordId k) {
    return map.resolve(k);
  };
  std::uint64_t bytes = 0;
  for (const trace::Query& q : t.queries())
    bytes += engine.execute_intersection(q, placement, {}, &scratch)
                 .bytes_transferred;
  return bytes;
}

void probe_constructor_layers(const trace::QueryTrace& training,
                              const std::vector<std::uint64_t>& sizes) {
  {
    const Span span("core.mine");
    core::mine_pair_weights(training, sizes,
                            core::OperationModel::kSmallestPair,
                            core::MinerOptions{});
  }
  const Span span("core.hyperedges");
  core::build_hyperedges(training);
}

// ---------------------------------------------------------------------------
// grid: the paper's headline grid, cells concurrent on the 2-thread pool.
// ---------------------------------------------------------------------------

class GridWorkload final : public Workload {
 public:
  GridWorkload(std::uint64_t seed, std::string reference)
      : seed_(seed), reference_(std::move(reference)) {}

  void build() override {
    index_ = build_index(kDocs, kVocab, kDatasetSeed);
    sizes_ = index_.index_sizes();
    total_bytes_ = total_bytes(sizes_);
    const trace::WorkloadModel model = make_model(kVocab, 200, kDatasetSeed);
    january_ = generate(model, kQueries, kDatasetSeed * 7919 + 1);
    february_ = generate(model, kQueries, seed_ * 104729 + 2);
    engine_ = build_engine(index_);
  }

  void warm_up() override { run_cell(check_cell(3), -1); }

  PassResult run_pass(Checks& checks) override {
    const std::int64_t start = now_ns();
    const std::int64_t first_unit = passes_ * kCells;
    std::vector<Cell> cells =
        common::parallel_map(kCells, [&](std::size_t i) {
          return run_cell(i, first_unit + static_cast<std::int64_t>(i));
        });
    PassResult result;
    result.wall_s = elapsed_ms(start) / 1e3;
    // Traced passes place LPRR in stages with their own rounding stream,
    // so each pass is compared with the previous pass of its own kind.
    std::vector<Cell>& previous = last_[Tracer::enabled() ? 1 : 0];
    for (std::size_t i = 0; i < kCells; ++i) {
      const Cell& cell = cells[i];
      result.unit_ms.push_back(cell.ms);
      checks.expect(cell.plan_ok, "grid plan maps a keyword outside [0, N)");
      if (!previous.empty())
        checks.expect(cell.stats.total_bytes == previous[i].stats.total_bytes,
                      "grid replay bytes differ between passes");
    }
    previous = std::move(cells);
    ++passes_;
    return result;
  }

  void probe() override { probe_constructor_layers(january_, sizes_); }

  Outcome finish(Checks& checks) override {
    Outcome out;
    const std::vector<Cell>& cells = last_[0];
    // Live data-plane bytes equal replay_trace's total, one cell per
    // strategy (the invariant any shared-evaluation rewrite must keep).
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
      const Cell& cell = cells[check_cell(s)];
      checks.expect(live_bytes(*engine_, *cell.map, february_) ==
                        cell.stats.total_bytes,
                    std::string("grid live bytes != replay bytes for ") +
                        kStrategies[s]);
    }
    const Bands bands = bands_of(cells);
    // bench_headline_summary's testbed is this grid at the data-set seed;
    // at any other seed, run that testbed's grid once more to compare.
    if (seed_ == kDatasetSeed) {
      check_bands(checks, bands);
    } else {
      GridWorkload headline(kDatasetSeed, reference_);
      headline.build();
      headline.run_pass(checks);
      check_bands(checks, bands_of(headline.last_[0]));
    }
    out.bytes_vs_hash = bands.lprr_bytes / bands.hash_bytes;
    out.tail_quantile = 0.95;  // 64 cells per pass, several passes a run
    out.info["lprr_saving_min"] = bands.min_vs_random;
    out.info["lprr_saving_max"] = bands.max_vs_random;
    out.info["lprr_bytes_per_query"] = bands.lprr_bytes / bands.lprr_queries;
    out.info["cells_per_pass"] = static_cast<double>(kCells);
    out.info["vocab"] = kVocab;
    out.info["docs"] = kDocs;
    out.info["queries_per_trace"] = kQueries;
    return out;
  }

  std::map<std::string, double> take_layer_counters() override { return {}; }

 private:
  static constexpr std::size_t kVocab = 4000;
  static constexpr std::size_t kDocs = 6000;
  static constexpr std::size_t kQueries = 40000;
  static constexpr std::array<std::size_t, 4> kScopes{250, 500, 1000, 2000};
  static constexpr std::array<int, 4> kNodes{10, 20, 50, 100};
  static constexpr std::array<const char*, 4> kStrategies{
      "random-hash", "greedy", "multilevel", "lprr"};
  static constexpr std::array<const char*, 4> kStrategySpans{
      "core.strategy.random-hash", "core.strategy.greedy",
      "core.strategy.multilevel", "core.strategy.lprr"};
  static constexpr std::size_t kCells =
      kScopes.size() * kNodes.size() * kStrategies.size();

  struct Cell {
    sim::ReplayStats stats;
    std::shared_ptr<const core::PlacementMap> map;
    double ms = 0.0;
    bool plan_ok = false;
  };

  /// Cell index of strategy `s` at scope 1000 x 20 nodes.
  static std::size_t check_cell(std::size_t s) {
    return (2 * kNodes.size() + 1) * kStrategies.size() + s;
  }

  // Same grid order, scope rule and cluster sizing as
  // bench_headline_summary, so the savings band must match its output.
  Cell run_cell(std::size_t i, std::int64_t unit) const {
    const std::size_t s = i % kStrategies.size();
    const std::size_t cell = i / kStrategies.size();
    const std::size_t scope = s == 0 ? 1 : kScopes[cell / kNodes.size()];
    const int nodes = kNodes[cell % kNodes.size()];
    const std::int64_t start = now_ns();
    Cell out;
    std::vector<int> keyword_to_node;
    {
      const Span unit_span("grid.cell", unit);
      const auto opt = construct_optimizer(
          january_, sizes_, optimizer_config(nodes, scope, kDatasetSeed));
      keyword_to_node = place(*opt, kStrategies[s], kStrategySpans[s]);
      {
        const Span span("core.map_build");
        out.map = std::make_shared<const core::PlacementMap>(
            core::PlacementMap::build(keyword_to_node, map_config(nodes)));
      }
      const Span span("sim.replay");
      sim::Cluster cluster(nodes, kCapacitySlack * total_bytes_ / nodes);
      cluster.install_placement(out.map, sizes_);
      out.stats = sim::replay_trace(cluster, index_, february_);
    }
    out.ms = elapsed_ms(start);
    out.plan_ok = plan_in_range(keyword_to_node, kVocab, nodes);
    return out;
  }

  struct Bands {
    double min_vs_random = 1.0, max_vs_random = 0.0;
    double min_vs_greedy = 1.0, max_vs_greedy = 0.0;
    double lprr_bytes = 0.0, lprr_queries = 0.0, hash_bytes = 0.0;
  };

  /// LPRR's savings bands over the grid, as bench_headline_summary
  /// computes them.
  static Bands bands_of(const std::vector<Cell>& cells) {
    Bands b;
    for (std::size_t c = 0; c < kCells / kStrategies.size(); ++c) {
      const auto bytes = [&](std::size_t s) {
        return static_cast<double>(
            cells[c * kStrategies.size() + s].stats.total_bytes);
      };
      const double vs_random = 1.0 - bytes(3) / bytes(0);
      const double vs_greedy = 1.0 - bytes(3) / bytes(1);
      b.min_vs_random = std::min(b.min_vs_random, vs_random);
      b.max_vs_random = std::max(b.max_vs_random, vs_random);
      b.min_vs_greedy = std::min(b.min_vs_greedy, vs_greedy);
      b.max_vs_greedy = std::max(b.max_vs_greedy, vs_greedy);
      b.lprr_bytes += bytes(3);
      b.hash_bytes += bytes(0);
      b.lprr_queries += static_cast<double>(
          cells[c * kStrategies.size() + 3].stats.queries);
    }
    return b;
  }

  void check_bands(Checks& checks, const Bands& b) const {
    check_band(checks, "LPRR saving vs random hash:", b.min_vs_random,
               b.max_vs_random);
    check_band(checks, "LPRR saving vs greedy:", b.min_vs_greedy,
               b.max_vs_greedy);
  }

  /// The reference holds bench_headline_summary's stdout; its band line
  /// must read exactly as the grid's own band formats.
  void check_band(Checks& checks, const std::string& label, double lo,
                  double hi) const {
    const std::string mine = common::Table::pct(lo) + " – " +
                             common::Table::pct(hi);
    std::ifstream in(reference_);
    std::string line, theirs = "(no reference)";
    while (std::getline(in, line))
      if (line.rfind(label, 0) == 0) {
        const std::size_t from = line.find_first_not_of(' ', label.size());
        const std::size_t to = line.find("   (paper", from);
        if (from != std::string::npos)
          theirs = line.substr(from, to == std::string::npos ? to : to - from);
      }
    checks.expect(mine == theirs, "grid band '" + label + " " + mine +
                                      "' != bench_headline_summary '" +
                                      theirs + "'");
  }

  std::uint64_t seed_;
  std::string reference_;
  search::InvertedIndex index_;
  std::vector<std::uint64_t> sizes_;
  double total_bytes_ = 0.0;
  trace::QueryTrace january_, february_;
  std::unique_ptr<search::QueryEngine> engine_;
  // The latest untraced [0] and traced [1] pass.
  std::array<std::vector<Cell>, 2> last_;
  std::int64_t passes_ = 0;
};

// ---------------------------------------------------------------------------
// replan: drift windows with bounded-churn re-optimization and the event
// sim on each published epoch.
// ---------------------------------------------------------------------------

class ReplanWorkload final : public Workload {
 public:
  explicit ReplanWorkload(std::uint64_t seed)
      : seed_(seed), model_(make_model(kVocab, kTopics, kDatasetSeed)) {}

  void build() override {
    index_ = build_index(kDocs, kVocab, kDatasetSeed);
    sizes_ = index_.index_sizes();
    total_bytes_ = total_bytes(sizes_);
    engine_ = build_engine(index_);
  }

  void warm_up() override {
    Checks ignored;
    Pass pass;
    run_window(0, pass, ignored, -1);
  }

  PassResult run_pass(Checks& checks) override {
    Pass pass;
    PassResult result;
    const std::int64_t start = now_ns();
    for (int w = 0; w < kWindows; ++w)
      result.unit_ms.push_back(
          run_window(w, pass, checks, passes_ * kWindows + w));
    result.wall_s = elapsed_ms(start) / 1e3;
    std::vector<Window>& previous = last_[Tracer::enabled() ? 1 : 0];
    if (!previous.empty())
      for (int w = 0; w < kWindows; ++w) {
        checks.expect(pass.windows[w].sim_p99_ms == previous[w].sim_p99_ms,
                      "replan event-sim p99 differs between passes");
        checks.expect(pass.windows[w].moved_frac == previous[w].moved_frac,
                      "replan moved fraction differs between passes");
      }
    previous = std::move(pass.windows);
    ++passes_;
    return result;
  }

  void probe() override {
    probe_constructor_layers(last_[0].front().training, sizes_);
  }

  Outcome finish(Checks&) override {
    Outcome out;
    const core::PlacementMap hashed =
        core::PlacementMap::hashed(kVocab, map_config(kNodes));
    double bytes = 0.0, hash_bytes = 0.0, queries = 0.0, p99 = 0.0,
           moved = 0.0;
    for (const Window& w : last_[0]) {
      bytes += static_cast<double>(live_bytes(*engine_, *w.map, w.eval));
      hash_bytes += static_cast<double>(live_bytes(*engine_, hashed, w.eval));
      queries += static_cast<double>(w.eval.size());
      p99 += w.sim_p99_ms;
      moved += w.moved_frac;
    }
    out.bytes_vs_hash = bytes / hash_bytes;
    out.tail_quantile = 0.75;  // 4 windows per pass, about 40 a run
    out.info["bytes_per_query"] = bytes / queries;
    out.info["sim_p99_ms"] = p99 / kWindows;
    out.info["moved_frac"] = moved / (kWindows - 1);
    out.info["windows_per_pass"] = kWindows;
    out.info["vocab"] = kVocab;
    out.info["docs"] = kDocs;
    out.info["queries_per_window"] = kTrainQueries;
    out.info["sim_queries_per_window"] = kSimQueries;
    return out;
  }

  std::map<std::string, double> take_layer_counters() override { return {}; }

 private:
  static constexpr std::size_t kVocab = 16000;
  static constexpr std::size_t kTopics = 800;
  static constexpr std::size_t kDocs = 6000;
  static constexpr std::size_t kTrainQueries = 80000;
  static constexpr std::size_t kSimQueries = 20000;
  static constexpr std::size_t kScope = 4000;
  static constexpr int kNodes = 50;
  static constexpr int kWindows = 4;
  static constexpr double kDriftPerWindow = 0.05;
  static constexpr double kBudget = 0.1;

  struct Window {
    std::shared_ptr<const core::PlacementMap> map;
    trace::QueryTrace training, eval;
    double sim_p99_ms = 0.0;
    double moved_frac = 0.0;
  };

  /// One pass's state: the incremental optimizer is kept across windows
  /// so its LP warm starts carry over, as an operator's replanner would.
  struct Pass {
    Pass() : incremental(incremental_config()) {}
    core::IncrementalOptimizer incremental;
    sim::PlacementService service{std::make_shared<const core::PlacementMap>(
        core::PlacementMap::hashed(kVocab, map_config(kNodes)))};
    std::vector<Window> windows;
  };

  static core::IncrementalConfig incremental_config() {
    core::IncrementalConfig cfg;
    cfg.migration_budget_fraction = kBudget;
    cfg.rounding.trials = 16;
    return cfg;
  }

  double run_window(int w, Pass& pass, Checks& checks,
                    std::int64_t unit) const {
    const std::int64_t start = now_ns();
    Window out;
    {
      const Span unit_span("replan.window", unit);
      const auto stream = [w](std::uint64_t seed) {
        return seed * 1000003 + static_cast<std::uint64_t>(w);
      };
      {
        const trace::WorkloadModel model =
            w == 0 ? model_
                   : model_.drifted(kDriftPerWindow * w, stream(kDatasetSeed));
        out.training = generate(model, kTrainQueries, stream(kDatasetSeed) + 1);
        out.eval = generate(model, kSimQueries, stream(seed_) + 2);
      }
      const auto opt = construct_optimizer(
          out.training, sizes_,
          optimizer_config(kNodes, kScope, kDatasetSeed));
      std::vector<int> keyword_to_node;
      if (w == 0) {
        keyword_to_node = place(*opt, "lprr", "core.strategy.lprr");
      } else {
        const Span span("core.incremental");
        const core::PlacementMap& previous = *pass.windows.back().map;
        core::PlacementPlan plan = opt->run("random-hash");
        core::Placement current(plan.scope.size());
        for (std::size_t pos = 0; pos < plan.scope.size(); ++pos)
          current[pos] = previous.primary(plan.scope[pos]);
        const core::CcaInstance& instance = opt->scoped_instance();
        const core::IncrementalResult r =
            pass.incremental.reoptimize(instance, current);
        checks.expect(r.migration.bytes_moved <=
                          kBudget * instance.total_object_size() * (1 + 1e-9),
                      "replan migration exceeds its budget");
        for (std::size_t pos = 0; pos < plan.scope.size(); ++pos)
          plan.keyword_to_node[plan.scope[pos]] = r.placement[pos];
        keyword_to_node = std::move(plan.keyword_to_node);
        out.moved_frac = r.migration.moved_fraction;
      }
      {
        const Span span("core.map_build");
        out.map = std::make_shared<const core::PlacementMap>(
            w == 0 ? core::PlacementMap::build(keyword_to_node,
                                               map_config(kNodes, 1))
                   : pass.windows.back().map->with_placement(keyword_to_node));
      }
      const std::uint64_t before = pass.service.epoch();
      {
        const Span span("sim.publish");
        pass.service.publish(out.map);
      }
      checks.expect(out.map->epoch() > before &&
                        pass.service.epoch() == out.map->epoch(),
                    "replan epochs do not strictly increase");
      const Span span("sim.event_sim");
      sim::Cluster cluster(kNodes, kCapacitySlack * total_bytes_ / kNodes);
      cluster.install_placement(out.map, sizes_);
      sim::EventSimConfig cfg;
      cfg.arrival_rate_qps = 8000.0;
      cfg.nic_mbps = 40.0;
      cfg.num_queries = kSimQueries;
      cfg.seed = seed_;
      const sim::EventSimStats stats =
          sim::simulate_load(cluster, index_, out.eval, cfg);
      checks.expect(stats.completed == kSimQueries,
                    "replan event sim left queries incomplete");
      out.sim_p99_ms = stats.p99_latency_ms;
    }
    pass.windows.push_back(std::move(out));
    return elapsed_ms(start);
  }

  std::uint64_t seed_;
  trace::WorkloadModel model_;
  search::InvertedIndex index_;
  std::vector<std::uint64_t> sizes_;
  double total_bytes_ = 0.0;
  std::unique_ptr<search::QueryEngine> engine_;
  // The latest untraced [0] and traced [1] pass.
  std::array<std::vector<Window>, 2> last_;
  std::int64_t passes_ = 0;
};

// ---------------------------------------------------------------------------
// serve: closed-loop clients against a live PlacementService while a
// publisher swaps epochs.
// ---------------------------------------------------------------------------

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed) : seed_(seed) {}

  void build() override {
    index_ = build_index(kDocs, kVocab, kDatasetSeed);
    sizes_ = index_.index_sizes();
    const trace::WorkloadModel model = make_model(kVocab, 200, kDatasetSeed);
    january_ = generate(model, kQueries, kDatasetSeed * 7919 + 1);
    february_ = generate(model, kQueries, seed_ * 104729 + 2);
    engine_ = build_engine(index_);
    {
      const auto opt = construct_optimizer(
          january_, sizes_, optimizer_config(kNodes, kScope, kDatasetSeed));
      const std::vector<int> keyword_to_node =
          place(*opt, "lprr", "core.strategy.lprr");
      const Span span("core.map_build");
      plan_ = std::make_shared<const core::PlacementMap>(
          core::PlacementMap::build(keyword_to_node, map_config(kNodes)));
      service_ = std::make_unique<sim::PlacementService>(plan_);
    }
    {
      // The oracle: every February result size by plain list
      // intersection, smallest list first.
      const Span span("search.reference");
      expected_.reserve(february_.size());
      for (const trace::Query& q : february_.queries()) {
        std::vector<trace::KeywordId> keys = q.keywords;
        std::sort(keys.begin(), keys.end(), [&](auto a, auto b) {
          return index_.postings(a).size() < index_.postings(b).size();
        });
        search::PostingList result =
            keys.empty() ? search::PostingList() : index_.postings(keys[0]);
        for (std::size_t i = 1; i < keys.size(); ++i)
          result = search::intersect(result, index_.postings(keys[i]));
        expected_.push_back(result.size());
      }
    }
    for (auto& scratch : scratch_)
      scratch.reserve(max_width(february_), engine_->max_postings());
  }

  void warm_up() override {
    Checks ignored;
    serve(kWarmUpQueries, ignored, -1);
  }

  PassResult run_pass(Checks& checks) override {
    PassResult result = serve(kQueriesPerClient, checks,
                              passes_ * kClientThreads * kQueriesPerClient);
    ++passes_;
    return result;
  }

  void probe() override { probe_constructor_layers(january_, sizes_); }

  Outcome finish(Checks&) override {
    Outcome out;
    // The served stream mixes 20- and 21-node epochs as timing falls; the
    // ratio compares the set-up plan with the hash placement on February.
    const core::PlacementMap hashed =
        core::PlacementMap::hashed(kVocab, map_config(kNodes));
    const std::array<const core::PlacementMap*, 2> maps{plan_.get(), &hashed};
    const std::vector<std::uint64_t> bytes =
        common::parallel_map(maps.size(), [&](std::size_t i) {
          return live_bytes(*engine_, *maps[i], february_);
        });
    out.bytes_vs_hash =
        static_cast<double>(bytes[0]) / static_cast<double>(bytes[1]);
    out.info["served_bytes_per_query"] = static_cast<double>(bytes_) /
                                         static_cast<double>(served_total_);
    out.info["queries_per_client_per_pass"] = kQueriesPerClient;
    out.info["publish_every_queries"] = kPublishEvery;
    out.info["epochs_published"] = static_cast<double>(publishes_);
    out.info["docs"] = kDocs;
    out.info["vocab"] = kVocab;
    out.info["index_mib"] = total_bytes(sizes_) / (1024.0 * 1024.0);
    out.info["cache_capacity_mib"] =
        static_cast<double>(search::DecodedBlockCache::kDefaultCapacityBlocks *
                            search::BlockPostings::kBlockSize * 8) /
        (1024.0 * 1024.0);
    return out;
  }

  std::map<std::string, double> take_layer_counters() override {
    std::uint64_t hits = 0, misses = 0;
    for (search::QueryScratch& scratch : scratch_) {
      hits += scratch.cache().hits();
      misses += scratch.cache().misses();
    }
    std::map<std::string, double> out;
    out["search.cache_hits"] = static_cast<double>(hits - counted_hits_);
    out["search.cache_lookups"] =
        static_cast<double>(hits + misses - counted_hits_ - counted_misses_);
    counted_hits_ = hits;
    counted_misses_ = misses;
    return out;
  }

 private:
  static constexpr std::size_t kVocab = 4000;
  static constexpr std::size_t kDocs = 100000;
  static constexpr std::size_t kQueries = 40000;
  static constexpr int kNodes = 20;
  static constexpr std::size_t kScope = 1000;
  static constexpr std::int64_t kQueriesPerClient = 50000;
  static constexpr std::int64_t kWarmUpQueries = 2000;
  static constexpr std::uint64_t kPublishEvery = 20000;

  struct ClientResult {
    std::vector<double> unit_ms;
    std::uint64_t bytes = 0;
    std::int64_t failed = 0;
    std::exception_ptr error;
  };

  /// Each client serves `per_client` queries; the publisher swaps in
  /// rebalanced(20 <-> 21) after every kPublishEvery served queries.
  PassResult serve(std::int64_t per_client, Checks& checks,
                   std::int64_t first_unit) {
    std::atomic<std::uint64_t> served{0};
    std::mutex mutex;
    std::condition_variable wake;
    std::int64_t pending = 0;  // guarded by mutex
    bool done = false;         // guarded by mutex
    std::int64_t publish_failures = 0;
    std::exception_ptr publisher_error;

    std::thread publisher([&] {
      try {
        for (;;) {
          {
            std::unique_lock<std::mutex> lock(mutex);
            wake.wait(lock, [&] { return pending > 0 || done; });
            if (pending == 0) return;
            --pending;
          }
          const auto current = service_->acquire();
          std::shared_ptr<const core::PlacementMap> next;
          {
            const Span span("core.map_rebalance");
            next = std::make_shared<const core::PlacementMap>(
                current->rebalanced(current->num_nodes() == kNodes
                                        ? kNodes + 1
                                        : kNodes));
          }
          {
            const Span span("sim.publish");
            service_->publish(next);
          }
          if (next->epoch() <= current->epoch()) ++publish_failures;
          ++publishes_;
        }
      } catch (...) {
        publisher_error = std::current_exception();
      }
    });

    std::vector<ClientResult> results(kClientThreads);
    const std::int64_t start = now_ns();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClientThreads; ++c)
      clients.emplace_back([&, c] {
        ClientResult& r = results[c];
        try {
          r.unit_ms.reserve(static_cast<std::size_t>(per_client));
          search::QueryScratch& scratch = scratch_[c];
          const std::size_t offset = c * february_.size() / kClientThreads;
          for (std::int64_t i = 0; i < per_client; ++i) {
            const std::size_t qi =
                (offset + static_cast<std::size_t>(i)) % february_.size();
            const std::int64_t t0 = now_ns();
            search::QueryCost cost;
            {
              const Span unit(
                  "serve.query",
                  first_unit < 0 ? -1 : first_unit + c * per_client + i);
              std::shared_ptr<const core::PlacementMap> map;
              {
                const Span span("sim.acquire");
                map = service_->acquire();
              }
              {
                const Span span("search.begin_epoch");
                scratch.begin_epoch(map->cache_token());
              }
              {
                const Span span("search.query");
                const core::PlacementMap& m = *map;
                const auto placement = [&m](trace::KeywordId k) {
                  return m.resolve(k);
                };
                cost = engine_->execute_intersection(february_[qi], placement,
                                                     {}, &scratch);
              }
              // Dropping the epoch reference can free a retired map.
              const Span span("sim.release");
              map.reset();
            }
            r.unit_ms.push_back(elapsed_ms(t0));
            r.bytes += cost.bytes_transferred;
            if (cost.result_size != expected_[qi]) ++r.failed;
            if ((served.fetch_add(1, std::memory_order_relaxed) + 1) %
                    kPublishEvery ==
                0) {
              const std::lock_guard<std::mutex> lock(mutex);
              ++pending;
              wake.notify_one();
            }
          }
        } catch (...) {
          r.error = std::current_exception();
        }
      });
    for (std::thread& t : clients) t.join();
    PassResult result;
    result.wall_s = elapsed_ms(start) / 1e3;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      done = true;
      pending = 0;
    }
    wake.notify_one();
    publisher.join();
    if (publisher_error) std::rethrow_exception(publisher_error);
    for (ClientResult& r : results) {
      if (r.error) std::rethrow_exception(r.error);
      checks.count(per_client, r.failed, "serve result size != reference");
      bytes_ += r.bytes;
      served_total_ += static_cast<std::uint64_t>(per_client);
      result.unit_ms.insert(result.unit_ms.end(), r.unit_ms.begin(),
                            r.unit_ms.end());
    }
    checks.expect(publish_failures == 0, "serve epochs do not advance");
    return result;
  }

  std::uint64_t seed_;
  search::InvertedIndex index_;
  std::vector<std::uint64_t> sizes_;
  trace::QueryTrace january_, february_;
  std::unique_ptr<search::QueryEngine> engine_;
  std::shared_ptr<const core::PlacementMap> plan_;  // epoch 0
  std::unique_ptr<sim::PlacementService> service_;
  std::vector<std::uint64_t> expected_;  // reference result sizes
  std::array<search::QueryScratch, kClientThreads> scratch_;
  std::uint64_t bytes_ = 0;
  std::uint64_t served_total_ = 0;
  std::int64_t publishes_ = 0;
  std::int64_t passes_ = 0;
  std::uint64_t counted_hits_ = 0, counted_misses_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"grid", "replan", "serve"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& reference) {
  if (name == "grid") return std::make_unique<GridWorkload>(seed, reference);
  if (name == "replan") return std::make_unique<ReplanWorkload>(seed);
  if (name == "serve") return std::make_unique<ServeWorkload>(seed);
  return nullptr;
}

}  // namespace cca::perfbench
