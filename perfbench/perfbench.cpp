// Host wall-clock benchmark of the placement pipeline and the serving
// data plane.
//
//   perfbench --workload {grid,replan,serve} --seed N --seconds S
//             --trace {0,1} [--reference FILE] [--spans-out FILE]
//
// --trace 0 sets the workload up several times (set-up time is their
// median), then runs timed passes for S seconds with tracing and the
// metrics registry off, and prints the end-to-end metrics. --trace 1 sets
// up once and alternates untraced and traced passes for S seconds; it
// prints the per-layer metrics from the traced passes, the tracing
// overhead (traced over untraced pass wall), and writes the last traced
// pass's spans to --spans-out. Both modes check the library's outputs.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it ("info {...}") stamps the build, the machine,
// thread counts, the seed and the workload's own figures.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace cca;
using namespace cca::perfbench;

namespace {

// Set-up runs at least kMinSetupRepeats times and until the repeats add
// up to kMinSetupSeconds (one set-up of `grid` lasts a third of a
// second); its median is reported.
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

constexpr int kMinSetupRepeats = 3;
constexpr int kMaxSetupRepeats = 20;
constexpr double kMinSetupSeconds = 4.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload {grid,replan,serve} --seed N "
               "--seconds S --trace {0,1} [--reference FILE] "
               "[--spans-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--reference") args.reference = value;
      else if (flag == "--spans-out") args.spans_out = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end())
    usage("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Linear-interpolated percentile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream out;
  out.precision(15);
  out << v;
  return out.str();
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << checks.attempted()
      << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_info(const Args& args,
                const std::map<std::string, double>& figures) {
  std::ostringstream out;
  out << "info {\"workload\": \"" << args.workload << "\", \"seed\": "
      << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << kCompiler << "\", \"nproc\": "
      << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"pool_threads\": " << common::configured_threads()
      << ", \"client_threads\": "
      << (args.workload == "serve" ? kClientThreads : 0)
      << ", \"publisher_threads\": "
      << (args.workload == "serve" ? kPublisherThreads : 0);
  for (const auto& [name, value] : figures)
    out << ", \"" << name << "\": " << number(value);
  out << "}";
  std::cout << out.str() << "\n";
}

// Registry counters and timers the traced run reports, read per pass.
const std::vector<std::string> kRegistryCounters{
    "lp.iterations.phase1",   "lp.iterations.phase2",
    "lp.iterations.dual",     "lp.solves",
    "lp.warm_start.hits",     "lp.warm_start.misses",
    "core.rounding.trials",   "core.rounding.trials.feasible",
    "search.postings.fetched", "search.postings.bytes",
    "sim.replay.queries"};

std::map<std::string, double> take_registry() {
  auto& registry = common::MetricsRegistry::global();
  std::map<std::string, double> out;
  for (const std::string& name : kRegistryCounters)
    out[name] = static_cast<double>(registry.counter(name).total());
  out["lp.simplex_ms"] =
      static_cast<double>(registry.timer("lp.solve").total_ns()) / 1e6;
  registry.reset();
  return out;
}

void set_tracing(bool on) {
  Tracer::set_enabled(on);
  common::MetricsRegistry::global().set_enabled(on);
}

int run_untraced(const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetupRepeats ||
         (setup_total < kMinSetupSeconds &&
          setup_s.size() < kMaxSetupRepeats)) {
    workload.reset();
    const std::int64_t start = now_ns();
    workload = make_workload(args.workload, args.seed, args.reference);
    workload->build();
    workload->warm_up();
    setup_s.push_back(seconds_since(start));
    setup_total += setup_s.back();
  }
  Checks checks;
  std::vector<double> walls, units;
  double units_per_pass = 0.0;
  const std::int64_t start = now_ns();
  do {
    const PassResult pass = workload->run_pass(checks);
    walls.push_back(pass.wall_s);
    units.insert(units.end(), pass.unit_ms.begin(), pass.unit_ms.end());
    units_per_pass = static_cast<double>(pass.unit_ms.size());
  } while (seconds_since(start) < args.seconds);
  const double rss_mb = peak_rss_mb();  // before finish()'s extra checks
  const Outcome outcome = workload->finish(checks);

  std::map<std::string, double> info = outcome.info;
  info["setup_repeats"] = static_cast<double>(setup_s.size());
  info["passes"] = static_cast<double>(walls.size());
  info["wall_s_min"] = *std::min_element(walls.begin(), walls.end());
  info["wall_s_max"] = *std::max_element(walls.begin(), walls.end());
  info["unit_samples"] = static_cast<double>(units.size());
  info["units_per_s"] = units_per_pass / median(walls);
  info["unit_tail_quantile"] = outcome.tail_quantile;
  print_info(args, info);
  print_result(checks, {{"setup_s", "s", median(setup_s)},
                        {"wall_s", "s", median(walls)},
                        {"peak_rss_mb", "MB", rss_mb},
                        {"unit_p50_ms", "ms", quantile(units, 0.50)},
                        {"unit_tail_ms", "ms",
                         quantile(units, outcome.tail_quantile)},
                        {"bytes_vs_hash", "ratio", outcome.bytes_vs_hash}});
  return 0;
}

/// Sums of one phase's spans, registry counters and workload counters.
struct LayerTotals {
  std::map<std::string, SpanTotals> spans;
  std::map<std::string, double> counters;
  double busy_ms = 0.0;

  void add(const TraceSummary& summary) {
    for (const auto& [name, t] : summary.by_name) {
      SpanTotals& mine = spans[name];
      mine.total_ms += t.total_ms;
      mine.self_ms += t.self_ms;
      mine.count += t.count;
    }
    busy_ms += summary.busy_ms;
  }
  void add(const std::map<std::string, double>& values) {
    for (const auto& [name, v] : values) counters[name] += v;
  }
};

int run_traced(const Args& args) {
  auto workload = make_workload(args.workload, args.seed, args.reference);
  Checks checks;
  // Set-up: inputs traced, the warm-up unit not.
  LayerTotals setup;
  set_tracing(true);
  workload->build();
  set_tracing(false);
  setup.add(Tracer::summarize());
  setup.add(take_registry());
  Tracer::clear();
  workload->warm_up();
  workload->take_layer_counters();

  LayerTotals pass_sum;
  LayerTotals probes;
  std::vector<double> plain_walls, traced_walls;
  double min_coverage = 1.0, covered_ms = 0.0;
  double units = 0.0, units_covered = 0.0;
  const std::int64_t start = now_ns();
  do {
    plain_walls.push_back(workload->run_pass(checks).wall_s);

    Tracer::clear();
    set_tracing(true);
    workload->probe();
    set_tracing(false);
    probes.add(Tracer::summarize());
    take_registry();
    workload->take_layer_counters();  // drop the untraced pass's counts

    Tracer::clear();
    set_tracing(true);
    traced_walls.push_back(workload->run_pass(checks).wall_s);
    set_tracing(false);
    const TraceSummary summary = Tracer::summarize();
    pass_sum.add(summary);
    pass_sum.add(take_registry());
    pass_sum.add(workload->take_layer_counters());
    min_coverage = std::min(min_coverage, summary.min_unit_coverage);
    covered_ms += summary.mean_unit_coverage * summary.busy_ms;
    units += static_cast<double>(summary.units);
    units_covered += static_cast<double>(summary.units_covered_95);
  } while (seconds_since(start) < args.seconds);
  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    Tracer::write_csv(out);
  }
  Tracer::clear();
  const Outcome outcome = workload->finish(checks);

  const double passes = static_cast<double>(traced_walls.size());
  // Totals per run: the set-up phase once plus one (mean) traced pass.
  const auto span_ms = [&](const std::string& name) {
    const auto s = setup.spans.find(name);
    const auto p = pass_sum.spans.find(name);
    return (s == setup.spans.end() ? 0.0 : s->second.total_ms) +
           (p == pass_sum.spans.end() ? 0.0 : p->second.total_ms / passes);
  };
  const auto span_count = [&](const std::string& name) {
    const auto s = setup.spans.find(name);
    const auto p = pass_sum.spans.find(name);
    return (s == setup.spans.end() ? 0.0
                                   : static_cast<double>(s->second.count)) +
           (p == pass_sum.spans.end()
                ? 0.0
                : static_cast<double>(p->second.count) / passes);
  };
  const auto per_call = [&](const std::string& name, double scale) {
    const double calls = span_count(name);
    return calls > 0.0 ? scale * span_ms(name) / calls : 0.0;
  };
  const auto counter = [&](const std::string& name) {
    const auto s = setup.counters.find(name);
    const auto p = pass_sum.counters.find(name);
    return (s == setup.counters.end() ? 0.0 : s->second) +
           (p == pass_sum.counters.end() ? 0.0 : p->second / passes);
  };
  const auto ratio = [](double part, double base) {
    return base > 0.0 ? part / base : 0.0;
  };
  // Mining and hyperedge building happen inside every optimizer
  // construction; the probes time one call each on the training trace.
  const auto probe_ms = [&](const std::string& name) {
    const auto p = probes.spans.find(name);
    if (p == probes.spans.end() || p->second.count == 0) return 0.0;
    return p->second.total_ms / static_cast<double>(p->second.count);
  };
  const double ctor_calls = span_count("core.optimizer_ctor");
  const auto pass_ctor_calls = [&] {
    const auto p = pass_sum.spans.find("core.optimizer_ctor");
    return p == pass_sum.spans.end()
               ? 0.0
               : static_cast<double>(p->second.count) / passes;
  }();

  std::vector<Metric> metrics;
  const auto add = [&](const std::string& name, const std::string& unit,
                       double value) {
    metrics.push_back({name, unit, value});
  };
  // Layers timed in set-up only, and layers timed inside units.
  const std::vector<std::string> setup_layers{
      "trace.corpus", "search.index_build", "search.encode"};
  const std::vector<std::string> unit_layers{
      "trace.generate",      "core.optimizer_ctor",
      "core.strategy.random-hash", "core.strategy.greedy",
      "core.strategy.multilevel",  "core.strategy.lprr",
      "core.groups",         "core.rounding",
      "core.incremental",    "core.map_build",
      "lp.solve",            "sim.replay",
      "sim.event_sim"};
  for (const auto* layers : {&setup_layers, &unit_layers})
    for (const std::string& layer : *layers)
      add(layer + "_ms", "ms", span_ms(layer));
  add("search.query_busy_ms", "ms", span_ms("search.query"));
  add("core.mine_ms", "ms", probe_ms("core.mine") * ctor_calls);
  add("core.hyperedges_ms", "ms", probe_ms("core.hyperedges") * ctor_calls);
  add("core.optimizer_ctor_calls", "count", ctor_calls);
  add("core.map_rebalance_us", "us", per_call("core.map_rebalance", 1e3));
  add("sim.publish_us", "us", per_call("sim.publish", 1e3));
  add("sim.acquire_ns", "ns", per_call("sim.acquire", 1e6));
  add("sim.epochs_published", "count", span_count("sim.publish"));
  add("lp.simplex_ms", "ms", counter("lp.simplex_ms"));
  add("lp.iterations", "count",
      counter("lp.iterations.phase1") + counter("lp.iterations.phase2") +
          counter("lp.iterations.dual"));
  add("lp.iterations.phase1", "count", counter("lp.iterations.phase1"));
  add("lp.iterations.phase2", "count", counter("lp.iterations.phase2"));
  add("lp.iterations.dual", "count", counter("lp.iterations.dual"));
  add("lp.solves", "count", counter("lp.solves"));
  const double hits = counter("lp.warm_start.hits");
  const double lookups = hits + counter("lp.warm_start.misses");
  add("lp.warm_start.hits", "count", hits);
  add("lp.warm_start.lookups", "count", lookups);
  add("lp.warm_start.hit_ratio", "ratio", ratio(hits, lookups));
  const double trials = counter("core.rounding.trials");
  const double feasible = counter("core.rounding.trials.feasible");
  add("core.rounding.trials", "count", trials);
  add("core.rounding.trials.feasible", "count", feasible);
  add("core.rounding.feasible_ratio", "ratio", ratio(feasible, trials));
  add("search.postings_fetched", "count", counter("search.postings.fetched"));
  add("search.postings_bytes", "B", counter("search.postings.bytes"));
  const double cache_lookups = counter("search.cache_lookups");
  add("search.cache_lookups", "count", cache_lookups);
  add("search.cache_hit_ratio", "ratio",
      ratio(counter("search.cache_hits"), cache_lookups));
  add("sim.replay_queries", "count", counter("sim.replay.queries"));

  // Shares: a layer's self time in the timed pass over the pass's busy
  // time (the summed unit durations).
  const auto pass_self = [&](const std::string& name) {
    const auto p = pass_sum.spans.find(name);
    return p == pass_sum.spans.end() ? 0.0 : p->second.self_ms;
  };
  std::vector<std::string> shared_layers = unit_layers;
  for (const char* extra :
       {"search.query", "search.begin_epoch", "sim.acquire", "sim.release",
        "sim.publish", "core.map_rebalance"})
    shared_layers.push_back(extra);
  for (const std::string& layer : shared_layers)
    add(layer + ".share", "ratio", ratio(pass_self(layer), pass_sum.busy_ms));
  const double busy_per_pass = pass_sum.busy_ms / passes;
  add("core.mine.share", "ratio",
      ratio(probe_ms("core.mine") * pass_ctor_calls, busy_per_pass));
  add("core.hyperedges.share", "ratio",
      ratio(probe_ms("core.hyperedges") * pass_ctor_calls, busy_per_pass));

  add("perfbench.busy_ms", "ms", busy_per_pass);
  add("perfbench.span_coverage_min", "ratio", min_coverage);
  add("perfbench.span_coverage_mean", "ratio",
      ratio(covered_ms, pass_sum.busy_ms));
  add("perfbench.units_covered_95_frac", "ratio", ratio(units_covered, units));
  add("perfbench.traced_passes", "count", passes);
  add("perfbench.untraced_wall_s", "s", median(plain_walls));
  add("perfbench.traced_wall_s", "s", median(traced_walls));
  add("perfbench.tracing_overhead_frac", "ratio",
      median(traced_walls) / median(plain_walls) - 1.0);

  std::map<std::string, double> info = outcome.info;
  info["passes_untraced"] = static_cast<double>(plain_walls.size());
  info["passes_traced"] = passes;
  print_info(args, info);
  print_result(checks, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    common::set_global_threads(kPoolThreads);
    return args.trace ? run_traced(args) : run_untraced(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
