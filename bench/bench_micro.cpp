// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: MD5 hashing, Zipf sampling, posting-list intersection,
// pair counting, capacity grouping, optimizer construction, LP solves,
// and randomized rounding.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/zipf.hpp"
#include "core/component_solver.hpp"
#include "core/lp_formulation.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placement_map.hpp"
#include "core/rounding.hpp"
#include "hash/md5.hpp"
#include "lp/revised_simplex.hpp"
#include "search/block_postings.hpp"
#include "search/compression.hpp"
#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "sim/cluster.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/pair_stats.hpp"
#include "trace/workload.hpp"

namespace {

using namespace cca;

void BM_Md5Digest64(benchmark::State& state) {
  const std::string input(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Md5::digest64(input));
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5Digest64)->Arg(16)->Arg(64)->Arg(1024)->Arg(65536);

void BM_ZipfSample(benchmark::State& state) {
  const common::ZipfSampler zipf(
      static_cast<std::size_t>(state.range(0)), 1.0);
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_PostingIntersection(benchmark::State& state) {
  common::Rng rng(7);
  std::vector<std::uint64_t> a, b;
  for (long i = 0; i < state.range(0); ++i) a.push_back(rng() % 1000000);
  for (long i = 0; i < state.range(1); ++i) b.push_back(rng() % 1000000);
  const search::PostingList list_a(std::move(a)), list_b(std::move(b));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search::intersect(list_a, list_b));
  }
}
BENCHMARK(BM_PostingIntersection)
    ->Args({1000, 1000})     // merge path
    ->Args({100, 100000});   // galloping path

/// Strictly increasing posting IDs: dense (gaps 1-2, narrow block width)
/// or sparse (gaps up to ~1M, wide block width) — the two decode regimes
/// EXPERIMENTS.md Ablation O quotes.
std::vector<std::uint64_t> synthetic_postings(std::size_t n, bool sparse) {
  common::Rng rng(sparse ? 41 : 40);
  std::vector<std::uint64_t> ids(n);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += sparse ? 1 + rng() % 1000000 : 1 + rng() % 2;
    ids[i] = acc;
  }
  return ids;
}

void BM_VarintDecode(benchmark::State& state) {
  // Scalar LEB128 gap decode (the varint ablation baseline).
  // Bytes processed = decoded output (8 B/posting), so MB/s is directly
  // comparable with BM_BlockDecode on the same profile.
  const std::vector<std::uint64_t> ids = synthetic_postings(
      static_cast<std::size_t>(state.range(0)), state.range(1) != 0);
  const std::vector<std::uint8_t> encoded = search::compress_postings(ids);
  std::vector<std::uint64_t> out;
  out.reserve(ids.size());
  for (auto _ : state) {
    search::decompress_postings_into(encoded, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_VarintDecode)
    ->Args({100000, 0})   // dense gaps
    ->Args({100000, 1});  // sparse gaps

void BM_BlockDecode(benchmark::State& state) {
  // SWAR frame-of-reference decode (the serving default).
  const std::vector<std::uint64_t> ids = synthetic_postings(
      static_cast<std::size_t>(state.range(0)), state.range(1) != 0);
  const search::BlockPostings blocks = search::BlockPostings::encode(ids);
  std::vector<std::uint64_t> out;
  out.reserve(ids.size());
  for (auto _ : state) {
    blocks.decode_all(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_BlockDecode)
    ->Args({100000, 0})   // dense gaps
    ->Args({100000, 1});  // sparse gaps

/// The skewed 1:100 intersection cell shared by the three kernel benches
/// below, so their ns/posting numbers are directly comparable.
struct SkewedCell {
  std::vector<std::uint64_t> small;
  std::vector<std::uint64_t> large;

  static SkewedCell build(std::size_t na, std::size_t nb) {
    common::Rng rng(7);
    SkewedCell cell;
    cell.small.reserve(na);
    cell.large.reserve(nb);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      acc += 1 + rng() % 32;
      cell.large.push_back(acc);
      // ~na/nb of the large list also lands in the small list, so the
      // intersection is non-trivial in every kernel.
      if (rng() % (nb / na) == 0 && cell.small.size() < na)
        cell.small.push_back(acc);
    }
    while (cell.small.size() < na) {
      acc += 1 + rng() % 32;
      cell.small.push_back(acc);
    }
    return cell;
  }
};

void BM_IntersectMerge(benchmark::State& state) {
  // Classic two-pointer sorted merge — the baseline the block-max kernel
  // is measured against on the same 1:100 cell.
  const SkewedCell cell =
      SkewedCell::build(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
  std::vector<std::uint64_t> out;
  out.reserve(cell.small.size());
  for (auto _ : state) {
    out.clear();
    std::size_t i = 0, j = 0;
    while (i < cell.small.size() && j < cell.large.size()) {
      if (cell.small[i] < cell.large[j]) {
        ++i;
      } else if (cell.large[j] < cell.small[i]) {
        ++j;
      } else {
        out.push_back(cell.small[i]);
        ++i;
        ++j;
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          (state.range(0) + state.range(1)));
}
BENCHMARK(BM_IntersectMerge)->Args({1000, 100000});

void BM_IntersectGallop(benchmark::State& state) {
  // Span kernel (small drives, lower_bound gallop into the large list).
  const SkewedCell cell =
      SkewedCell::build(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
  std::vector<std::uint64_t> out;
  out.reserve(cell.small.size());
  for (auto _ : state) {
    search::intersect_into(cell.small.data(), cell.small.size(),
                           cell.large.data(), cell.large.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          (state.range(0) + state.range(1)));
}
BENCHMARK(BM_IntersectGallop)->Args({1000, 100000});

void BM_IntersectBlockMax(benchmark::State& state) {
  // Block-max skipping over the compressed large list, warm decoded-block
  // cache: the serving-path configuration.
  const SkewedCell cell =
      SkewedCell::build(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
  const search::BlockPostings blocks =
      search::BlockPostings::encode(cell.large);
  search::DecodedBlockCache cache;
  cache.begin_epoch(1);
  std::vector<std::uint64_t> out;
  out.reserve(cell.small.size());
  for (auto _ : state) {
    search::intersect_with_blocks(cell.small.data(), cell.small.size(),
                                  blocks, 0, &cache, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          (state.range(0) + state.range(1)));
}
BENCHMARK(BM_IntersectBlockMax)->Args({1000, 100000});

void BM_ResolveBatch(benchmark::State& state) {
  // Steady-state batched execution: one engine + scratch over a testbed
  // trace against a hashed placement — the replay inner loop without the
  // replay bookkeeping. Also the one-pass sizing regression gate: with
  // metrics on, each keyword must be sized exactly once per execution
  // (search.postings.sized == search.postings.fetched).
  trace::CorpusConfig corpus_cfg;
  corpus_cfg.num_documents = 3000;
  corpus_cfg.vocabulary_size = 2000;
  corpus_cfg.mean_distinct_words = 60.0;
  corpus_cfg.seed = 5;
  const search::InvertedIndex index =
      search::InvertedIndex::build(trace::Corpus::generate(corpus_cfg));

  trace::WorkloadConfig query_cfg;
  query_cfg.vocabulary_size = 2000;
  query_cfg.num_topics = 100;
  query_cfg.seed = 5;
  const trace::QueryTrace trace =
      trace::WorkloadModel(query_cfg).generate(
          static_cast<std::size_t>(state.range(0)), 5);

  core::PlacementMapConfig map_cfg;
  map_cfg.num_nodes = 16;
  const core::PlacementMap map = core::PlacementMap::hashed(2000, map_cfg);
  const auto placement = [&map](trace::KeywordId k) {
    return map.resolve(k);
  };

  const search::QueryEngine engine(index);
  std::size_t max_width = 0;
  for (std::size_t q = 0; q < trace.size(); ++q)
    max_width = std::max(max_width, trace[q].size());
  search::QueryScratch scratch;
  scratch.reserve(max_width, engine.max_postings());
  scratch.begin_epoch(map.cache_token());

  const auto run_batch = [&] {
    std::uint64_t bytes = 0;
    for (std::size_t q = 0; q < trace.size(); ++q)
      bytes +=
          engine.execute_intersection(trace[q], placement, {}, &scratch)
              .bytes_transferred;
    return bytes;
  };

  // One-pass regression assert (runs once, outside the timed loop): the
  // metrics-on path must size each keyword exactly once per execution.
  {
    auto& reg = common::MetricsRegistry::global();
    common::Counter& sized = reg.counter("search.postings.sized");
    common::Counter& fetched = reg.counter("search.postings.fetched");
    reg.set_enabled(true);
    sized.reset();
    fetched.reset();
    run_batch();
    CCA_CHECK_MSG(sized.total() == fetched.total(),
                  "metrics-on path sized keywords "
                      << sized.total() << " times for " << fetched.total()
                      << " fetches — sizing must be one pass per query");
    reg.set_enabled(false);
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batch());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ResolveBatch)->Arg(2000);

void BM_PairCounting(benchmark::State& state) {
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = 5000;
  cfg.num_topics = 200;
  const trace::WorkloadModel model(cfg);
  const trace::QueryTrace trace =
      model.generate(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::PairCounter::count_all_pairs(trace));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PairCounting)->Arg(10000)->Arg(50000);

core::CcaInstance bench_instance(int num_components, int objects_per_comp,
                                 int nodes) {
  common::Rng rng(3);
  std::vector<double> sizes;
  std::vector<core::PairWeight> pairs;
  for (int c = 0; c < num_components; ++c) {
    const int base = c * objects_per_comp;
    for (int o = 0; o < objects_per_comp; ++o) {
      sizes.push_back(1.0 + rng.next_double() * 9.0);
      if (o > 0)
        pairs.push_back({base + o - 1, base + o, 0.1 + rng.next_double() * 0.4,
                         1.0 + rng.next_double() * 10.0});
    }
  }
  double total = 0.0;
  for (double s : sizes) total += s;
  return core::CcaInstance(
      sizes, std::vector<double>(static_cast<std::size_t>(nodes),
                                 2.0 * total / nodes),
      pairs);
}

void BM_ComponentLpSolve(benchmark::State& state) {
  const core::CcaInstance instance =
      bench_instance(static_cast<int>(state.range(0)), 4, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComponentLpSolver(1).solve(instance));
  }
}
BENCHMARK(BM_ComponentLpSolve)->Arg(25)->Arg(100)->Arg(400);

/// The perfbench grid's data set at default size: vocab 4000, 6000
/// documents of ~80 distinct words, 40k January (training) and 40k
/// February (replayed) queries over 200 topics.
struct GridData {
  trace::QueryTrace january;
  trace::QueryTrace february;
  search::InvertedIndex index;
  std::vector<std::uint64_t> sizes;

  static const GridData& get() {
    static const GridData data = [] {
      trace::CorpusConfig corpus_cfg;
      corpus_cfg.num_documents = 6000;
      corpus_cfg.vocabulary_size = 4000;
      corpus_cfg.mean_distinct_words = 80.0;
      corpus_cfg.seed = 1;
      trace::WorkloadConfig query_cfg;
      query_cfg.vocabulary_size = 4000;
      query_cfg.num_topics = 200;
      query_cfg.topic_size = 8;
      query_cfg.topic_coherence = 0.9;
      query_cfg.seed = 1;
      const trace::WorkloadModel model(query_cfg);
      GridData d{model.generate(40000, 7920), model.generate(40000, 104731),
                 search::InvertedIndex::build(
                     trace::Corpus::generate(corpus_cfg)),
                 {}};
      d.sizes = d.index.index_sizes();
      return d;
    }();
    return data;
  }
};

core::PartialOptimizerConfig grid_config(int nodes, std::size_t scope) {
  core::PartialOptimizerConfig cfg;
  cfg.num_nodes = nodes;
  cfg.scope = scope;
  cfg.rounding.trials = 16;
  return cfg;
}

/// LPRR's capacity split at the grid's costliest cell (scope 2000, 100
/// nodes, target_fill 1.0).
void BM_BuildGroups(benchmark::State& state) {
  const GridData& data = GridData::get();
  const core::PartialOptimizer opt(data.january, data.sizes,
                                   grid_config(100, 2000));
  core::ComponentSolverOptions options;
  options.target_fill = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_groups(opt.scoped_instance(), options));
  }
}
BENCHMARK(BM_BuildGroups)->Unit(benchmark::kMillisecond);

/// The grid's four scopes built from one trace while the others are alive:
/// one artifact build and three memo hits per iteration.
void BM_OptimizerRepeatedTrace(benchmark::State& state) {
  const GridData& data = GridData::get();
  for (auto _ : state) {
    std::vector<std::unique_ptr<core::PartialOptimizer>> live;
    for (std::size_t scope : {250, 500, 1000, 2000})
      live.push_back(std::make_unique<core::PartialOptimizer>(
          data.january, data.sizes, grid_config(20, scope)));
    benchmark::DoNotOptimize(live);
  }
}
BENCHMARK(BM_OptimizerRepeatedTrace)->Unit(benchmark::kMillisecond);

/// One grid cell's constructor whose trace artifacts are already held
/// (scope 1000, 20 nodes): the per-cell set-up that remains once mining
/// is shared. It reads no query, so it costs O(vocabulary + pairs).
void BM_OptimizerCtorMemoHit(benchmark::State& state) {
  const GridData& data = GridData::get();
  const core::PartialOptimizer held(data.january, data.sizes,
                                    grid_config(20, 1000));
  for (auto _ : state) {
    const core::PartialOptimizer opt(data.january, data.sizes,
                                     grid_config(20, 1000));
    benchmark::DoNotOptimize(&opt);
  }
}
BENCHMARK(BM_OptimizerCtorMemoHit)->Unit(benchmark::kMillisecond);

/// One grid cell's replay (multilevel plan, scope 1000, 20 nodes) of the
/// February trace whose profile is already memoised: the per-cell
/// evaluation cost, a placement walk of each distinct query plus the
/// mean/p99 finalize.
void BM_ReplayTraceMemoHit(benchmark::State& state) {
  const GridData& data = GridData::get();
  constexpr int kNodes = 20;
  const core::PartialOptimizer opt(data.january, data.sizes,
                                   grid_config(kNodes, 1000));
  core::PlacementMapConfig map_cfg;
  map_cfg.num_nodes = kNodes;
  const auto map = std::make_shared<const core::PlacementMap>(
      core::PlacementMap::build(opt.run("multilevel").keyword_to_node,
                                map_cfg));
  double total_bytes = 0.0;
  for (const std::uint64_t size : data.sizes)
    total_bytes += static_cast<double>(size);
  const auto replay = [&] {
    sim::Cluster cluster(kNodes, 2.0 * total_bytes / kNodes);
    cluster.install_placement(map, data.sizes);
    return sim::replay_trace(cluster, data.index, data.february);
  };
  replay();  // builds the profile
  for (auto _ : state) benchmark::DoNotOptimize(replay());
}
BENCHMARK(BM_ReplayTraceMemoHit)->Unit(benchmark::kMillisecond);

/// The replay finalize's p99 over a grid-sized per-query byte series:
/// 40k values, ~80% of them 0 (co-located queries), the rest spread.
void BM_Percentile99(benchmark::State& state) {
  common::Rng rng(11);
  std::vector<double> values(40000);
  for (double& v : values)
    v = rng.next_below(5) == 0
            ? static_cast<double>(8 * (1 + rng.next_below(20000)))
            : 0.0;
  for (auto _ : state)
    benchmark::DoNotOptimize(common::percentile(values, 99.0));
}
BENCHMARK(BM_Percentile99)->Unit(benchmark::kMicrosecond);

/// A plan's exception table over the grid's 4000-keyword vocabulary
/// (20 nodes, md5 tail, about a quarter of the keywords pinned).
void BM_PlacementMapBuild(benchmark::State& state) {
  constexpr std::size_t kVocab = 4000;
  core::PlacementMapConfig cfg;
  cfg.num_nodes = 20;
  common::Rng rng(5);
  std::vector<int> plan(kVocab);
  for (std::size_t k = 0; k < kVocab; ++k)
    plan[k] = rng.next_below(4) == 0
                  ? static_cast<int>(rng.next_below(20))
                  : core::tail_node(cfg.hash_tail,
                                    static_cast<trace::KeywordId>(k), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PlacementMap::build(plan, cfg));
  }
}
BENCHMARK(BM_PlacementMapBuild)->Unit(benchmark::kMillisecond);

void BM_FullLpSolve(benchmark::State& state) {
  const core::CcaInstance instance =
      bench_instance(static_cast<int>(state.range(0)), 4, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_cca_lp(instance));
  }
}
BENCHMARK(BM_FullLpSolve)->Arg(4)->Arg(10);

void BM_RandomizedRounding(benchmark::State& state) {
  const core::CcaInstance instance =
      bench_instance(static_cast<int>(state.range(0)), 4, 10);
  const core::FractionalPlacement x = core::ComponentLpSolver(1).solve(instance);
  common::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::round_once(x, rng));
  }
}
BENCHMARK(BM_RandomizedRounding)->Arg(25)->Arg(100)->Arg(400);

void BM_RevisedSimplex(benchmark::State& state) {
  // Random dense-ish LP solved cold by the revised simplex.
  common::Rng rng(11);
  lp::Model model;
  const int n = static_cast<int>(state.range(0));
  std::vector<double> xstar(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    xstar[j] = rng.next_double() * 5.0;
    model.add_variable(0.0, 10.0, rng.next_double() * 4.0 - 2.0);
  }
  for (int i = 0; i < n; ++i) {
    std::vector<lp::Term> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.next_double() < 0.3) {
        const double coef = rng.next_double() * 6.0 - 3.0;
        terms.push_back({j, coef});
        lhs += coef * xstar[j];
      }
    }
    if (!terms.empty())
      model.add_constraint(lp::Relation::kLessEqual,
                           lhs + rng.next_double(), std::move(terms));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::RevisedSimplex().solve(model));
  }
}
BENCHMARK(BM_RevisedSimplex)->Arg(40)->Arg(120);

}  // namespace

BENCHMARK_MAIN();
