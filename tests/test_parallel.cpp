// The deterministic parallel substrate: pool semantics (coverage, grain
// handling, exception propagation, nested-use guard) and the determinism
// contract — round_best_of, replay_trace, and PairCounter must produce
// bit-identical results with 1, 2, and 8 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/rounding.hpp"
#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/pair_stats.hpp"
#include "trace/workload.hpp"

namespace cca {
namespace {

/// Restores the default pool size when a test returns, so thread-count
/// overrides never leak across tests.
struct ThreadsGuard {
  ~ThreadsGuard() { common::set_global_threads(0); }
};

const int kThreadCounts[] = {1, 2, 8};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadsGuard guard;
  for (int threads : kThreadCounts) {
    common::set_global_threads(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    common::parallel_for(0, hits.size(), 7,
                         [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
  }
}

TEST(ParallelFor, HandlesEmptyAndSingletonRanges) {
  ThreadsGuard guard;
  common::set_global_threads(4);
  int calls = 0;
  common::parallel_for(5, 5, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::size_t seen = 0;
  common::parallel_for(41, 42, 1, [&](std::size_t i) { seen = i; });
  EXPECT_EQ(seen, 42u - 1);
}

TEST(ParallelFor, GrainLargerThanRangeRunsInline) {
  ThreadsGuard guard;
  common::set_global_threads(8);
  // One chunk => the caller runs everything itself, in order.
  std::vector<std::size_t> order;
  common::parallel_for(0, 10, 100,
                       [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, RejectsZeroGrain) {
  EXPECT_THROW(common::parallel_for(0, 4, 0, [](std::size_t) {}),
               common::Error);
}

TEST(ParallelFor, PropagatesLowestIndexException) {
  ThreadsGuard guard;
  for (int threads : kThreadCounts) {
    common::set_global_threads(threads);
    try {
      common::parallel_for(0, 64, 1, [&](std::size_t i) {
        if (i % 2 == 1) throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "expected an exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      // Lowest throwing index wins, for every thread count.
      EXPECT_STREQ(e.what(), "boom 1") << "threads " << threads;
    }
  }
}

TEST(ParallelFor, PoolSurvivesAnExceptionBatch) {
  ThreadsGuard guard;
  common::set_global_threads(4);
  EXPECT_THROW(common::parallel_for(
                   0, 8, 1, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  // The next batch on the same pool must run normally.
  std::atomic<int> count{0};
  common::parallel_for(0, 32, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  ThreadsGuard guard;
  common::set_global_threads(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  for (auto& h : hits) h.store(0);
  common::parallel_for(0, 16, 1, [&](std::size_t outer) {
    EXPECT_TRUE(common::ThreadPool::in_parallel_region());
    common::parallel_for(0, 16, 1, [&](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
    // The guard must survive a nested region: a SECOND nested call from the
    // same task must also run inline instead of deadlocking on the pool.
    common::parallel_for(0, 4, 1, [&](std::size_t) {
      EXPECT_TRUE(common::ThreadPool::in_parallel_region());
    });
  });
  EXPECT_FALSE(common::ThreadPool::in_parallel_region());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelMap, ResultsLandInIndexOrder) {
  ThreadsGuard guard;
  for (int threads : kThreadCounts) {
    common::set_global_threads(threads);
    const auto out = common::parallel_map(
        100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ChunkRanges, TilesTheRangeExactly) {
  const auto chunks = common::chunk_ranges(10, 3);  // 3+3+3+1
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks.front().first, 0u);
  EXPECT_EQ(chunks.back().second, 10u);
  for (std::size_t c = 1; c < chunks.size(); ++c)
    EXPECT_EQ(chunks[c].first, chunks[c - 1].second);
  EXPECT_TRUE(common::chunk_ranges(0, 4).empty());
}

TEST(Threads, ConfiguredThreadsReflectsOverride) {
  ThreadsGuard guard;
  common::set_global_threads(3);
  EXPECT_EQ(common::configured_threads(), 3);
  common::set_global_threads(0);
  EXPECT_GE(common::configured_threads(), 1);
}

// ---------------------------------------------------------------------------
// Determinism contract: identical seeds + any thread count => identical
// results, bit for bit.
// ---------------------------------------------------------------------------

core::FractionalPlacement spread_fractional(int objects, int nodes) {
  core::FractionalPlacement x(objects, nodes);
  for (int i = 0; i < objects; ++i) {
    // Distinct, genuinely fractional rows so trials differ.
    double rest = 1.0;
    for (int k = 0; k + 1 < nodes; ++k) {
      const double v = rest * (0.3 + 0.05 * ((i + k) % 5));
      x.set(i, k, v);
      rest -= v;
    }
    x.set(i, nodes - 1, rest);
  }
  return x;
}

TEST(Determinism, RoundBestOfIsThreadCountInvariant) {
  ThreadsGuard guard;
  const core::FractionalPlacement x = spread_fractional(12, 4);
  const core::CcaInstance inst(
      std::vector<double>(12, 1.0), std::vector<double>(4, 6.0),
      {{0, 1, 0.9, 4.0}, {2, 3, 0.7, 2.0}, {4, 5, 0.5, 1.0}});
  std::vector<core::RoundingResult> results;
  std::vector<std::uint64_t> next_draws;
  for (int threads : kThreadCounts) {
    common::set_global_threads(threads);
    common::Rng rng(12345);
    results.push_back(
        core::round_best_of(x, inst, core::RoundingPolicy{16, true}, rng));
    next_draws.push_back(rng());  // the caller stream must advance identically
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].placement, results[0].placement)
        << "threads " << kThreadCounts[i];
    EXPECT_EQ(results[i].cost, results[0].cost);
    EXPECT_EQ(results[i].max_load_factor, results[0].max_load_factor);
    EXPECT_EQ(results[i].feasible, results[0].feasible);
    EXPECT_EQ(next_draws[i], next_draws[0]);
  }
}

TEST(Determinism, ReplayTraceIsThreadCountInvariant) {
  ThreadsGuard guard;
  // A workload big enough to span many shard boundaries... the shard grain
  // is 1024, so 5000 queries exercise merging across 5 chunks.
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 300;
  wcfg.num_topics = 30;
  wcfg.topic_size = 6;
  wcfg.seed = 7;
  const trace::WorkloadModel model(wcfg);
  const trace::QueryTrace trace = model.generate(5000, 99);

  trace::CorpusConfig ccfg;
  ccfg.num_documents = 400;
  ccfg.vocabulary_size = 300;
  ccfg.mean_distinct_words = 40.0;
  ccfg.seed = 7;
  const trace::Corpus corpus = trace::Corpus::generate(ccfg);
  const std::vector<std::uint64_t> sizes =
      search::InvertedIndex::build(corpus).index_sizes();

  std::vector<int> placement(sizes.size());
  for (std::size_t k = 0; k < placement.size(); ++k)
    placement[k] = static_cast<int>(k % 5);

  for (auto kind : {sim::OperationKind::kIntersection,
                    sim::OperationKind::kIntersectionBloom,
                    sim::OperationKind::kUnion}) {
    std::vector<sim::ReplayStats> stats;
    std::vector<std::uint64_t> cluster_bytes;
    for (int threads : kThreadCounts) {
      common::set_global_threads(threads);
      // A fresh index per run: an index memoises its trace profiles, so
      // this makes every run build the profile at its own thread count.
      const search::InvertedIndex index = search::InvertedIndex::build(corpus);
      sim::Cluster cluster(5, 1e9);
      cluster.install_placement(placement, sizes);
      stats.push_back(sim::replay_trace(cluster, index, trace, kind));
      cluster_bytes.push_back(cluster.total_network_bytes());
    }
    for (std::size_t i = 1; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].queries, stats[0].queries);
      EXPECT_EQ(stats[i].multi_keyword_queries, stats[0].multi_keyword_queries);
      EXPECT_EQ(stats[i].local_queries, stats[0].local_queries);
      EXPECT_EQ(stats[i].total_bytes, stats[0].total_bytes);
      EXPECT_EQ(stats[i].total_messages, stats[0].total_messages);
      // Bit-identical, not just close: merged in shard order.
      EXPECT_EQ(stats[i].mean_bytes_per_query, stats[0].mean_bytes_per_query);
      EXPECT_EQ(stats[i].p99_bytes_per_query, stats[0].p99_bytes_per_query);
      EXPECT_EQ(stats[i].mean_latency_ms, stats[0].mean_latency_ms);
      EXPECT_EQ(stats[i].p99_latency_ms, stats[0].p99_latency_ms);
      EXPECT_EQ(cluster_bytes[i], cluster_bytes[0]);
    }
    EXPECT_GT(stats[0].total_bytes, 0u);  // the comparison is not vacuous
  }
}

TEST(Determinism, PairCounterIsThreadCountInvariant) {
  ThreadsGuard guard;
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 500;
  wcfg.num_topics = 50;
  wcfg.seed = 3;
  const trace::WorkloadModel model(wcfg);
  const trace::QueryTrace trace = model.generate(20000, 11);
  std::vector<std::uint64_t> sizes(500);
  for (std::size_t k = 0; k < sizes.size(); ++k) sizes[k] = 8 * (k % 97 + 1);

  std::vector<std::vector<trace::PairCount>> all_pairs, smallest_pairs;
  for (int threads : kThreadCounts) {
    common::set_global_threads(threads);
    all_pairs.push_back(
        trace::PairCounter::count_all_pairs(trace).sorted_pairs());
    smallest_pairs.push_back(
        trace::PairCounter::count_smallest_pair(trace, sizes).sorted_pairs());
  }
  ASSERT_FALSE(all_pairs[0].empty());
  for (std::size_t i = 1; i < all_pairs.size(); ++i) {
    ASSERT_EQ(all_pairs[i].size(), all_pairs[0].size());
    ASSERT_EQ(smallest_pairs[i].size(), smallest_pairs[0].size());
    for (std::size_t p = 0; p < all_pairs[0].size(); ++p) {
      EXPECT_EQ(all_pairs[i][p].pair, all_pairs[0][p].pair);
      EXPECT_EQ(all_pairs[i][p].count, all_pairs[0][p].count);
    }
    for (std::size_t p = 0; p < smallest_pairs[0].size(); ++p) {
      EXPECT_EQ(smallest_pairs[i][p].pair, smallest_pairs[0][p].pair);
      EXPECT_EQ(smallest_pairs[i][p].count, smallest_pairs[0][p].count);
    }
  }
}

TEST(Determinism, TopPairsMatchesSortedPairsHead) {
  // nth_element-based top_pairs must agree with the full sort's head.
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 200;
  wcfg.num_topics = 20;
  wcfg.seed = 5;
  const trace::WorkloadModel model(wcfg);
  const trace::PairCounter counter =
      trace::PairCounter::count_all_pairs(model.generate(5000, 1));
  const auto all = counter.sorted_pairs();
  for (std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{100},
                        all.size(), all.size() + 50}) {
    const auto top = counter.top_pairs(k);
    ASSERT_EQ(top.size(), std::min(k, all.size())) << "k=" << k;
    for (std::size_t p = 0; p < top.size(); ++p) {
      EXPECT_EQ(top[p].pair, all[p].pair);
      EXPECT_EQ(top[p].count, all[p].count);
    }
  }
}

}  // namespace
}  // namespace cca
