// Replay determinism under the block data plane: every ReplayStats field
// must be bit-identical across --threads={1,2,8}, and the replay's
// answers must equal a live engine's under either codec (block and
// varint). Thread count moves the shard boundaries, which moves which
// shard's decoded-block cache serves each query warm or cold — so this is
// exactly the warm/cold byte-identity contract, scrutinised under TSan
// via the sanitize label.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "search/block_postings.hpp"
#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "sim/cluster.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca {
namespace {

/// Restores the default pool size when a test returns.
struct ThreadsGuard {
  ~ThreadsGuard() { common::set_global_threads(0); }
};

/// A live engine's totals over the whole trace, query by query.
struct LiveTotals {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::size_t local_queries = 0;
};

LiveTotals live_totals(const search::QueryEngine& engine,
                       const trace::QueryTrace& trace,
                       const std::vector<int>& placement,
                       sim::OperationKind kind) {
  const auto place = [&placement](trace::KeywordId k) {
    return core::ReplicaSet::single(placement[k]);
  };
  LiveTotals totals;
  for (const trace::Query& query : trace.queries()) {
    search::QueryCost cost;
    switch (kind) {
      case sim::OperationKind::kIntersection:
        cost = engine.execute_intersection(query, place);
        break;
      case sim::OperationKind::kIntersectionBloom:
        cost = engine.execute_intersection_bloom(
            query, place, search::kDefaultBloomBitsPerKey);
        break;
      case sim::OperationKind::kUnion:
        cost = engine.execute_union(query, place);
        break;
    }
    totals.bytes += cost.bytes_transferred;
    totals.messages += cost.messages;
    if (query.size() >= 2 && cost.local) ++totals.local_queries;
  }
  return totals;
}

TEST(BlockParallel, ReplayBitIdenticalAcrossThreadsAndCodecs) {
  ThreadsGuard guard;
  // 5000 queries span several 1024-query shards, so raising the thread
  // count genuinely reshuffles cache warm/cold patterns.
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 300;
  wcfg.num_topics = 30;
  wcfg.topic_size = 6;
  wcfg.seed = 17;
  const trace::QueryTrace trace =
      trace::WorkloadModel(wcfg).generate(5000, 23);

  trace::CorpusConfig ccfg;
  ccfg.num_documents = 400;
  ccfg.vocabulary_size = 300;
  ccfg.mean_distinct_words = 40.0;
  ccfg.seed = 17;
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
    for (int threads : {1, 2, 8}) {
      common::set_global_threads(threads);
      // A fresh index per run: an index memoises its trace profiles, so
      // this makes every run build the profile at its own thread count.
      const search::InvertedIndex index = search::InvertedIndex::build(corpus);
      sim::Cluster cluster(5, 1e9);
      cluster.install_placement(placement, sizes);
      stats.push_back(sim::replay_trace(cluster, index, trace, kind));
    }
    // The three runs must agree field-exact, and with a live engine under
    // either codec: the codec and the cache change time, never answers.
    const search::InvertedIndex index = search::InvertedIndex::build(corpus);
    for (search::PostingCodec codec :
         {search::PostingCodec::kBlock, search::PostingCodec::kVarint}) {
      const LiveTotals live = live_totals(search::QueryEngine(index, codec),
                                          trace, placement, kind);
      EXPECT_EQ(live.bytes, stats[0].total_bytes);
      EXPECT_EQ(live.messages, stats[0].total_messages);
      EXPECT_EQ(live.local_queries, stats[0].local_queries);
    }
    for (std::size_t i = 1; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].queries, stats[0].queries);
      EXPECT_EQ(stats[i].multi_keyword_queries,
                stats[0].multi_keyword_queries);
      EXPECT_EQ(stats[i].local_queries, stats[0].local_queries);
      EXPECT_EQ(stats[i].total_bytes, stats[0].total_bytes);
      EXPECT_EQ(stats[i].total_messages, stats[0].total_messages);
      EXPECT_EQ(stats[i].mean_bytes_per_query, stats[0].mean_bytes_per_query);
      EXPECT_EQ(stats[i].p99_bytes_per_query, stats[0].p99_bytes_per_query);
      EXPECT_EQ(stats[i].mean_latency_ms, stats[0].mean_latency_ms);
      EXPECT_EQ(stats[i].p99_latency_ms, stats[0].p99_latency_ms);
      EXPECT_EQ(stats[i].max_storage_factor, stats[0].max_storage_factor);
      EXPECT_EQ(stats[i].storage_imbalance, stats[0].storage_imbalance);
    }
    EXPECT_GT(stats[0].total_bytes, 0u);  // the comparison is not vacuous
  }
}

TEST(BlockParallel, FaultReplayBitIdenticalAcrossThreads) {
  ThreadsGuard guard;
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 200;
  wcfg.num_topics = 20;
  wcfg.seed = 19;
  const trace::QueryTrace trace =
      trace::WorkloadModel(wcfg).generate(3000, 29);

  trace::CorpusConfig ccfg;
  ccfg.num_documents = 300;
  ccfg.vocabulary_size = 200;
  ccfg.mean_distinct_words = 30.0;
  ccfg.seed = 19;
  const trace::Corpus corpus = trace::Corpus::generate(ccfg);
  const std::vector<std::uint64_t> sizes =
      search::InvertedIndex::build(corpus).index_sizes();

  std::vector<int> placement(sizes.size());
  for (std::size_t k = 0; k < placement.size(); ++k)
    placement[k] = static_cast<int>(k % 4);

  const sim::FaultSchedule schedule = sim::FaultSchedule::from_events(
      4, {{50.0, 1, sim::FaultEventKind::kCrash},
          {450.0, 1, sim::FaultEventKind::kRecover}});
  sim::FaultReplayConfig config;
  config.faults = &schedule;
  config.arrival_rate_qps = 5000.0;  // the crash window covers real traffic

  std::vector<sim::FaultReplayStats> stats;
  for (int threads : {1, 2, 8}) {
    common::set_global_threads(threads);
    const search::InvertedIndex index = search::InvertedIndex::build(corpus);
    sim::Cluster cluster(4, 1e9);
    cluster.install_placement(placement, sizes);
    stats.push_back(
        sim::replay_trace_with_faults(cluster, index, trace, config));
  }
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].base.total_bytes, stats[0].base.total_bytes);
    EXPECT_EQ(stats[i].base.p99_latency_ms, stats[0].base.p99_latency_ms);
    EXPECT_EQ(stats[i].fully_served, stats[0].fully_served);
    EXPECT_EQ(stats[i].degraded, stats[0].degraded);
    EXPECT_EQ(stats[i].failed, stats[0].failed);
    EXPECT_EQ(stats[i].availability, stats[0].availability);
    EXPECT_EQ(stats[i].mean_coverage, stats[0].mean_coverage);
    EXPECT_EQ(stats[i].retries, stats[0].retries);
    EXPECT_EQ(stats[i].failovers, stats[0].failovers);
  }
  EXPECT_GT(stats[0].base.total_bytes, 0u);
}

}  // namespace
}  // namespace cca
