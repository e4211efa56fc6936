// QueryProfile: a profile walk IS the live QueryEngine::execute_* for any
// placement (same QueryCost, placement lookups and observer traffic, in
// order); the per-index memo keys on exact trace content; a memoised
// replay touches no posting list; concurrent replays on one index agree.
// Lives in the sanitize-labelled binary: the shared memo (one build, many
// waiters) is what TSan should scrutinise.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/placement_map.hpp"
#include "search/block_postings.hpp"
#include "search/compression.hpp"
#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "search/query_profile.hpp"
#include "sim/cluster.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca::search {
namespace {

constexpr std::size_t kVocab = 300;
constexpr int kNodes = 5;

/// Restores the default pool size when a test returns.
struct ThreadsGuard {
  ~ThreadsGuard() { common::set_global_threads(0); }
};

trace::Corpus make_corpus() {
  trace::CorpusConfig ccfg;
  ccfg.num_documents = 400;
  ccfg.vocabulary_size = kVocab;
  ccfg.mean_distinct_words = 40.0;
  ccfg.seed = 31;
  return trace::Corpus::generate(ccfg);
}

trace::QueryTrace make_trace(std::size_t queries) {
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = kVocab;
  wcfg.num_topics = 30;
  wcfg.topic_size = 6;
  wcfg.seed = 31;
  return trace::WorkloadModel(wcfg).generate(queries, 37);
}

std::vector<int> random_plan(std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<int> plan(kVocab);
  for (int& node : plan)
    node = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(kNodes)));
  return plan;
}

core::PlacementMap random_map(std::uint64_t seed, int degree) {
  core::PlacementMapConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.degree = degree;
  return core::PlacementMap::build(random_plan(seed), cfg);
}

/// Everything an execution tells its caller: the cost plus every
/// placement lookup and transfer, in call order.
struct Recorded {
  QueryCost cost;
  std::vector<trace::KeywordId> lookups;
  std::vector<std::tuple<int, int, std::uint64_t>> transfers;
};

template <typename Execute>
Recorded record(const PlacementFn& placement, Execute&& execute) {
  Recorded run;
  const auto lookup = [&](trace::KeywordId k) {
    run.lookups.push_back(k);
    return placement(k);
  };
  const auto observer = [&](int from, int to, std::uint64_t bytes) {
    run.transfers.emplace_back(from, to, bytes);
  };
  run.cost = execute(PlacementRef(lookup), TransferObserverRef(observer));
  return run;
}

QueryCost execute_live(const QueryEngine& engine, OperationKind kind,
                       const trace::Query& query, PlacementRef placement,
                       TransferObserverRef observer) {
  switch (kind) {
    case OperationKind::kIntersection:
      return engine.execute_intersection(query, placement, observer);
    case OperationKind::kIntersectionBloom:
      return engine.execute_intersection_bloom(
          query, placement, kDefaultBloomBitsPerKey, observer);
    case OperationKind::kUnion:
      return engine.execute_union(query, placement, observer);
  }
  return {};
}

TEST(QueryProfile, WalkMatchesLiveExecution) {
  ThreadsGuard guard;
  common::set_global_threads(2);
  const InvertedIndex index = InvertedIndex::build(make_corpus());
  const trace::QueryTrace trace = make_trace(600);
  const std::vector<std::uint64_t> compressed = compressed_index_sizes(index);

  // Degree 0, 1 and full (every set everywhere), plus a mix where every
  // seventh keyword is fully replicated and the rest are single copies —
  // the co-location branches where only one side is everywhere.
  const core::PlacementMap degree0 = random_map(1, 0);
  const core::PlacementMap degree1 = random_map(2, 1);
  const core::PlacementMap full = random_map(3, kNodes - 1);
  const std::vector<int> mixed_plan = random_plan(4);
  const std::vector<PlacementFn> placements = {
      [&](trace::KeywordId k) { return degree0.resolve(k); },
      [&](trace::KeywordId k) { return degree1.resolve(k); },
      [&](trace::KeywordId k) { return full.resolve(k); },
      [&](trace::KeywordId k) {
        const int primary = mixed_plan[k];
        return k % 7 == 0 ? core::ReplicaSet{primary, kNodes - 1, kNodes}
                          : core::ReplicaSet::single(primary);
      },
  };

  // The size override serves from block only, so it pairs with block.
  std::size_t remote = 0;
  for (const PostingCodec codec :
       {PostingCodec::kBlock, PostingCodec::kVarint}) {
    for (const bool override_sizes : {false, true}) {
      if (override_sizes && codec != PostingCodec::kBlock) continue;
      const std::vector<std::uint64_t> keyword_bytes =
          override_sizes ? compressed : std::vector<std::uint64_t>{};
      const QueryEngine engine = override_sizes
                                     ? QueryEngine(index, keyword_bytes)
                                     : QueryEngine(index, codec);
      for (const OperationKind kind :
           {OperationKind::kIntersection, OperationKind::kIntersectionBloom,
            OperationKind::kUnion}) {
        const QueryProfile profile(index, trace, kind, keyword_bytes);
        ASSERT_EQ(profile.size(), trace.size());
        for (std::size_t p = 0; p < placements.size(); ++p) {
          for (std::size_t q = 0; q < trace.size(); ++q) {
            const Recorded live =
                record(placements[p], [&](auto place, auto obs) {
                  return execute_live(engine, kind, trace[q], place, obs);
                });
            const Recorded walked =
                record(placements[p], [&](auto place, auto obs) {
                  return profile.walk(q, place, obs);
                });
            SCOPED_TRACE(::testing::Message()
                         << "codec " << posting_codec_name(codec)
                         << " override " << override_sizes << " kind "
                         << static_cast<int>(kind) << " placement " << p
                         << " query " << q);
            ASSERT_EQ(walked.cost.bytes_transferred,
                      live.cost.bytes_transferred);
            ASSERT_EQ(walked.cost.messages, live.cost.messages);
            ASSERT_EQ(walked.cost.result_size, live.cost.result_size);
            ASSERT_EQ(walked.cost.local, live.cost.local);
            ASSERT_EQ(walked.lookups, live.lookups);
            ASSERT_EQ(walked.transfers, live.transfers);
            if (!live.transfers.empty()) ++remote;
          }
        }
      }
    }
  }
  EXPECT_GT(remote, 1000u);  // the comparison is not vacuous
}

TEST(QueryProfile, MemoKeysOnExactTraceContent) {
  const InvertedIndex index = InvertedIndex::build(make_corpus());
  const trace::QueryTrace trace = make_trace(300);
  constexpr OperationKind kAnd = OperationKind::kIntersection;
  const auto first = QueryProfile::of(index, trace, kAnd);

  // Equal content in a different object hits; so does a copy of the
  // index, which shares the memo.
  trace::QueryTrace copy = trace;
  EXPECT_EQ(QueryProfile::of(index, copy, kAnd), first);
  const InvertedIndex index_copy = index;
  EXPECT_EQ(QueryProfile::of(index_copy, copy, kAnd), first);

  // Every other key component misses.
  EXPECT_NE(QueryProfile::of(index, trace, OperationKind::kUnion), first);
  EXPECT_NE(
      QueryProfile::of(index, trace, kAnd, compressed_index_sizes(index)),
      first);

  // A same-length trace with one keyword changed misses.
  trace::QueryTrace edited(kVocab);
  for (std::size_t q = 0; q < trace.size(); ++q) {
    std::vector<trace::KeywordId> keywords = trace[q].keywords;
    if (q == trace.size() / 2)
      keywords.back() = keywords.back() + 1 < kVocab ? keywords.back() + 1 : 0;
    edited.add_query(std::move(keywords));
  }
  EXPECT_NE(QueryProfile::of(index, edited, kAnd), first);

  // add_query mutates the trace in place: the same object now misses.
  copy.add_query({1, 2});
  const auto grown = QueryProfile::of(index, copy, kAnd);
  EXPECT_NE(grown, first);
  EXPECT_EQ(grown->size(), first->size() + 1);
  EXPECT_EQ(QueryProfile::of(index, trace, kAnd), first);
  // A copy of the grown trace carries its digest and hits that profile.
  const trace::QueryTrace grown_copy = copy;
  EXPECT_EQ(QueryProfile::of(index, grown_copy, kAnd), grown);
}

TEST(QueryProfile, SecondReplayFetchesNoPostings) {
  const InvertedIndex index = InvertedIndex::build(make_corpus());
  const trace::QueryTrace trace = make_trace(500);
  const std::vector<std::uint64_t> sizes = index.index_sizes();
  std::size_t keywords = 0;
  for (const trace::Query& q : trace.queries()) keywords += q.size();

  auto& reg = common::MetricsRegistry::global();
  struct Disable {
    ~Disable() { common::MetricsRegistry::global().set_enabled(false); }
  } disable;
  reg.set_enabled(true);
  common::Counter& fetched = reg.counter("search.postings.fetched");
  const std::int64_t before = fetched.total();

  sim::Cluster first(kNodes, 1e9);
  first.install_placement(random_plan(5), sizes);
  const sim::ReplayStats a = sim::replay_trace(first, index, trace);
  const std::int64_t after_first = fetched.total();
  EXPECT_EQ(after_first - before, static_cast<std::int64_t>(keywords));

  // Another placement, same (index, trace): a pure walk.
  sim::Cluster second(kNodes, 1e9);
  second.install_placement(random_plan(6), sizes);
  const sim::ReplayStats b = sim::replay_trace(second, index, trace);
  EXPECT_EQ(fetched.total(), after_first);
  EXPECT_GT(a.total_bytes, 0u);
  EXPECT_GT(b.total_bytes, 0u);
}

void expect_same(const sim::ReplayStats& a, const sim::ReplayStats& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.multi_keyword_queries, b.multi_keyword_queries);
  EXPECT_EQ(a.local_queries, b.local_queries);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.mean_bytes_per_query, b.mean_bytes_per_query);
  EXPECT_EQ(a.p99_bytes_per_query, b.p99_bytes_per_query);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.p99_latency_ms, b.p99_latency_ms);
  EXPECT_EQ(a.max_storage_factor, b.max_storage_factor);
  EXPECT_EQ(a.storage_imbalance, b.storage_imbalance);
}

TEST(QueryProfile, RangeReplayMatchesASegmentTraceAndSharesTheProfile) {
  const InvertedIndex index = InvertedIndex::build(make_corpus());
  const trace::QueryTrace trace = make_trace(2500);
  const std::vector<std::uint64_t> sizes = index.index_sizes();
  const std::vector<int> plan = random_plan(9);
  const auto replay = [&](const trace::QueryTrace& t, sim::QueryRange range,
                          sim::ReplayCapture* capture, OperationKind kind) {
    sim::Cluster cluster(kNodes, 1e9);
    cluster.install_placement(plan, sizes);
    return sim::replay_trace(cluster, index, t, kind, {}, sim::LatencyModel{},
                             capture, range);
  };

  auto& reg = common::MetricsRegistry::global();
  struct Disable {
    ~Disable() { common::MetricsRegistry::global().set_enabled(false); }
  } disable;
  reg.set_enabled(true);
  common::Counter& fetched = reg.counter("search.postings.fetched");

  // Ranges cross the replay's 1024-query shard boundaries.
  const std::vector<sim::QueryRange> ranges = {{0, 900}, {900, 2200},
                                               {2200, 2500}};
  for (const OperationKind kind :
       {OperationKind::kIntersection, OperationKind::kUnion}) {
    const sim::ReplayStats whole = replay(trace, {}, nullptr, kind);
    std::uint64_t range_bytes = 0;
    for (const sim::QueryRange& range : ranges) {
      // A walk of the whole trace's profile: no posting list is touched.
      const std::int64_t before = fetched.total();
      sim::ReplayCapture ranged_capture;
      const sim::ReplayStats ranged =
          replay(trace, range, &ranged_capture, kind);
      EXPECT_EQ(fetched.total(), before);
      range_bytes += ranged.total_bytes;

      trace::QueryTrace segment(kVocab);
      for (std::size_t q = range.begin; q < range.end; ++q)
        segment.add_query(trace[q].keywords);
      sim::ReplayCapture segment_capture;
      expect_same(ranged, replay(segment, {}, &segment_capture, kind));
      EXPECT_EQ(ranged_capture.per_query_bytes,
                segment_capture.per_query_bytes);
      EXPECT_EQ(ranged_capture.per_query_latency,
                segment_capture.per_query_latency);
      EXPECT_EQ(ranged.queries, range.end - range.begin);
    }
    EXPECT_EQ(range_bytes, whole.total_bytes);
  }
}

TEST(QueryProfile, ConcurrentReplaysOnOneIndexAgree) {
  ThreadsGuard guard;
  const trace::Corpus corpus = make_corpus();
  const trace::QueryTrace trace = make_trace(3000);
  const std::vector<int> plan = random_plan(7);
  const std::vector<std::uint64_t> sizes =
      InvertedIndex::build(corpus).index_sizes();
  const auto replay = [&](const InvertedIndex& index, OperationKind kind) {
    sim::Cluster cluster(kNodes, 1e9);
    cluster.install_placement(plan, sizes);
    return sim::replay_trace(cluster, index, trace, kind);
  };

  for (const OperationKind kind :
       {OperationKind::kIntersection, OperationKind::kIntersectionBloom,
        OperationKind::kUnion}) {
    // Reference: the live engine, query by query.
    const InvertedIndex reference_index = InvertedIndex::build(corpus);
    const QueryEngine engine(reference_index);
    std::uint64_t live_bytes = 0;
    for (const trace::Query& q : trace.queries())
      live_bytes += execute_live(engine, kind, q,
                                 [&](trace::KeywordId k) {
                                   return core::ReplicaSet::single(plan[k]);
                                 },
                                 {})
                        .bytes_transferred;

    // Replays racing on a fresh index from pool tasks (as grid cells do):
    // one builds the profile, the others wait on it.
    common::set_global_threads(4);
    const InvertedIndex pooled = InvertedIndex::build(corpus);
    std::vector<sim::ReplayStats> stats(8);
    common::parallel_for(0, stats.size(), 1, [&](std::size_t i) {
      stats[i] = replay(pooled, kind);
    });

    // The same race from plain threads (each replay's shards inline).
    common::set_global_threads(1);
    const InvertedIndex threaded = InvertedIndex::build(corpus);
    std::vector<sim::ReplayStats> thread_stats(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < thread_stats.size(); ++i)
      threads.emplace_back(
          [&, i] { thread_stats[i] = replay(threaded, kind); });
    for (std::thread& t : threads) t.join();

    EXPECT_EQ(stats[0].total_bytes, live_bytes);
    EXPECT_GT(live_bytes, 0u);
    for (const sim::ReplayStats& s : stats) expect_same(s, stats[0]);
    for (const sim::ReplayStats& s : thread_stats) expect_same(s, stats[0]);
  }
}

}  // namespace
}  // namespace cca::search
