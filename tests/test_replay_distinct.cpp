// The replay's two shortcuts against their plain definitions. A percentile
// selects its two closest-rank order statistics instead of sorting, and
// must return the sorted-order interpolation bit for bit. A replay walks
// each distinct query content once and charges it x multiplicity, and must
// report exactly what walking every trace query in order reports: every
// ReplayStats field, both capture series and each node's traffic. Lives in
// the sanitize-labelled binary: the distinct walk is sharded on the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/placement_map.hpp"
#include "search/compression.hpp"
#include "search/inverted_index.hpp"
#include "search/query_profile.hpp"
#include "sim/cluster.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca::sim {
namespace {

constexpr std::size_t kVocab = 300;
constexpr int kNodes = 5;

/// Restores the default pool size when a test returns.
struct ThreadsGuard {
  ~ThreadsGuard() { common::set_global_threads(0); }
};

/// The sort-based definition common::percentile must reproduce.
double sorted_percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

TEST(Stats, PercentileMatchesSortedOracle) {
  common::Rng rng(17);
  for (const std::size_t n : {1u, 2u, 3u, 1000u, 40000u}) {
    for (int draw = 0; draw < 4; ++draw) {
      // ~80% zeros, the rest from a small value set (ties) at two scales
      // (so the interpolation weights see fractional neighbours).
      std::vector<double> values(n);
      for (double& v : values)
        v = rng.next_below(5) != 0
                ? 0.0
                : static_cast<double>(rng.next_below(40)) *
                      (rng.next_below(2) == 0 ? 8.0 : 0.37);
      for (const double p : {0.0, 1.0, 50.0, 75.0, 99.0, 99.9, 100.0}) {
        SCOPED_TRACE(::testing::Message()
                     << "n " << n << " draw " << draw << " p " << p);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(common::percentile(values, p)),
                  std::bit_cast<std::uint64_t>(sorted_percentile(values, p)));
      }
    }
  }
}

trace::Corpus make_corpus() {
  trace::CorpusConfig cfg;
  cfg.num_documents = 400;
  cfg.vocabulary_size = kVocab;
  cfg.mean_distinct_words = 40.0;
  cfg.seed = 53;
  return trace::Corpus::generate(cfg);
}

trace::QueryTrace make_trace(std::size_t queries) {
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = kVocab;
  cfg.num_topics = 30;
  cfg.topic_size = 6;
  cfg.seed = 53;
  return trace::WorkloadModel(cfg).generate(queries, 59);
}

/// 3000 draws from 120 of the workload's queries: every content repeats.
trace::QueryTrace duplicated_trace() {
  const trace::QueryTrace pool = make_trace(120);
  common::Rng rng(61);
  trace::QueryTrace out(kVocab);
  for (int i = 0; i < 3000; ++i)
    out.add_query(pool[rng.next_below(pool.size())].keywords);
  return out;
}

/// The workload's queries with every repeated content dropped.
trace::QueryTrace duplicate_free_trace() {
  const trace::QueryTrace all = make_trace(4000);
  std::set<std::vector<trace::KeywordId>> seen;
  trace::QueryTrace out(kVocab);
  for (const trace::Query& q : all.queries())
    if (seen.insert(q.keywords).second) out.add_query(q.keywords);
  return out;
}

std::shared_ptr<const core::PlacementMap> make_map(int degree) {
  common::Rng rng(67 + static_cast<std::uint64_t>(degree));
  std::vector<int> plan(kVocab);
  for (int& node : plan)
    node = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(kNodes)));
  core::PlacementMapConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.degree = degree;
  return std::make_shared<const core::PlacementMap>(
      core::PlacementMap::build(plan, cfg));
}

/// What a replay leaves behind: its stats, its capture and the traffic it
/// charged to each node.
struct Outcome {
  ReplayStats stats;
  ReplayCapture capture;
  std::vector<std::uint64_t> sent, received;
};

void record_traffic(const Cluster& cluster, Outcome& out) {
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    out.sent.push_back(cluster.node(n).bytes_sent);
    out.received.push_back(cluster.node(n).bytes_received);
  }
}

/// The per-query definition: walk every trace query of `range` in order,
/// charging the cluster as it goes.
Outcome oracle_replay(Cluster& cluster, const search::QueryProfile& profile,
                      const trace::QueryTrace& trace, OperationKind kind,
                      QueryRange range) {
  const LatencyModel latency;
  const core::PlacementMap& map = cluster.map();
  const auto placement = [&map](trace::KeywordId k) { return map.resolve(k); };
  Outcome out;
  for (std::size_t q = range.begin; q < range.end; ++q) {
    double ms = 0.0;
    const auto observer = [&](int from, int to, std::uint64_t bytes) {
      cluster.record_transfer(from, to, bytes);
      const double step = latency.transfer_ms(bytes);
      ms = kind == OperationKind::kUnion ? std::max(ms, step) : ms + step;
    };
    const search::QueryCost cost = profile.walk(q, placement, observer);
    ++out.stats.queries;
    if (trace[q].size() >= 2) {
      ++out.stats.multi_keyword_queries;
      if (cost.local) ++out.stats.local_queries;
    }
    out.stats.total_bytes += cost.bytes_transferred;
    out.stats.total_messages += cost.messages;
    out.capture.per_query_bytes.push_back(
        static_cast<double>(cost.bytes_transferred));
    out.capture.per_query_latency.push_back(ms);
  }
  ReplayStats& s = out.stats;
  if (!out.capture.per_query_bytes.empty()) {
    s.mean_bytes_per_query = common::mean_of(out.capture.per_query_bytes);
    s.p99_bytes_per_query =
        sorted_percentile(out.capture.per_query_bytes, 99.0);
    s.mean_latency_ms = common::mean_of(out.capture.per_query_latency);
    s.p99_latency_ms = sorted_percentile(out.capture.per_query_latency, 99.0);
  }
  s.max_storage_factor = cluster.max_storage_factor();
  s.storage_imbalance = cluster.storage_imbalance();
  record_traffic(cluster, out);
  return out;
}

void expect_same(const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.stats.queries, want.stats.queries);
  EXPECT_EQ(got.stats.multi_keyword_queries, want.stats.multi_keyword_queries);
  EXPECT_EQ(got.stats.local_queries, want.stats.local_queries);
  EXPECT_EQ(got.stats.total_bytes, want.stats.total_bytes);
  EXPECT_EQ(got.stats.total_messages, want.stats.total_messages);
  EXPECT_EQ(got.stats.mean_bytes_per_query, want.stats.mean_bytes_per_query);
  EXPECT_EQ(got.stats.p99_bytes_per_query, want.stats.p99_bytes_per_query);
  EXPECT_EQ(got.stats.mean_latency_ms, want.stats.mean_latency_ms);
  EXPECT_EQ(got.stats.p99_latency_ms, want.stats.p99_latency_ms);
  EXPECT_EQ(got.stats.max_storage_factor, want.stats.max_storage_factor);
  EXPECT_EQ(got.stats.storage_imbalance, want.stats.storage_imbalance);
  EXPECT_EQ(got.capture.per_query_bytes, want.capture.per_query_bytes);
  EXPECT_EQ(got.capture.per_query_latency, want.capture.per_query_latency);
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.received, want.received);
}

TEST(ReplayDistinct, MatchesPerQueryWalk) {
  ThreadsGuard guard;
  const search::InvertedIndex index =
      search::InvertedIndex::build(make_corpus());
  const std::vector<std::uint64_t> sizes = index.index_sizes();
  const std::vector<std::uint64_t> compressed =
      search::compressed_index_sizes(index);

  const trace::QueryTrace duplicated = duplicated_trace();
  const trace::QueryTrace distinct = duplicate_free_trace();
  ASSERT_GT(distinct.size(), 1500u);  // ranges below cross shard bounds
  const auto and_profile = [&](const trace::QueryTrace& t) {
    return search::QueryProfile::of(index, t, OperationKind::kIntersection);
  };
  EXPECT_LE(and_profile(duplicated)->distinct_count(), 120u);
  EXPECT_EQ(and_profile(distinct)->distinct_count(), distinct.size());

  std::size_t remote = 0;
  for (const trace::QueryTrace* trace : {&duplicated, &distinct}) {
    const std::size_t n = trace->size();
    const std::vector<QueryRange> ranges = {
        {0, n}, {0, n / 3}, {n / 3, n - 200}, {n - 200, n}, {n / 2, n / 2}};
    for (const OperationKind kind :
         {OperationKind::kIntersection, OperationKind::kIntersectionBloom,
          OperationKind::kUnion}) {
      for (const bool override_sizes : {false, true}) {
        const std::vector<std::uint64_t> keyword_bytes =
            override_sizes ? compressed : std::vector<std::uint64_t>{};
        const auto profile =
            search::QueryProfile::of(index, *trace, kind, keyword_bytes);
        for (const int degree : {0, 1, kNodes - 1}) {
          const auto map = make_map(degree);
          for (const QueryRange& range : ranges) {
            common::set_global_threads(1);
            Cluster plain(kNodes, 1e9);
            plain.install_placement(map, sizes);
            const Outcome want =
                oracle_replay(plain, *profile, *trace, kind, range);
            if (want.stats.total_bytes > 0) ++remote;
            for (const int threads : {1, 2, 8}) {
              SCOPED_TRACE(::testing::Message()
                           << "trace of " << n << " kind "
                           << static_cast<int>(kind) << " override "
                           << override_sizes << " degree " << degree
                           << " range [" << range.begin << ", " << range.end
                           << ") threads " << threads);
              common::set_global_threads(threads);
              Cluster cluster(kNodes, 1e9);
              cluster.install_placement(map, sizes);
              Outcome got;
              got.stats =
                  replay_trace(cluster, index, *trace, kind, keyword_bytes,
                               LatencyModel{}, &got.capture, range);
              record_traffic(cluster, got);
              expect_same(got, want);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(remote, 50u);  // the comparison is not vacuous
}

}  // namespace
}  // namespace cca::sim
