// The event simulation on the replay's path. simulate_load takes its
// transfer chains from the trace's memoised QueryProfile, which the
// common::parallel pool builds; its statistics must therefore be
// bit-identical for any pool size, and the same whether the profile is
// built by this call or was already built by an earlier replay_trace or
// simulate_load on the same index. Lives in the sanitize-labelled binary
// so TSan watches the parallel profile build it now rides on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "core/placement_map.hpp"
#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "sim/event_sim.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca::sim {
namespace {

constexpr std::size_t kVocab = 300;
constexpr int kNodes = 5;

/// Restores the default pool size and switches metrics off when a test
/// returns.
struct ThreadsGuard {
  ~ThreadsGuard() {
    common::set_global_threads(0);
    common::MetricsRegistry::global().set_enabled(false);
  }
};

std::int64_t profile_builds() {
  return common::MetricsRegistry::global()
      .counter("search.profile.builds")
      .total();
}

trace::Corpus make_corpus() {
  trace::CorpusConfig cfg;
  cfg.num_documents = 400;
  cfg.vocabulary_size = kVocab;
  cfg.mean_distinct_words = 40.0;
  cfg.seed = 41;
  return trace::Corpus::generate(cfg);
}

/// 3000 queries: several profile-build shards, and fewer than the
/// injected arrivals, so the simulation cycles the trace.
trace::QueryTrace make_trace() {
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = kVocab;
  cfg.num_topics = 30;
  cfg.seed = 41;
  return trace::WorkloadModel(cfg).generate(3000, 43);
}

/// A degree-1 epoch, so the chains go through replica-set resolution.
Cluster make_cluster(const search::InvertedIndex& index) {
  core::PlacementMapConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.degree = 1;
  Cluster cluster(kNodes, 1e9);
  cluster.install_placement(std::make_shared<const core::PlacementMap>(
                                core::PlacementMap::hashed(kVocab, cfg)),
                            index.index_sizes());
  return cluster;
}

/// Loaded enough that NICs queue: the tail depends on every chain.
EventSimConfig loaded_config() {
  EventSimConfig cfg;
  cfg.arrival_rate_qps = 4000.0;
  cfg.nic_mbps = 40.0;
  cfg.num_queries = 5000;
  cfg.seed = 7;
  return cfg;
}

void expect_same(const EventSimStats& a, const EventSimStats& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.p50_latency_ms, b.p50_latency_ms);
  EXPECT_EQ(a.p99_latency_ms, b.p99_latency_ms);
  EXPECT_EQ(a.max_nic_utilization, b.max_nic_utilization);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
}

TEST(EventSimProfile, BitIdenticalAcrossThreadCounts) {
  ThreadsGuard guard;
  const trace::Corpus corpus = make_corpus();
  const trace::QueryTrace trace = make_trace();
  std::vector<EventSimStats> stats;
  for (const int threads : {1, 2, 8}) {
    common::set_global_threads(threads);
    // A fresh index per run, so each run builds the profile at its own
    // pool size.
    const search::InvertedIndex index = search::InvertedIndex::build(corpus);
    stats.push_back(
        simulate_load(make_cluster(index), index, trace, loaded_config()));
  }
  for (std::size_t i = 1; i < stats.size(); ++i)
    expect_same(stats[i], stats[0]);
  EXPECT_EQ(stats[0].completed, loaded_config().num_queries);
  EXPECT_GT(stats[0].p99_latency_ms, 0.0);  // the comparison is not vacuous
  EXPECT_GT(stats[0].max_nic_utilization, 0.0);
}

TEST(EventSimProfile, SameStatsWhetherOrNotTheProfileIsMemoised) {
  ThreadsGuard guard;
  common::set_global_threads(2);
  common::MetricsRegistry::global().set_enabled(true);
  const trace::Corpus corpus = make_corpus();
  const trace::QueryTrace trace = make_trace();

  const search::InvertedIndex fresh = search::InvertedIndex::build(corpus);
  const EventSimStats reference =
      simulate_load(make_cluster(fresh), fresh, trace, loaded_config());

  // The profile an earlier replay built.
  const search::InvertedIndex replayed = search::InvertedIndex::build(corpus);
  Cluster replay_cluster = make_cluster(replayed);
  const ReplayStats replay = replay_trace(replay_cluster, replayed, trace);
  EXPECT_GT(replay.total_bytes, 0u);
  const std::int64_t builds = profile_builds();
  expect_same(
      simulate_load(make_cluster(replayed), replayed, trace, loaded_config()),
      reference);
  EXPECT_EQ(profile_builds(), builds);  // the replay's profile served it

  // The profile an earlier simulation built — at another load, so the
  // only thing the two calls share is the memoised chains.
  const search::InvertedIndex simulated = search::InvertedIndex::build(corpus);
  EventSimConfig light = loaded_config();
  light.arrival_rate_qps = 100.0;
  simulate_load(make_cluster(simulated), simulated, trace, light);
  EXPECT_EQ(profile_builds(), builds + 1);
  expect_same(
      simulate_load(make_cluster(simulated), simulated, trace, loaded_config()),
      reference);
  EXPECT_EQ(profile_builds(), builds + 1);
}

}  // namespace
}  // namespace cca::sim
