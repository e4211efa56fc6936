#include "sim/replay.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace cca::sim {

namespace {

/// Queries per replay shard. Chunk boundaries do not affect results (every
/// merged quantity is either an exact integer sum or a per-query value
/// concatenated back into trace order), so the grain is purely a
/// throughput knob: large enough to amortize dispatch, small enough to
/// load-balance a 40k-query default trace across a pool.
constexpr std::size_t kShardGrain = 1024;

/// Widest query in the trace — the up-front reserve for the fault
/// replay's per-shard scratch (sub-query buffers, live execution), so the
/// shard loop never grows a buffer mid-query.
std::size_t max_query_width(const std::vector<trace::Query>& queries) {
  std::size_t width = 0;
  for (const trace::Query& q : queries) width = std::max(width, q.size());
  return width;
}

struct Shard {
  ClusterDelta delta;
  ReplayStats partial;  // counter fields only; aggregates filled later
  std::vector<double> per_query_bytes;
  std::vector<double> per_query_latency;
};

}  // namespace

ReplayStats replay_trace(Cluster& cluster, const search::InvertedIndex& index,
                         const trace::QueryTrace& trace, OperationKind kind,
                         std::vector<std::uint64_t> keyword_bytes,
                         const LatencyModel& latency, ReplayCapture* capture,
                         QueryRange range) {
  const std::vector<trace::Query>& queries = trace.queries();
  range.end = std::min(range.end, queries.size());
  CCA_CHECK_MSG(range.begin <= range.end,
                "query range starts at " << range.begin << ", past its end "
                                         << range.end);
  const std::shared_ptr<const search::QueryProfile> profile =
      search::QueryProfile::of(index, trace, kind, keyword_bytes);
  const bool parallel_fanout = kind == OperationKind::kUnion;

  // The trace is sharded across the pool. Each shard replays its query
  // range with a private ClusterDelta and private per-query vectors; the
  // cluster is only read (node_of) during the parallel phase and mutated
  // by merging the deltas in shard order after the join. Per-query values
  // concatenate back into trace order, so means and percentiles are
  // bit-identical to a sequential replay for any thread count.
  const auto chunks =
      common::chunk_ranges(range.end - range.begin, kShardGrain);
  std::vector<Shard> shards(chunks.size());
  common::parallel_for(0, chunks.size(), 1, [&](std::size_t c) {
    const std::size_t begin = range.begin + chunks[c].first;
    const std::size_t end = range.begin + chunks[c].second;
    Shard& shard = shards[c];
    shard.delta = ClusterDelta(cluster.num_nodes());
    shard.per_query_bytes.reserve(end - begin);
    shard.per_query_latency.reserve(end - begin);

    const core::PlacementMap& map = cluster.map();
    const auto placement = [&map](trace::KeywordId k) {
      return map.resolve(k);
    };
    // Per-query latency accumulates through the observer: transfers
    // arrive in plan order, summed for sequential intersection steps and
    // maxed for the union fan-out.
    double query_latency = 0.0;
    const auto observer = [&](int from, int to, std::uint64_t bytes) {
      shard.delta.record_transfer(from, to, bytes);
      const double ms = latency.transfer_ms(bytes);
      query_latency =
          parallel_fanout ? std::max(query_latency, ms) : query_latency + ms;
    };

    for (std::size_t q = begin; q < end; ++q) {
      const trace::Query& query = queries[q];
      query_latency = 0.0;
      const search::QueryCost cost = profile->walk(q, placement, observer);
      ++shard.partial.queries;
      if (query.size() >= 2) {
        ++shard.partial.multi_keyword_queries;
        if (cost.local) ++shard.partial.local_queries;
      }
      shard.partial.total_bytes += cost.bytes_transferred;
      shard.partial.total_messages += cost.messages;
      shard.per_query_bytes.push_back(
          static_cast<double>(cost.bytes_transferred));
      shard.per_query_latency.push_back(query_latency);
    }
  });

  ReplayStats stats;
  std::vector<double> per_query_bytes;
  std::vector<double> per_query_latency;
  per_query_bytes.reserve(range.end - range.begin);
  per_query_latency.reserve(range.end - range.begin);
  for (Shard& shard : shards) {
    stats.queries += shard.partial.queries;
    stats.multi_keyword_queries += shard.partial.multi_keyword_queries;
    stats.local_queries += shard.partial.local_queries;
    stats.total_bytes += shard.partial.total_bytes;
    stats.total_messages += shard.partial.total_messages;
    per_query_bytes.insert(per_query_bytes.end(),
                           shard.per_query_bytes.begin(),
                           shard.per_query_bytes.end());
    per_query_latency.insert(per_query_latency.end(),
                             shard.per_query_latency.begin(),
                             shard.per_query_latency.end());
    cluster.apply(shard.delta);
  }

  if (!per_query_bytes.empty()) {
    stats.mean_bytes_per_query = common::mean_of(per_query_bytes);
    stats.p99_bytes_per_query = common::percentile(per_query_bytes, 99.0);
    stats.mean_latency_ms = common::mean_of(per_query_latency);
    stats.p99_latency_ms = common::percentile(per_query_latency, 99.0);
  }
  stats.max_storage_factor = cluster.max_storage_factor();
  stats.storage_imbalance = cluster.storage_imbalance();
  if (capture) {
    capture->per_query_bytes.insert(capture->per_query_bytes.end(),
                                    per_query_bytes.begin(),
                                    per_query_bytes.end());
    capture->per_query_latency.insert(capture->per_query_latency.end(),
                                      per_query_latency.begin(),
                                      per_query_latency.end());
  }

  // Replay accounting, recorded once per trace after the join. Bytes are
  // split by operation kind so the figure benches (intersection vs Bloom
  // vs union) attribute traffic without re-parsing tables.
  if (common::metrics_enabled()) {
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& replays = reg.counter("sim.replay.calls");
    static common::Counter& queries_total = reg.counter("sim.replay.queries");
    static common::Counter& messages = reg.counter("sim.replay.messages");
    static common::Counter& bytes_intersection =
        reg.counter("sim.replay.bytes.intersection");
    static common::Counter& bytes_bloom =
        reg.counter("sim.replay.bytes.intersection_bloom");
    static common::Counter& bytes_union = reg.counter("sim.replay.bytes.union");
    static common::Histogram& storage_pct =
        reg.histogram("sim.replay.max_storage_factor_pct");
    replays.add();
    queries_total.add(static_cast<std::int64_t>(stats.queries));
    messages.add(static_cast<std::int64_t>(stats.total_messages));
    switch (kind) {
      case OperationKind::kIntersection:
        bytes_intersection.add(static_cast<std::int64_t>(stats.total_bytes));
        break;
      case OperationKind::kIntersectionBloom:
        bytes_bloom.add(static_cast<std::int64_t>(stats.total_bytes));
        break;
      case OperationKind::kUnion:
        bytes_union.add(static_cast<std::int64_t>(stats.total_bytes));
        break;
    }
    storage_pct.observe(
        static_cast<std::uint64_t>(100.0 * stats.max_storage_factor));
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Failure-aware replay.
// ---------------------------------------------------------------------------

namespace {

/// Per-shard accumulator for the fault replay (counter fields of
/// FaultReplayStats plus the per-query vectors merged in shard order).
struct FaultShard {
  ClusterDelta delta;
  FaultReplayStats partial;
  double coverage_sum = 0.0;
  std::vector<double> per_query_bytes;
  std::vector<double> per_query_latency;
};

/// Jitter token of one keyword fetch: unique per (query, keyword) and
/// independent of sharding.
std::uint64_t fetch_token(std::size_t query_index, trace::KeywordId k) {
  return static_cast<std::uint64_t>(query_index) * 1000003ULL +
         static_cast<std::uint64_t>(k);
}

}  // namespace

FaultReplayStats replay_trace_with_faults(Cluster& cluster,
                                          const search::InvertedIndex& index,
                                          const trace::QueryTrace& trace,
                                          const FaultReplayConfig& config) {
  CCA_CHECK_MSG(config.arrival_rate_qps > 0.0, "arrival rate must be > 0");
  if (config.faults)
    CCA_CHECK_MSG(config.faults->num_nodes() == cluster.num_nodes(),
                  "fault schedule covers " << config.faults->num_nodes()
                                           << " nodes, cluster has "
                                           << cluster.num_nodes());

  const std::shared_ptr<const search::QueryProfile> profile =
      search::QueryProfile::of(index, trace, config.kind);
  // Degraded queries execute live on their served sub-query.
  const search::QueryEngine engine(index);
  const core::PlacementMap& map = cluster.map();
  const std::vector<trace::Query>& queries = trace.queries();
  const std::size_t max_width = max_query_width(queries);
  const int num_nodes = cluster.num_nodes();
  const int degree = map.degree();
  const bool fully_replicated = degree == num_nodes - 1;

  // Arrival instants, drawn sequentially so the timeline is identical for
  // any thread count (same procedure as sim/event_sim).
  std::vector<double> arrival_ms(queries.size(), 0.0);
  {
    common::Rng rng(config.arrival_seed ^ 0x51ABCDEF1234ULL);
    const double mean_gap_ms = 1000.0 / config.arrival_rate_qps;
    double clock = 0.0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      clock += -std::log(1.0 - rng.next_double()) * mean_gap_ms;
      arrival_ms[q] = clock;
    }
  }

  const auto chunks = common::chunk_ranges(queries.size(), kShardGrain);
  std::vector<FaultShard> shards(chunks.size());
  common::parallel_for(0, chunks.size(), 1, [&](std::size_t c) {
    const auto [begin, end] = chunks[c];
    FaultShard& shard = shards[c];
    shard.delta = ClusterDelta(num_nodes);
    shard.per_query_bytes.reserve(end - begin);
    shard.per_query_latency.reserve(end - begin);

    std::vector<char> alive(static_cast<std::size_t>(num_nodes), 1);
    // Scratch per query: the served sub-query and its resolved sets — the
    // full (everywhere) set for fully replicated keywords, else the
    // singleton of whichever replica answered. Reserved to the trace's
    // widest query so the loop never grows them.
    trace::Query sub;
    std::vector<core::ReplicaSet> resolved;  // parallel to sub.keywords
    sub.keywords.reserve(max_width);
    resolved.reserve(max_width);
    search::QueryScratch scratch;
    scratch.reserve(max_width, engine.max_postings());
    scratch.begin_epoch(map.cache_token());

    double query_latency = 0.0;
    const bool parallel_fanout = config.kind == OperationKind::kUnion;
    const auto observer = [&](int from, int to, std::uint64_t bytes) {
      shard.delta.record_transfer(from, to, bytes);
      const double ms = config.latency.transfer_ms(bytes);
      query_latency =
          parallel_fanout ? std::max(query_latency, ms) : query_latency + ms;
    };
    const auto placement = [&](trace::KeywordId k) {
      for (std::size_t i = 0; i < sub.keywords.size(); ++i)
        if (sub.keywords[i] == k) return resolved[i];
      // Unreachable: the engine only asks about sub's keywords.
      return core::ReplicaSet::single(0);
    };

    for (std::size_t q = begin; q < end; ++q) {
      const trace::Query& query = queries[q];
      const double now = arrival_ms[q];
      int alive_count = num_nodes;
      if (config.faults) {
        for (int n = 0; n < num_nodes; ++n) {
          alive[static_cast<std::size_t>(n)] =
              config.faults->alive(n, now) ? 1 : 0;
          if (!alive[static_cast<std::size_t>(n)]) --alive_count;
        }
      }

      sub.keywords.clear();
      resolved.clear();
      double penalty_ms = 0.0;
      for (const trace::KeywordId k : query.keywords) {
        if (fully_replicated) {
          // A copy on every node: served wherever execution lands, with
          // no remote contact to time out — iff anything is alive.
          if (alive_count > 0) {
            sub.keywords.push_back(k);
            resolved.push_back(map.resolve(k));
          } else {
            ++shard.partial.unserved_keywords;
          }
          continue;
        }
        int slot = -1;
        const int node = map.resolve(k).first_alive(
            alive, config.retry.max_attempts, &slot);
        const int failed_attempts =
            node >= 0 ? slot
                      : std::min(config.retry.max_attempts, degree + 1);
        if (failed_attempts > 0) {
          shard.partial.retries +=
              static_cast<std::uint64_t>(failed_attempts);
          penalty_ms +=
              config.retry.penalty_ms(failed_attempts, fetch_token(q, k));
        }
        if (node >= 0) {
          if (slot > 0) ++shard.partial.failovers;
          sub.keywords.push_back(k);
          resolved.push_back(core::ReplicaSet::single(node));
        } else {
          ++shard.partial.unserved_keywords;
        }
      }

      query_latency = 0.0;
      search::QueryCost cost;
      if (sub.keywords.size() == query.size()) {
        cost = profile->walk(q, placement, observer);
      } else if (!sub.keywords.empty()) {
        switch (config.kind) {
          case OperationKind::kIntersection:
            cost = engine.execute_intersection(sub, placement, observer,
                                               &scratch);
            break;
          case OperationKind::kIntersectionBloom:
            cost = engine.execute_intersection_bloom(
                sub, placement, search::kDefaultBloomBitsPerKey, observer,
                &scratch);
            break;
          case OperationKind::kUnion:
            cost = engine.execute_union(sub, placement, observer, &scratch);
            break;
        }
      }
      query_latency += penalty_ms;

      const double coverage =
          query.size() == 0
              ? 1.0
              : static_cast<double>(sub.keywords.size()) /
                    static_cast<double>(query.size());
      shard.coverage_sum += coverage;
      ++shard.partial.base.queries;
      if (sub.keywords.size() == query.size()) {
        ++shard.partial.fully_served;
        if (query.size() >= 2) {
          ++shard.partial.base.multi_keyword_queries;
          if (cost.local) ++shard.partial.base.local_queries;
        }
      } else if (!sub.keywords.empty()) {
        ++shard.partial.degraded;
        if (query.size() >= 2) ++shard.partial.base.multi_keyword_queries;
      } else {
        ++shard.partial.failed;
        if (query.size() >= 2) ++shard.partial.base.multi_keyword_queries;
      }
      shard.partial.base.total_bytes += cost.bytes_transferred;
      shard.partial.base.total_messages += cost.messages;
      shard.per_query_bytes.push_back(
          static_cast<double>(cost.bytes_transferred));
      shard.per_query_latency.push_back(query_latency);
    }
  });

  FaultReplayStats stats;
  double coverage_sum = 0.0;
  std::vector<double> per_query_bytes;
  std::vector<double> per_query_latency;
  per_query_bytes.reserve(queries.size());
  per_query_latency.reserve(queries.size());
  for (FaultShard& shard : shards) {
    stats.base.queries += shard.partial.base.queries;
    stats.base.multi_keyword_queries += shard.partial.base.multi_keyword_queries;
    stats.base.local_queries += shard.partial.base.local_queries;
    stats.base.total_bytes += shard.partial.base.total_bytes;
    stats.base.total_messages += shard.partial.base.total_messages;
    stats.fully_served += shard.partial.fully_served;
    stats.degraded += shard.partial.degraded;
    stats.failed += shard.partial.failed;
    stats.retries += shard.partial.retries;
    stats.failovers += shard.partial.failovers;
    stats.unserved_keywords += shard.partial.unserved_keywords;
    coverage_sum += shard.coverage_sum;
    per_query_bytes.insert(per_query_bytes.end(),
                           shard.per_query_bytes.begin(),
                           shard.per_query_bytes.end());
    per_query_latency.insert(per_query_latency.end(),
                             shard.per_query_latency.begin(),
                             shard.per_query_latency.end());
    cluster.apply(shard.delta);
  }

  if (!per_query_bytes.empty()) {
    stats.base.mean_bytes_per_query = common::mean_of(per_query_bytes);
    stats.base.p99_bytes_per_query = common::percentile(per_query_bytes, 99.0);
    stats.base.mean_latency_ms = common::mean_of(per_query_latency);
    stats.base.p99_latency_ms = common::percentile(per_query_latency, 99.0);
  }
  if (stats.base.queries > 0) {
    stats.availability = static_cast<double>(stats.fully_served) /
                         static_cast<double>(stats.base.queries);
    stats.mean_coverage =
        coverage_sum / static_cast<double>(stats.base.queries);
  }
  stats.base.max_storage_factor = cluster.max_storage_factor();
  stats.base.storage_imbalance = cluster.storage_imbalance();

  if (common::metrics_enabled()) {
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& replays = reg.counter("sim.fault_replay.calls");
    static common::Counter& queries_total =
        reg.counter("sim.fault_replay.queries");
    static common::Counter& retries = reg.counter("sim.fault_replay.retries");
    static common::Counter& failovers =
        reg.counter("sim.fault_replay.failovers");
    static common::Counter& unserved =
        reg.counter("sim.fault_replay.unserved_keywords");
    static common::Counter& degraded =
        reg.counter("sim.fault_replay.degraded_queries");
    static common::Counter& failed =
        reg.counter("sim.fault_replay.failed_queries");
    static common::Histogram& availability_pct =
        reg.histogram("sim.fault_replay.availability_pct");
    replays.add();
    queries_total.add(static_cast<std::int64_t>(stats.base.queries));
    retries.add(static_cast<std::int64_t>(stats.retries));
    failovers.add(static_cast<std::int64_t>(stats.failovers));
    unserved.add(static_cast<std::int64_t>(stats.unserved_keywords));
    degraded.add(static_cast<std::int64_t>(stats.degraded));
    failed.add(static_cast<std::int64_t>(stats.failed));
    availability_pct.observe(
        static_cast<std::uint64_t>(100.0 * stats.availability));
  }
  return stats;
}

}  // namespace cca::sim
