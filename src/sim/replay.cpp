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

void append_series(ReplayCapture& into, const ReplayCapture& from) {
  into.per_query_bytes.insert(into.per_query_bytes.end(),
                              from.per_query_bytes.begin(),
                              from.per_query_bytes.end());
  into.per_query_latency.insert(into.per_query_latency.end(),
                                from.per_query_latency.begin(),
                                from.per_query_latency.end());
}

/// What a replay body reports for one query: its cost, and the client-side
/// time it spent before any transfer (the fault replay's retry penalties).
struct QueryCharge {
  search::QueryCost cost;
  double penalty_ms = 0.0;
};

/// One shard of the driver: a private transfer delta, the counter fields
/// of ReplayStats, the body's own counters and the per-query series.
template <typename Counters>
struct Shard {
  ClusterDelta delta;
  ReplayStats counts;
  Counters extra;
  ReplayCapture series;
};

/// The sharded driver under both replays. The range is cut into shards
/// run on the common::parallel pool; the cluster is only read during the
/// parallel phase and mutated by merging the deltas in shard order after
/// the join. Per-query values concatenate back into trace order, so means
/// and percentiles are bit-identical to a sequential replay for any
/// thread count.
///
/// `make_body(extra)` runs once per shard (per-shard buffers live in the
/// body it returns); `body(q, observer)` evaluates query q, reporting every
/// transfer to `observer`, which charges the shard's delta and sums the
/// query's latency (maxes it for a union fan-out). Both are template
/// parameters, so the per-query call is direct. `Counters` carries the
/// body's own tallies; `extra.add(shard)` merges them in shard order.
template <typename Counters, typename MakeBody>
ReplayStats replay_sharded(Cluster& cluster, const trace::QueryTrace& trace,
                           QueryRange range, OperationKind kind,
                           const LatencyModel& latency,
                           ReplayCapture* capture, Counters& extra,
                           const MakeBody& make_body) {
  const std::vector<trace::Query>& queries = trace.queries();
  const bool parallel_fanout = kind == OperationKind::kUnion;
  const auto chunks =
      common::chunk_ranges(range.end - range.begin, kShardGrain);
  std::vector<Shard<Counters>> shards(chunks.size());
  common::parallel_for(0, chunks.size(), 1, [&](std::size_t c) {
    const std::size_t begin = range.begin + chunks[c].first;
    const std::size_t end = range.begin + chunks[c].second;
    Shard<Counters>& shard = shards[c];
    shard.delta = ClusterDelta(cluster.num_nodes());
    shard.series.per_query_bytes.reserve(end - begin);
    shard.series.per_query_latency.reserve(end - begin);

    double query_latency = 0.0;
    const auto observer = [&](int from, int to, std::uint64_t bytes) {
      shard.delta.record_transfer(from, to, bytes);
      const double ms = latency.transfer_ms(bytes);
      query_latency =
          parallel_fanout ? std::max(query_latency, ms) : query_latency + ms;
    };
    auto body = make_body(shard.extra);
    for (std::size_t q = begin; q < end; ++q) {
      query_latency = 0.0;
      const QueryCharge charge = body(q, observer);
      ++shard.counts.queries;
      if (queries[q].size() >= 2) {
        ++shard.counts.multi_keyword_queries;
        if (charge.cost.local) ++shard.counts.local_queries;
      }
      shard.counts.total_bytes += charge.cost.bytes_transferred;
      shard.counts.total_messages += charge.cost.messages;
      shard.series.per_query_bytes.push_back(
          static_cast<double>(charge.cost.bytes_transferred));
      shard.series.per_query_latency.push_back(query_latency +
                                               charge.penalty_ms);
    }
  });

  ReplayStats stats;
  ReplayCapture series;
  series.per_query_bytes.reserve(range.end - range.begin);
  series.per_query_latency.reserve(range.end - range.begin);
  for (const Shard<Counters>& shard : shards) {
    merge_replay_counts(stats, shard.counts);
    extra.add(shard.extra);
    append_series(series, shard.series);
    cluster.apply(shard.delta);
  }
  finalize_replay_stats(stats, series, cluster);
  if (capture) append_series(*capture, series);
  return stats;
}

/// The plain replay keeps no tallies beyond ReplayStats.
struct NoCounters {
  void add(const NoCounters&) {}
};

}  // namespace

void merge_replay_counts(ReplayStats& total, const ReplayStats& part) {
  total.queries += part.queries;
  total.multi_keyword_queries += part.multi_keyword_queries;
  total.local_queries += part.local_queries;
  total.total_bytes += part.total_bytes;
  total.total_messages += part.total_messages;
}

void finalize_replay_stats(ReplayStats& stats, const ReplayCapture& series,
                           const Cluster& cluster) {
  if (!series.per_query_bytes.empty()) {
    stats.mean_bytes_per_query = common::mean_of(series.per_query_bytes);
    stats.p99_bytes_per_query =
        common::percentile(series.per_query_bytes, 99.0);
    stats.mean_latency_ms = common::mean_of(series.per_query_latency);
    stats.p99_latency_ms = common::percentile(series.per_query_latency, 99.0);
  }
  stats.max_storage_factor = cluster.max_storage_factor();
  stats.storage_imbalance = cluster.storage_imbalance();
}

std::vector<double> poisson_arrivals(std::size_t count, double rate_qps,
                                     std::uint64_t seed) {
  CCA_CHECK_MSG(rate_qps > 0.0, "arrival rate must be > 0");
  common::Rng rng(seed ^ 0x51ABCDEF1234ULL);
  const double mean_gap_ms = 1000.0 / rate_qps;
  std::vector<double> arrival_ms(count);
  double clock = 0.0;
  for (double& at : arrival_ms) {
    clock += -std::log(1.0 - rng.next_double()) * mean_gap_ms;
    at = clock;
  }
  return arrival_ms;
}

ReplayStats replay_trace(Cluster& cluster, const search::InvertedIndex& index,
                         const trace::QueryTrace& trace, OperationKind kind,
                         std::vector<std::uint64_t> keyword_bytes,
                         const LatencyModel& latency, ReplayCapture* capture,
                         QueryRange range) {
  range.end = std::min(range.end, trace.size());
  CCA_CHECK_MSG(range.begin <= range.end,
                "query range starts at " << range.begin << ", past its end "
                                         << range.end);
  const std::shared_ptr<const search::QueryProfile> profile =
      search::QueryProfile::of(index, trace, kind, keyword_bytes);
  const core::PlacementMap& map = cluster.map();
  const auto placement = [&map](trace::KeywordId k) { return map.resolve(k); };
  NoCounters none;
  const ReplayStats stats = replay_sharded(
      cluster, trace, range, kind, latency, capture, none, [&](NoCounters&) {
        return [&](std::size_t q, const auto& observer) {
          return QueryCharge{profile->walk(q, placement, observer)};
        };
      });

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

/// The fault replay's tallies beyond ReplayStats, merged in shard order.
struct FaultCounters {
  std::size_t fully_served = 0;
  std::size_t degraded = 0;
  std::size_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t unserved_keywords = 0;
  double coverage_sum = 0.0;

  void add(const FaultCounters& shard) {
    fully_served += shard.fully_served;
    degraded += shard.degraded;
    failed += shard.failed;
    retries += shard.retries;
    failovers += shard.failovers;
    unserved_keywords += shard.unserved_keywords;
    coverage_sum += shard.coverage_sum;
  }
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
  const std::vector<trace::Query>& queries = trace.queries();
  const std::vector<double> arrival_ms = poisson_arrivals(
      queries.size(), config.arrival_rate_qps, config.arrival_seed);
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
  std::size_t max_width = 0;
  for (const trace::Query& q : queries)
    max_width = std::max(max_width, q.size());
  const int num_nodes = cluster.num_nodes();
  const int degree = map.degree();
  const bool fully_replicated = degree == num_nodes - 1;

  // One body per shard. Its buffers — the served sub-query and its
  // resolved sets (the full set for fully replicated keywords, else the
  // singleton of whichever replica answered) and the live-execution
  // scratch — are reserved to the trace's widest query, so the loop never
  // grows them.
  const auto make_body = [&](FaultCounters& counts) {
    std::vector<char> alive(static_cast<std::size_t>(num_nodes), 1);
    trace::Query sub;
    sub.keywords.reserve(max_width);
    std::vector<core::ReplicaSet> resolved;  // parallel to sub.keywords
    resolved.reserve(max_width);
    search::QueryScratch scratch;
    scratch.reserve(max_width, engine.max_postings());
    scratch.begin_epoch(map.cache_token());
    return [&, alive = std::move(alive), sub = std::move(sub),
            resolved = std::move(resolved), scratch = std::move(scratch)](
               std::size_t q, const auto& observer) mutable {
      const trace::Query& query = queries[q];
      int alive_count = num_nodes;
      if (config.faults) {
        for (int n = 0; n < num_nodes; ++n) {
          alive[static_cast<std::size_t>(n)] =
              config.faults->alive(n, arrival_ms[q]) ? 1 : 0;
          if (!alive[static_cast<std::size_t>(n)]) --alive_count;
        }
      }

      sub.keywords.clear();
      resolved.clear();
      QueryCharge charge;
      for (const trace::KeywordId k : query.keywords) {
        if (fully_replicated) {
          // A copy on every node: served wherever execution lands, with
          // no remote contact to time out — iff anything is alive.
          if (alive_count > 0) {
            sub.keywords.push_back(k);
            resolved.push_back(map.resolve(k));
          } else {
            ++counts.unserved_keywords;
          }
          continue;
        }
        int slot = -1;
        const int node = map.resolve(k).first_alive(
            alive, config.retry.max_attempts, &slot);
        const int failed_attempts =
            node >= 0 ? slot : std::min(config.retry.max_attempts, degree + 1);
        if (failed_attempts > 0) {
          counts.retries += static_cast<std::uint64_t>(failed_attempts);
          charge.penalty_ms +=
              config.retry.penalty_ms(failed_attempts, fetch_token(q, k));
        }
        if (node >= 0) {
          if (slot > 0) ++counts.failovers;
          sub.keywords.push_back(k);
          resolved.push_back(core::ReplicaSet::single(node));
        } else {
          ++counts.unserved_keywords;
        }
      }

      const auto placement = [&](trace::KeywordId k) {
        for (std::size_t i = 0; i < sub.keywords.size(); ++i)
          if (sub.keywords[i] == k) return resolved[i];
        // Unreachable: the engine only asks about sub's keywords.
        return core::ReplicaSet::single(0);
      };
      const bool fully_served = sub.keywords.size() == query.size();
      if (fully_served) {
        charge.cost = profile->walk(q, placement, observer);
      } else if (!sub.keywords.empty()) {
        switch (config.kind) {
          case OperationKind::kIntersection:
            charge.cost = engine.execute_intersection(sub, placement,
                                                      observer, &scratch);
            break;
          case OperationKind::kIntersectionBloom:
            charge.cost = engine.execute_intersection_bloom(
                sub, placement, search::kDefaultBloomBitsPerKey, observer,
                &scratch);
            break;
          case OperationKind::kUnion:
            charge.cost =
                engine.execute_union(sub, placement, observer, &scratch);
            break;
        }
      }
      // Only a fully served query counts as local.
      charge.cost.local = charge.cost.local && fully_served;

      counts.coverage_sum +=
          query.size() == 0 ? 1.0
                            : static_cast<double>(sub.keywords.size()) /
                                  static_cast<double>(query.size());
      if (fully_served)
        ++counts.fully_served;
      else if (!sub.keywords.empty())
        ++counts.degraded;
      else
        ++counts.failed;
      return charge;
    };
  };

  FaultCounters counts;
  FaultReplayStats stats;
  stats.base = replay_sharded(cluster, trace, QueryRange{0, queries.size()},
                              config.kind, config.latency, nullptr, counts,
                              make_body);
  stats.fully_served = counts.fully_served;
  stats.degraded = counts.degraded;
  stats.failed = counts.failed;
  stats.retries = counts.retries;
  stats.failovers = counts.failovers;
  stats.unserved_keywords = counts.unserved_keywords;
  if (stats.base.queries > 0) {
    stats.availability = static_cast<double>(stats.fully_served) /
                         static_cast<double>(stats.base.queries);
    stats.mean_coverage =
        counts.coverage_sum / static_cast<double>(stats.base.queries);
  }

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
