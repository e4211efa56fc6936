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

/// Units (distinct queries, or queries) per replay shard. Chunk boundaries
/// do not affect results (every merged quantity is either an exact integer
/// sum or a per-unit value gathered back into trace order), so the grain is
/// purely a throughput knob: large enough to amortize dispatch, small
/// enough to load-balance a default trace's ~15k distinct queries across a
/// pool.
constexpr std::size_t kShardGrain = 1024;

/// What a replay body reports for one query: its cost, and the client-side
/// time it spent before any transfer (the fault replay's retry penalties).
struct QueryCharge {
  search::QueryCost cost;
  double penalty_ms = 0.0;
};

/// One shard of the driver: a private transfer delta, the counter fields
/// of ReplayStats and the body's own counters.
template <typename Counters>
struct Shard {
  ClusterDelta delta;
  ReplayStats counts;
  Counters extra;
};

/// The driver's units when every query is evaluated on its own (the fault
/// replay, whose resolved sets depend on each query's arrival instant):
/// unit u is query begin + u, once.
struct EachQuery {
  QueryRange range;

  std::size_t size() const { return range.end - range.begin; }
  std::size_t query(std::size_t u) const { return range.begin + u; }
  std::uint64_t multiplicity(std::size_t) const { return 1; }
  std::size_t slot(std::size_t u) const { return u; }
  std::size_t slots() const { return size(); }
  std::size_t slot_of(std::size_t q) const { return q - range.begin; }
};

/// The driver's units for a placement-only walk: each distinct query
/// content occurring in the range, walked once through its profile
/// representative and weighted by its multiplicity in the range.
struct EachDistinctQuery {
  const search::QueryProfile& profile;
  std::vector<std::uint32_t> ids;     // in order of first occurrence
  std::vector<std::uint32_t> counts;  // per distinct id, over the range

  EachDistinctQuery(const search::QueryProfile& p, QueryRange range)
      : profile(p), counts(p.distinct_count(), 0) {
    for (std::size_t q = range.begin; q < range.end; ++q)
      if (counts[p.distinct_id(q)]++ == 0) ids.push_back(p.distinct_id(q));
  }

  std::size_t size() const { return ids.size(); }
  std::size_t query(std::size_t u) const {
    return profile.representative(ids[u]);
  }
  std::uint64_t multiplicity(std::size_t u) const { return counts[ids[u]]; }
  std::size_t slot(std::size_t u) const { return ids[u]; }
  std::size_t slots() const { return counts.size(); }
  std::size_t slot_of(std::size_t q) const { return profile.distinct_id(q); }
};

/// The sharded driver under both replays. `units` says what it evaluates:
/// each one stands for multiplicity(u) trace queries of the range. The
/// units are cut into shards run on the common::parallel pool; the cluster
/// is only read during the parallel phase and mutated by merging the
/// deltas in shard order after the join. Transfers and counters are
/// charged as exact integers x multiplicity, and each unit's bytes and
/// latency are gathered back into trace order, so every statistic and
/// the APPENDED per-query `series` are bit-identical to a sequential
/// per-query replay for any thread count.
///
/// `make_body(extra)` runs once per shard (per-shard buffers live in the
/// body it returns); `body(q, observer)` evaluates query q, reporting every
/// transfer to `observer`, which charges the shard's delta and sums the
/// query's latency (maxes it for a union fan-out). Both are template
/// parameters, so the per-query call is direct. `Counters` carries the
/// body's own per-call tallies (so it pairs with EachQuery only);
/// `extra.add(shard)` merges them in shard order. Returns the counter
/// fields; the caller finalizes.
template <typename Counters, typename Units, typename MakeBody>
ReplayStats replay_sharded(Cluster& cluster, const trace::QueryTrace& trace,
                           QueryRange range, OperationKind kind,
                           const LatencyModel& latency, const Units& units,
                           ReplayCapture& series, Counters& extra,
                           const MakeBody& make_body) {
  const std::vector<trace::Query>& queries = trace.queries();
  const bool parallel_fanout = kind == OperationKind::kUnion;
  std::vector<double> unit_bytes(units.slots());
  std::vector<double> unit_latency(units.slots());
  const auto chunks = common::chunk_ranges(units.size(), kShardGrain);
  std::vector<Shard<Counters>> shards(chunks.size());
  common::parallel_for(0, chunks.size(), 1, [&](std::size_t c) {
    Shard<Counters>& shard = shards[c];
    shard.delta = ClusterDelta(cluster.num_nodes());

    std::uint64_t weight = 1;
    double query_latency = 0.0;
    const auto observer = [&](int from, int to, std::uint64_t bytes) {
      shard.delta.record_transfer(from, to, bytes * weight);
      const double ms = latency.transfer_ms(bytes);
      query_latency =
          parallel_fanout ? std::max(query_latency, ms) : query_latency + ms;
    };
    auto body = make_body(shard.extra);
    for (std::size_t u = chunks[c].first; u < chunks[c].second; ++u) {
      const std::size_t q = units.query(u);
      weight = units.multiplicity(u);
      query_latency = 0.0;
      const QueryCharge charge = body(q, observer);
      shard.counts.queries += weight;
      if (queries[q].size() >= 2) {
        shard.counts.multi_keyword_queries += weight;
        if (charge.cost.local) shard.counts.local_queries += weight;
      }
      shard.counts.total_bytes += charge.cost.bytes_transferred * weight;
      shard.counts.total_messages += charge.cost.messages * weight;
      unit_bytes[units.slot(u)] =
          static_cast<double>(charge.cost.bytes_transferred);
      unit_latency[units.slot(u)] = query_latency + charge.penalty_ms;
    }
  });

  ReplayStats stats;
  for (const Shard<Counters>& shard : shards) {
    merge_replay_counts(stats, shard.counts);
    extra.add(shard.extra);
    cluster.apply(shard.delta);
  }
  const std::size_t base = series.per_query_bytes.size();
  const std::size_t count = range.end - range.begin;
  series.per_query_bytes.resize(base + count);
  series.per_query_latency.resize(base + count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slot = units.slot_of(range.begin + i);
    series.per_query_bytes[base + i] = unit_bytes[slot];
    series.per_query_latency[base + i] = unit_latency[slot];
  }
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

namespace detail {

ReplayStats replay_counts(Cluster& cluster, const search::InvertedIndex& index,
                          const trace::QueryTrace& trace, OperationKind kind,
                          const std::vector<std::uint64_t>& keyword_bytes,
                          const LatencyModel& latency, ReplayCapture& series,
                          QueryRange range) {
  range.end = std::min(range.end, trace.size());
  CCA_CHECK_MSG(range.begin <= range.end,
                "query range starts at " << range.begin << ", past its end "
                                         << range.end);
  const std::shared_ptr<const search::QueryProfile> profile =
      search::QueryProfile::of(index, trace, kind, keyword_bytes);
  const core::PlacementMap& map = cluster.map();
  const auto placement = [&map](trace::KeywordId k) { return map.resolve(k); };
  const EachDistinctQuery units(*profile, range);
  NoCounters none;
  const ReplayStats stats = replay_sharded(
      cluster, trace, range, kind, latency, units, series, none,
      [&](NoCounters&) {
        return [&](std::size_t q, const auto& observer) {
          return QueryCharge{profile->walk(q, placement, observer)};
        };
      });

  // Replay accounting, recorded once per call after the join. Bytes are
  // split by operation kind so the figure benches (intersection vs Bloom
  // vs union) attribute traffic without re-parsing tables; walks against
  // queries is the distinct-query dedupe ratio.
  if (common::metrics_enabled()) {
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& replays = reg.counter("sim.replay.calls");
    static common::Counter& queries_total = reg.counter("sim.replay.queries");
    static common::Counter& walks = reg.counter("sim.replay.walks");
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
    walks.add(static_cast<std::int64_t>(units.size()));
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
        static_cast<std::uint64_t>(100.0 * cluster.max_storage_factor()));
  }
  return stats;
}

}  // namespace detail

ReplayStats replay_trace(Cluster& cluster, const search::InvertedIndex& index,
                         const trace::QueryTrace& trace, OperationKind kind,
                         std::vector<std::uint64_t> keyword_bytes,
                         const LatencyModel& latency, ReplayCapture* capture,
                         QueryRange range) {
  ReplayCapture series;
  ReplayStats stats = detail::replay_counts(
      cluster, index, trace, kind, keyword_bytes, latency, series, range);
  finalize_replay_stats(stats, series, cluster);
  if (capture) {
    capture->per_query_bytes.insert(capture->per_query_bytes.end(),
                                    series.per_query_bytes.begin(),
                                    series.per_query_bytes.end());
    capture->per_query_latency.insert(capture->per_query_latency.end(),
                                      series.per_query_latency.begin(),
                                      series.per_query_latency.end());
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

  const QueryRange all{0, queries.size()};
  FaultCounters counts;
  FaultReplayStats stats;
  ReplayCapture series;
  stats.base = replay_sharded(cluster, trace, all, config.kind,
                              config.latency, EachQuery{all}, series, counts,
                              make_body);
  finalize_replay_stats(stats.base, series, cluster);
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
