// Trace-driven evaluation: replay a query trace against a cluster under a
// placement, measuring actual communication — the paper's evaluation
// methodology (Sec. 4.1). The optimizer only ever sees the r*w model; the
// replay charges the real bytes the smallest-two-first intersection plan
// moves, including everything the model approximates away (>2-keyword
// residual shipments, out-of-scope keywords, model/reality size skew).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "search/query_engine.hpp"
#include "search/query_profile.hpp"
#include "sim/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/latency.hpp"
#include "trace/trace.hpp"

namespace cca::sim {

using OperationKind = search::OperationKind;

struct ReplayStats {
  std::size_t queries = 0;
  std::size_t multi_keyword_queries = 0;
  std::size_t local_queries = 0;  // multi-keyword queries with no transfer
  std::uint64_t total_bytes = 0;
  std::uint64_t total_messages = 0;
  double mean_bytes_per_query = 0.0;
  double p99_bytes_per_query = 0.0;
  /// Communication latency per query under the replay's LatencyModel
  /// (local queries contribute 0). Intersection steps are sequential;
  /// union fan-out is parallel.
  double mean_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Cluster-side measurements after the replay.
  double max_storage_factor = 0.0;
  double storage_imbalance = 0.0;
};

/// Half-open range [begin, end) of a trace's query indices; the default
/// covers the whole trace (`end` is clamped to the trace's size).
struct QueryRange {
  std::size_t begin = 0;
  std::size_t end = std::numeric_limits<std::size_t>::max();
};

/// Optional raw per-query series, in trace order. The placement service
/// replays a churned trace as several epoch segments and needs the raw
/// values to compute whole-run percentiles exactly (percentiles do not
/// compose across segments).
struct ReplayCapture {
  std::vector<double> per_query_bytes;
  std::vector<double> per_query_latency;
};

/// Replays `trace` through `cluster` (which must have a placement
/// installed). Communication is attributed to node pairs via the cluster's
/// transfer accounting. `keyword_bytes`, when non-empty, overrides the
/// on-the-wire posting-list sizes (e.g. compressed sizes) — see
/// search::QueryEngine.
///
/// Profile-once: the trace's placement-independent execution (keyword
/// order, shipped sizes, result sizes, distinct query contents) comes from
/// search::QueryProfile::of — built on the first replay of this (index,
/// trace content, kind, keyword_bytes) and memoised by `index` — so a
/// replay runs no intersection. It walks each distinct query content of
/// the range once, charges the cluster bytes x multiplicity, and gathers
/// the per-query series back into trace order; p99s come from a linear
/// selection (common::percentile). Costs and observer traffic are exactly
/// those of running the live QueryEngine::execute_* on every query.
///
/// `range` replays only those trace queries: the stats, the capture and
/// the cluster's traffic cover the range alone, while the profile stays
/// the whole trace's, so replaying one trace in segments (the placement
/// service's epochs) shares a single memoised profile.
///
/// Execution shards the distinct queries across the common::parallel pool:
/// each shard charges a private ClusterDelta, merged in shard order after
/// the join. Every reported statistic is bit-identical to a sequential
/// per-query replay for any thread count. When `capture` is non-null the
/// per-query series are APPENDED to it (callers accumulate across
/// segments).
ReplayStats replay_trace(Cluster& cluster, const search::InvertedIndex& index,
                         const trace::QueryTrace& trace,
                         OperationKind kind = OperationKind::kIntersection,
                         std::vector<std::uint64_t> keyword_bytes = {},
                         const LatencyModel& latency = LatencyModel{},
                         ReplayCapture* capture = nullptr,
                         QueryRange range = {});

namespace detail {

/// replay_trace without its finalize: replays `range` into `cluster`,
/// APPENDS the range's per-query series to `series` and returns only the
/// counter fields (mean/p99 and storage figures stay zero). The placement
/// service replays its epoch segments through it and finalizes once over
/// the whole run.
ReplayStats replay_counts(Cluster& cluster, const search::InvertedIndex& index,
                          const trace::QueryTrace& trace, OperationKind kind,
                          const std::vector<std::uint64_t>& keyword_bytes,
                          const LatencyModel& latency, ReplayCapture& series,
                          QueryRange range);

}  // namespace detail

/// The replay merge: adds the counter fields of `part` (queries, byte and
/// message totals) into `total`. Every replay path — the shard merge and
/// the placement service's epoch segments — accumulates through it.
void merge_replay_counts(ReplayStats& total, const ReplayStats& part);

/// The replay finalize: the mean/p99 fields of `stats` from the raw
/// per-query `series` (left at zero when it is empty), and the storage
/// figures of `cluster`.
void finalize_replay_stats(ReplayStats& stats, const ReplayCapture& series,
                           const Cluster& cluster);

/// The open-loop arrival clock of every evaluator that times queries (the
/// fault replay, the placement service's churn replay, the event
/// simulation): `count` instants, in ms, of a Poisson stream at
/// `rate_qps` (> 0), drawn sequentially from `seed`, so a timeline is
/// identical for any thread count.
std::vector<double> poisson_arrivals(std::size_t count, double rate_qps,
                                     std::uint64_t seed);

// ---------------------------------------------------------------------------
// Failure-aware replay.
// ---------------------------------------------------------------------------

struct FaultReplayConfig {
  /// Fault timeline; nullptr replays against an always-healthy cluster
  /// (useful as the availability baseline of a sweep).
  const FaultSchedule* faults = nullptr;
  /// How a fetch reacts to a dead replica.
  RetryPolicy retry;
  /// Queries arrive as a seeded open-loop Poisson stream so they
  /// intersect the fault timeline; arrival times are precomputed
  /// sequentially, so they are identical for any thread count.
  double arrival_rate_qps = 1000.0;
  std::uint64_t arrival_seed = 1;
  OperationKind kind = OperationKind::kIntersection;
  LatencyModel latency;
};

/// ReplayStats plus the availability axis. `base` carries the usual byte
/// and latency accounting; latencies INCLUDE the retry penalties
/// (timeouts + backoffs) queries paid discovering dead replicas, so
/// base.p99_latency_ms is the p99-under-failure number.
struct FaultReplayStats {
  ReplayStats base;
  /// Queries whose every keyword was served (coverage == 1).
  std::size_t fully_served = 0;
  /// Queries partially served (0 < coverage < 1).
  std::size_t degraded = 0;
  /// Queries with no keyword served at all.
  std::size_t failed = 0;
  /// fully_served / queries.
  double availability = 0.0;
  /// Mean over queries of (keywords served / keywords requested).
  double mean_coverage = 0.0;
  /// Contact attempts that hit a dead node.
  std::uint64_t retries = 0;
  /// Keyword fetches served by a non-primary replica.
  std::uint64_t failovers = 0;
  /// Keyword fetches abandoned (every tried replica dead).
  std::uint64_t unserved_keywords = 0;
};

/// Replays `trace` against `cluster` under the fault timeline in
/// `config`, failing over along the installed placement epoch's replica
/// sets (cluster.map().resolve — replica r of a keyword lives at
/// (primary + r) mod N). Each keyword fetch walks its set in failover
/// order, charging `config.retry` for every dead contact; keywords with
/// no reachable replica within the attempt budget are dropped from the
/// query, which then returns a PARTIAL result over the remaining
/// keywords. Bytes are charged for the executed sub-query only: fully
/// served queries walk the trace's memoised QueryProfile with the
/// fault-resolved replica sets; only degraded ones execute live.
///
/// Liveness is evaluated at the query's arrival instant (transitions
/// mid-query are not modelled). Runs on replay_trace's sharded driver:
/// bit-identical statistics for any thread count.
FaultReplayStats replay_trace_with_faults(Cluster& cluster,
                                          const search::InvertedIndex& index,
                                          const trace::QueryTrace& trace,
                                          const FaultReplayConfig& config);

}  // namespace cca::sim
