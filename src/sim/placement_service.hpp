// Online placement serving: epoch publication and churn replay.
//
// The offline pipeline freezes one placement and replays against it; a
// serving system keeps answering queries while nodes join and leave and a
// background lane re-optimizes. PlacementService is the epoch holder: it
// owns the current immutable core::PlacementMap behind a mutex-guarded
// shared_ptr, so any number of replay shards acquire() the epoch they
// start with and finish on it while publish() swaps in a successor.
//
// Epoch boundaries are a pure function of the churn script (each event
// says WHEN it happens in query-arrival time), never of thread timing:
// replay_trace_with_service splits the trace into per-epoch segments at
// the script's instants, replays each segment with the deterministic
// sharded replay, and applies the event between segments. The reported
// statistics are therefore bit-identical for any thread count, and with
// an empty script the run degenerates to exactly one offline replay.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/placement_map.hpp"
#include "search/inverted_index.hpp"
#include "sim/latency.hpp"
#include "sim/replay.hpp"
#include "trace/trace.hpp"

namespace cca::sim {

class PoolMap;

// ---------------------------------------------------------------------------
// Churn scripts.
// ---------------------------------------------------------------------------

/// One membership change, timed on the query-arrival clock.
struct ChurnEvent {
  enum class Kind { kAdd, kRemove };
  Kind kind = Kind::kAdd;
  double time_ms = 0.0;
  /// The node joining or retiring. Adds append (`node` must equal the
  /// current cluster size); removes retire the highest-numbered node
  /// (mid-ring failures are the recovery planner's job, not churn's).
  int node = 0;

  bool operator==(const ChurnEvent&) const = default;
};

/// Parses a `--churn` script: events separated by ';', each
/// `add:<time_ms>,<node>` or `remove:<time_ms>,<node>`, times
/// nondecreasing. An empty script is valid (no churn). Malformed input is
/// a hard common::Error naming the flag, with a did-you-mean suggestion
/// for a misspelled event kind.
std::vector<ChurnEvent> parse_churn_script(const std::string& script);

// ---------------------------------------------------------------------------
// PlacementService: epoch publication.
// ---------------------------------------------------------------------------

/// Holds the current placement epoch. acquire() and publish() synchronize
/// through one reader-writer mutex around the shared_ptr handoff: readers
/// share it and never wait on each other, and the rare publish takes it
/// exclusively. Readers pin the epoch they
/// started with — a published successor never mutates or frees a map an
/// in-flight shard still resolves against. Not std::atomic<std::shared_ptr>:
/// ThreadSanitizer reports libstdc++ 12's implementation of it as racy.
///
/// Optionally co-versions the failure-domain topology: when a PoolMap is
/// installed, every published epoch must carry that pool's version
/// (PlacementMap::pool_version) — a domain-spread placement must never
/// outlive the topology its replica tails were computed against.
class PlacementService {
 public:
  explicit PlacementService(std::shared_ptr<const core::PlacementMap> initial);

  /// The current epoch, pinned for as long as the caller keeps the ptr.
  std::shared_ptr<const core::PlacementMap> acquire() const;

  /// Installs `next` as the current epoch. The epoch number must strictly
  /// increase — publication is ordered, never a silent rollback — and
  /// with a pool map installed, next->pool_version() must match it.
  void publish(std::shared_ptr<const core::PlacementMap> next);

  /// Installs the cluster's failure-domain topology. The current epoch
  /// must already carry the pool's version (build the placement from the
  /// pool first, then install both here).
  void install_pool_map(std::shared_ptr<const PoolMap> pool);

  /// The installed topology, or nullptr when the service is flat.
  std::shared_ptr<const PoolMap> pool_map() const;

  std::uint64_t epoch() const { return acquire()->epoch(); }

 private:
  mutable std::shared_mutex mutex_;
  std::shared_ptr<const core::PlacementMap> current_;  // guarded by mutex_
  std::shared_ptr<const PoolMap> pool_;                // guarded by mutex_
};

// ---------------------------------------------------------------------------
// Churn replay.
// ---------------------------------------------------------------------------

/// Builds the successor epoch for one churn event. The default (empty
/// function) is the pure hash-tail rebalance PlacementMap::rebalanced;
/// benches plug in the re-optimize lane (IncrementalOptimizer + LP warm
/// starts) here. Must return a map for the post-event cluster size with a
/// strictly larger epoch.
using RebuildFn = std::function<std::shared_ptr<const core::PlacementMap>(
    const core::PlacementMap& current, const ChurnEvent& event)>;

/// What one epoch swap cost: how much of the placement moved, and how
/// many queries felt it.
struct EpochTransition {
  std::uint64_t from_epoch = 0;
  std::uint64_t to_epoch = 0;
  double time_ms = 0.0;
  int nodes_before = 0;
  int nodes_after = 0;
  /// Keywords whose primary changed, and their index bytes (the data the
  /// swap migrates).
  std::size_t moved_objects = 0;
  std::uint64_t moved_bytes = 0;
  /// Hash-tail-ruled (unpinned) keywords before the swap, and how many of
  /// them moved — the jump-vs-md5 headline: jump moves ~tail/N on a
  /// single-node add, md5 reshuffles ~tail*(N-1)/N.
  std::size_t tail_objects = 0;
  std::size_t moved_tail_objects = 0;
  /// Queries arriving between this swap and the next that touch at least
  /// one moved keyword — the query-visible disruption window.
  std::size_t disrupted_queries = 0;
};

struct ServiceReplayConfig {
  /// Queries arrive as a seeded open-loop Poisson stream (same recipe as
  /// the fault replay), giving every query the arrival instant the churn
  /// script's times cut against.
  double arrival_rate_qps = 1000.0;
  std::uint64_t arrival_seed = 1;
  OperationKind kind = OperationKind::kIntersection;
  LatencyModel latency;
  /// Per-node capacity = slack * total index bytes / nodes, re-derived at
  /// each epoch's cluster size (the paper's 2x-average rule).
  double capacity_slack = 2.0;
  RebuildFn rebuild;
};

struct ServiceReplayStats {
  /// Whole-run replay accounting. Means and percentiles are computed over
  /// the raw per-query series across all segments (exact, not a blend of
  /// per-segment aggregates); storage figures are the final epoch's.
  ReplayStats base;
  std::vector<EpochTransition> transitions;
  std::uint64_t final_epoch = 0;
  int final_num_nodes = 0;
};

/// Replays `trace` through the service under `churn`: queries before an
/// event's instant resolve on the epoch they arrived under; the event
/// then builds (config.rebuild) and publishes the next epoch, and replay
/// continues on it. With an empty script this is exactly one offline
/// replay_trace run (byte-identical statistics — the smoke contract).
ServiceReplayStats replay_trace_with_service(
    PlacementService& service, const search::InvertedIndex& index,
    const trace::QueryTrace& trace, const std::vector<ChurnEvent>& churn,
    const ServiceReplayConfig& config);

}  // namespace cca::sim
