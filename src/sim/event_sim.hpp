// Event-driven cluster simulation: placement under load.
//
// replay.hpp charges bytes in isolation; this simulator injects queries
// as an open-loop Poisson stream and models each node's NIC as a FIFO
// serial resource, so concurrent queries contend for the links. The same
// total byte count can then produce very different tail latencies: a
// placement that concentrates traffic on one node saturates that NIC
// first. This is the systems consequence of the paper's communication
// volumes — placement quality shows up as a later saturation knee.
//
// Model (documented simplifications):
//   * each inter-node transfer occupies the SENDER's NIC exclusively for
//     bytes / nic_bandwidth; transfers are scheduled in ready-time order
//     (non-preemptive FIFO);
//   * after transmission a fixed propagation delay applies; the receiver
//     side is not a bottleneck;
//   * a query's transfers are sequential (intersection plans); queries
//     without transfers complete instantly;
//   * local compute time is out of scope (identical across placements).
//
// The simulator evaluates queries on the replay's path: each distinct
// trace query's transfer chain is a walk of the trace's memoised
// search::QueryProfile (the one replay_trace reads), and arrivals come
// from sim::poisson_arrivals, the fault replay's clock. The cluster is
// healthy throughout; failure under load is replay_trace_with_faults'.
#pragma once

#include <cstdint>
#include <vector>

#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "trace/trace.hpp"

namespace cca::sim {

struct EventSimConfig {
  /// Open-loop Poisson arrival rate, queries per second.
  double arrival_rate_qps = 1000.0;
  /// Per-node NIC bandwidth in megabits per second.
  double nic_mbps = 1000.0;
  /// Fixed propagation + software overhead per message, milliseconds.
  double per_message_ms = 0.5;
  /// Number of queries to inject (trace is cycled if shorter).
  std::size_t num_queries = 20000;
  std::uint64_t seed = 1;
};

struct EventSimStats {
  std::size_t completed = 0;
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Busy fraction of the most-loaded NIC over the simulated span.
  double max_nic_utilization = 0.0;
  /// Arrival-to-last-completion span, milliseconds.
  double makespan_ms = 0.0;
};

/// Simulates `config.num_queries` arrivals against the placement installed
/// in `cluster`. The query mix is drawn from `trace` in order (cycled);
/// the first call on an (index, trace) pair builds its intersection
/// profile on the common::parallel pool, and the stats are bit-identical
/// for any thread count.
EventSimStats simulate_load(const Cluster& cluster,
                            const search::InvertedIndex& index,
                            const trace::QueryTrace& trace,
                            const EventSimConfig& config);

}  // namespace cca::sim
