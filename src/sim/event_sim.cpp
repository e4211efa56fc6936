#include "sim/event_sim.hpp"

#include <algorithm>
#include <memory>
#include <queue>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "search/query_profile.hpp"
#include "sim/replay.hpp"

namespace cca::sim {

namespace {

struct Transfer {
  int from = 0;
  std::uint64_t bytes = 0;
};

/// Each trace query's transfer chain, in plan order, as one flat array
/// plus per-query offsets: chain q is [offsets[q], offsets[q + 1]).
struct ChainStore {
  std::vector<Transfer> transfers;
  std::vector<std::uint32_t> offsets{0};

  std::uint32_t length(std::size_t chain) const {
    return offsets[chain + 1] - offsets[chain];
  }
  const Transfer& step(std::size_t chain, std::uint32_t s) const {
    return transfers[offsets[chain] + s];
  }
};

/// Event: a query step becomes ready to transmit.
struct ReadyEvent {
  double ready_ms = 0.0;
  std::uint32_t query = 0;
  std::uint32_t step = 0;

  bool operator>(const ReadyEvent& other) const {
    return ready_ms > other.ready_ms;
  }
};

}  // namespace

EventSimStats simulate_load(const Cluster& cluster,
                            const search::InvertedIndex& index,
                            const trace::QueryTrace& trace,
                            const EventSimConfig& config) {
  const std::vector<double> arrival_ms = poisson_arrivals(
      config.num_queries, config.arrival_rate_qps, config.seed);
  CCA_CHECK_MSG(config.nic_mbps > 0.0, "NIC bandwidth must be > 0");
  CCA_CHECK_MSG(!trace.empty(), "empty trace");
  CCA_CHECK(config.num_queries >= 1);

  // --- Each distinct trace query's transfer chain, walked once (through
  // its representative) from the trace's memoised intersection profile. ---
  const std::shared_ptr<const search::QueryProfile> profile =
      search::QueryProfile::of(index, trace,
                               search::OperationKind::kIntersection);
  const core::PlacementMap& map = cluster.map();
  const auto placement = [&map](trace::KeywordId k) {
    return map.resolve(k);
  };
  ChainStore chains;
  chains.offsets.reserve(profile->distinct_count() + 1);
  const auto record = [&chains](int from, int to, std::uint64_t bytes) {
    (void)to;
    chains.transfers.push_back({from, bytes});
  };
  for (std::uint32_t id = 0; id < profile->distinct_count(); ++id) {
    profile->walk(profile->representative(id), placement, record);
    chains.offsets.push_back(
        static_cast<std::uint32_t>(chains.transfers.size()));
  }
  // Arrival q runs trace query q mod |trace|, whose chain is its content's.
  const auto chain_of = [&](std::size_t q) {
    return profile->distinct_id(q % trace.size());
  };

  // --- Event loop: non-preemptive FIFO per sender NIC. ---
  const double bytes_per_ms = config.nic_mbps * 1000.0 / 8.0;
  std::vector<double> nic_free(static_cast<std::size_t>(cluster.num_nodes()),
                               0.0);
  std::vector<double> nic_busy(static_cast<std::size_t>(cluster.num_nodes()),
                               0.0);
  std::priority_queue<ReadyEvent, std::vector<ReadyEvent>,
                      std::greater<ReadyEvent>>
      events;
  std::vector<double> latencies;
  latencies.reserve(config.num_queries);

  for (std::size_t q = 0; q < config.num_queries; ++q) {
    if (chains.length(chain_of(q)) == 0) {
      latencies.push_back(0.0);  // fully local: no network time
    } else {
      events.push({arrival_ms[q], static_cast<std::uint32_t>(q), 0});
    }
  }

  double last_completion = 0.0;
  std::size_t events_processed = 0;
  std::size_t max_queue_depth = events.size();
  while (!events.empty()) {
    max_queue_depth = std::max(max_queue_depth, events.size());
    ++events_processed;
    const ReadyEvent ev = events.top();
    events.pop();
    const std::size_t chain = chain_of(ev.query);
    const Transfer& transfer = chains.step(chain, ev.step);

    const double start = std::max(ev.ready_ms, nic_free[transfer.from]);
    const double tx =
        static_cast<double>(transfer.bytes) / bytes_per_ms;
    nic_free[transfer.from] = start + tx;
    nic_busy[transfer.from] += tx;
    const double delivered = start + tx + config.per_message_ms;

    if (ev.step + 1 < chains.length(chain)) {
      events.push({delivered, ev.query, ev.step + 1});
    } else {
      latencies.push_back(delivered - arrival_ms[ev.query]);
      last_completion = std::max(last_completion, delivered);
    }
  }

  EventSimStats stats;
  stats.completed = latencies.size();
  stats.makespan_ms = std::max(last_completion, arrival_ms.back()) -
                      arrival_ms.front();
  if (!latencies.empty()) {
    stats.mean_latency_ms = common::mean_of(latencies);
    stats.p50_latency_ms = common::percentile(latencies, 50.0);
    stats.p99_latency_ms = common::percentile(latencies, 99.0);
  }
  if (stats.makespan_ms > 0.0) {
    for (double busy : nic_busy)
      stats.max_nic_utilization =
          std::max(stats.max_nic_utilization, busy / stats.makespan_ms);
  }

  // One record per simulation run (counts accumulated locally above).
  if (common::metrics_enabled()) {
    auto& reg = common::MetricsRegistry::global();
    static common::Counter& runs = reg.counter("sim.eventsim.runs");
    static common::Counter& events_count = reg.counter("sim.eventsim.events");
    static common::Histogram& queue_depth =
        reg.histogram("sim.eventsim.max_queue_depth");
    static common::Histogram& nic_util_pct =
        reg.histogram("sim.eventsim.max_nic_util_pct");
    runs.add();
    events_count.add(static_cast<std::int64_t>(events_processed));
    queue_depth.observe(max_queue_depth);
    nic_util_pct.observe(
        static_cast<std::uint64_t>(100.0 * stats.max_nic_utilization));
  }
  return stats;
}

}  // namespace cca::sim
