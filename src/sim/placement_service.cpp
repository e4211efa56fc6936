#include "sim/placement_service.hpp"

#include <cmath>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/cluster.hpp"
#include "sim/pool_map.hpp"

namespace cca::sim {

// ---------------------------------------------------------------------------
// Churn scripts.
// ---------------------------------------------------------------------------

namespace {

/// One ';'-separated event token, e.g. "add:1000,4".
ChurnEvent parse_churn_event(const std::string& token) {
  const auto bad = [&token](const std::string& why) {
    CCA_CHECK_MSG(false, "--churn events are 'add:<time_ms>,<node>' or "
                         "'remove:<time_ms>,<node>'; got '"
                             << token << "' (" << why << ")");
  };

  const std::size_t colon = token.find(':');
  if (colon == std::string::npos) bad("missing ':'");
  const std::string kind = token.substr(0, colon);
  ChurnEvent event;
  if (kind == "add") {
    event.kind = ChurnEvent::Kind::kAdd;
  } else if (kind == "remove") {
    event.kind = ChurnEvent::Kind::kRemove;
  } else {
    const std::vector<std::string> accepted = {"add", "remove"};
    const std::string hint = common::suggest_value(kind, accepted);
    CCA_CHECK_MSG(false, "--churn event kind must be one of "
                             << common::quote_candidates(accepted) << ", got '"
                             << kind << "'"
                             << (hint.empty()
                                     ? std::string()
                                     : " (did you mean '" + hint + "'?)"));
  }

  const std::string rest = token.substr(colon + 1);
  const std::size_t comma = rest.find(',');
  if (comma == std::string::npos) bad("missing ','");
  const std::string time_text = rest.substr(0, comma);
  const std::string node_text = rest.substr(comma + 1);

  char* end = nullptr;
  event.time_ms = std::strtod(time_text.c_str(), &end);
  if (time_text.empty() || end != time_text.c_str() + time_text.size())
    bad("'" + time_text + "' is not a time");
  if (event.time_ms < 0.0) bad("time must be >= 0");
  const long node = std::strtol(node_text.c_str(), &end, 10);
  if (node_text.empty() || end != node_text.c_str() + node_text.size())
    bad("'" + node_text + "' is not a node id");
  if (node < 0) bad("node must be >= 0");
  event.node = static_cast<int>(node);
  return event;
}

}  // namespace

std::vector<ChurnEvent> parse_churn_script(const std::string& script) {
  std::vector<ChurnEvent> events;
  std::size_t pos = 0;
  while (pos <= script.size()) {
    const std::size_t next = script.find(';', pos);
    const std::size_t end = next == std::string::npos ? script.size() : next;
    const std::string token = script.substr(pos, end - pos);
    if (!token.empty()) events.push_back(parse_churn_event(token));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  for (std::size_t i = 1; i < events.size(); ++i)
    CCA_CHECK_MSG(events[i].time_ms >= events[i - 1].time_ms,
                  "--churn event times must be nondecreasing; event "
                      << i << " at " << events[i].time_ms
                      << "ms follows one at " << events[i - 1].time_ms
                      << "ms");
  return events;
}

// ---------------------------------------------------------------------------
// PlacementService.
// ---------------------------------------------------------------------------

PlacementService::PlacementService(
    std::shared_ptr<const core::PlacementMap> initial)
    : current_(std::move(initial)) {
  CCA_CHECK(current_ != nullptr);
}

std::shared_ptr<const core::PlacementMap> PlacementService::acquire() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return current_;
}

void PlacementService::publish(
    std::shared_ptr<const core::PlacementMap> next) {
  CCA_CHECK(next != nullptr);
  // The retired epoch is released after the lock, so a last reference
  // never frees a map inside the readers' critical section.
  std::shared_ptr<const core::PlacementMap> retired;
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  CCA_CHECK_MSG(next->epoch() > current_->epoch(),
                "publish must advance the epoch: current " << current_->epoch()
                                                           << ", published "
                                                           << next->epoch());
  if (pool_)
    CCA_CHECK_MSG(next->pool_version() == pool_->version(),
                  "published epoch " << next->epoch()
                                     << " carries pool version "
                                     << next->pool_version()
                                     << ", installed pool map is version "
                                     << pool_->version());
  retired = std::exchange(current_, std::move(next));
}

void PlacementService::install_pool_map(std::shared_ptr<const PoolMap> pool) {
  CCA_CHECK(pool != nullptr);
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  CCA_CHECK_MSG(current_->pool_version() == pool->version(),
                "current epoch " << current_->epoch()
                                 << " carries pool version "
                                 << current_->pool_version()
                                 << ", installing pool map version "
                                 << pool->version()
                                 << " — rebuild the placement from the pool "
                                    "before installing it");
  pool_ = std::move(pool);
}

std::shared_ptr<const PoolMap> PlacementService::pool_map() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return pool_;
}

// ---------------------------------------------------------------------------
// Churn replay.
// ---------------------------------------------------------------------------

ServiceReplayStats replay_trace_with_service(
    PlacementService& service, const search::InvertedIndex& index,
    const trace::QueryTrace& trace, const std::vector<ChurnEvent>& churn,
    const ServiceReplayConfig& config) {
  CCA_CHECK_MSG(config.arrival_rate_qps > 0.0, "arrival rate must be > 0");
  for (std::size_t i = 1; i < churn.size(); ++i)
    CCA_CHECK_MSG(churn[i].time_ms >= churn[i - 1].time_ms,
                  "churn event times must be nondecreasing");

  std::shared_ptr<const core::PlacementMap> map = service.acquire();
  const std::vector<std::uint64_t> sizes = index.index_sizes();
  CCA_CHECK_MSG(map->vocabulary_size() == sizes.size(),
                "placement map covers " << map->vocabulary_size()
                                        << " keywords, index has "
                                        << sizes.size());
  double total_index_bytes = 0.0;
  for (std::uint64_t s : sizes) total_index_bytes += static_cast<double>(s);

  const std::vector<trace::Query>& queries = trace.queries();

  // Arrival instants, drawn sequentially (same procedure as the fault
  // replay) — the clock the churn script's times cut against.
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

  ServiceReplayStats stats;
  ReplayCapture capture;

  // Replays [begin, end) on the current epoch; queries that arrived under
  // this epoch finish on it even though later events have already been
  // scripted. Segments are ranges of `trace` itself, so every epoch (and
  // every later run over the same trace and index) walks one memoised
  // QueryProfile.
  const auto replay_segment = [&](std::size_t begin, std::size_t end) {
    if (begin >= end) return;
    Cluster cluster(map->num_nodes(), config.capacity_slack *
                                          total_index_bytes /
                                          map->num_nodes());
    cluster.install_placement(map, sizes);
    const ReplayStats seg =
        replay_trace(cluster, index, trace, config.kind, {}, config.latency,
                     &capture, QueryRange{begin, end});
    stats.base.queries += seg.queries;
    stats.base.multi_keyword_queries += seg.multi_keyword_queries;
    stats.base.local_queries += seg.local_queries;
    stats.base.total_bytes += seg.total_bytes;
    stats.base.total_messages += seg.total_messages;
    // Storage figures track the newest epoch's cluster.
    stats.base.max_storage_factor = seg.max_storage_factor;
    stats.base.storage_imbalance = seg.storage_imbalance;
  };

  // First query index arriving at or after `time_ms`, scanning from `from`
  // (arrivals are nondecreasing).
  const auto boundary_at = [&](std::size_t from, double time_ms) {
    std::size_t q = from;
    while (q < queries.size() && arrival_ms[q] < time_ms) ++q;
    return q;
  };

  std::size_t next_query = 0;
  for (std::size_t e = 0; e < churn.size(); ++e) {
    const ChurnEvent& event = churn[e];
    const std::size_t segment_end = boundary_at(next_query, event.time_ms);
    replay_segment(next_query, segment_end);
    next_query = segment_end;

    const int nodes_before = map->num_nodes();
    int nodes_after = nodes_before;
    if (event.kind == ChurnEvent::Kind::kAdd) {
      CCA_CHECK_MSG(event.node == nodes_before,
                    "churn add at " << event.time_ms
                                    << "ms: nodes join at the end of the "
                                       "ring; expected node "
                                    << nodes_before << ", got " << event.node);
      nodes_after = nodes_before + 1;
    } else {
      CCA_CHECK_MSG(nodes_before >= 2, "churn remove at "
                                           << event.time_ms
                                           << "ms would empty the cluster");
      CCA_CHECK_MSG(event.node == nodes_before - 1,
                    "churn remove at " << event.time_ms
                                       << "ms retires the highest node; "
                                          "expected node "
                                       << nodes_before - 1 << ", got "
                                       << event.node);
      nodes_after = nodes_before - 1;
    }

    std::shared_ptr<const core::PlacementMap> next =
        config.rebuild ? config.rebuild(*map, event)
                       : std::make_shared<const core::PlacementMap>(
                             map->rebalanced(nodes_after));
    CCA_CHECK(next != nullptr);
    CCA_CHECK_MSG(next->num_nodes() == nodes_after,
                  "rebuilt epoch covers " << next->num_nodes()
                                          << " nodes, churn event expects "
                                          << nodes_after);
    CCA_CHECK_MSG(next->vocabulary_size() == map->vocabulary_size(),
                  "rebuilt epoch changed the vocabulary");

    EpochTransition transition;
    transition.from_epoch = map->epoch();
    transition.to_epoch = next->epoch();
    transition.time_ms = event.time_ms;
    transition.nodes_before = nodes_before;
    transition.nodes_after = nodes_after;
    std::vector<char> moved(sizes.size(), 0);
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const auto keyword = static_cast<trace::KeywordId>(k);
      const bool tail = !map->pinned(keyword);
      if (tail) ++transition.tail_objects;
      if (map->primary(keyword) != next->primary(keyword)) {
        moved[k] = 1;
        ++transition.moved_objects;
        transition.moved_bytes += sizes[k];
        if (tail) ++transition.moved_tail_objects;
      }
    }

    service.publish(next);
    map = service.acquire();

    // Disruption window: queries arriving between this swap and the next
    // that touch a keyword the swap moved.
    const std::size_t window_queries =
        e + 1 < churn.size() ? boundary_at(next_query, churn[e + 1].time_ms)
                             : queries.size();
    for (std::size_t q = next_query; q < window_queries; ++q) {
      for (const trace::KeywordId k : queries[q].keywords) {
        if (moved[k]) {
          ++transition.disrupted_queries;
          break;
        }
      }
    }
    stats.transitions.push_back(transition);
  }
  replay_segment(next_query, queries.size());

  if (!capture.per_query_bytes.empty()) {
    stats.base.mean_bytes_per_query = common::mean_of(capture.per_query_bytes);
    stats.base.p99_bytes_per_query =
        common::percentile(capture.per_query_bytes, 99.0);
    stats.base.mean_latency_ms = common::mean_of(capture.per_query_latency);
    stats.base.p99_latency_ms =
        common::percentile(capture.per_query_latency, 99.0);
  }
  stats.final_epoch = map->epoch();
  stats.final_num_nodes = map->num_nodes();
  return stats;
}

}  // namespace cca::sim
