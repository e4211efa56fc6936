#include "core/correlation.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "common/check.hpp"
#include "common/metrics.hpp"

namespace cca::core {

trace::PairMode pair_mode_of(OperationModel model) {
  return model == OperationModel::kSmallestPair
             ? trace::PairMode::kSmallestPair
             : trace::PairMode::kAllPairs;
}

bool MinerOptions::parse_kind(const std::string& name, Kind* out) {
  if (name == "exact") {
    *out = Kind::kExact;
    return true;
  }
  if (name == "sketch") {
    *out = Kind::kSketch;
    return true;
  }
  return false;
}

std::vector<KeywordPairWeight> build_pair_weights(
    const trace::QueryTrace& trace,
    const std::vector<std::uint64_t>& index_sizes, OperationModel model) {
  CCA_CHECK_MSG(index_sizes.size() >= trace.vocabulary_size(),
                "index_sizes does not cover the vocabulary");
  const trace::PairCounter counter =
      model == OperationModel::kSmallestPair
          ? trace::PairCounter::count_smallest_pair(trace, index_sizes)
          : trace::PairCounter::count_all_pairs(trace);

  std::vector<KeywordPairWeight> out;
  out.reserve(counter.distinct_pairs());
  for (const trace::PairCount& pc : counter.sorted_pairs()) {
    KeywordPairWeight kpw;
    kpw.a = pc.pair.first;
    kpw.b = pc.pair.second;
    kpw.r = pc.probability;
    kpw.w = static_cast<double>(
        std::min(index_sizes[pc.pair.first], index_sizes[pc.pair.second]));
    out.push_back(kpw);
  }
  return out;
}

std::vector<KeywordPairWeight> build_pair_weights(
    const trace::StreamMiner& miner,
    const std::vector<std::uint64_t>& index_sizes) {
  std::vector<KeywordPairWeight> out;
  const auto candidates = miner.top_pairs(miner.config().top_pairs);
  out.reserve(candidates.size());
  for (const trace::PairCount& pc : candidates) {
    CCA_CHECK_MSG(pc.pair.second < index_sizes.size(),
                  "index_sizes does not cover mined keyword "
                      << pc.pair.second);
    KeywordPairWeight kpw;
    kpw.a = pc.pair.first;
    kpw.b = pc.pair.second;
    kpw.r = pc.probability;
    kpw.w = static_cast<double>(
        std::min(index_sizes[pc.pair.first], index_sizes[pc.pair.second]));
    out.push_back(kpw);
  }
  return out;
}

std::vector<KeywordPairWeight> mine_pair_weights(
    const trace::QueryTrace& trace,
    const std::vector<std::uint64_t>& index_sizes, OperationModel model,
    const MinerOptions& miner) {
  if (miner.kind == MinerOptions::Kind::kExact)
    return build_pair_weights(trace, index_sizes, model);
  trace::StreamMiner stream(miner.sketch);
  stream.observe_trace(trace, pair_mode_of(model), &index_sizes);
  return build_pair_weights(stream, index_sizes);
}

KeywordHyperedges build_hyperedges(const trace::QueryTrace& trace) {
  // Queries arrive with sorted distinct keywords (QueryTrace::add_query
  // canonicalizes), so the keyword vector itself is the aggregation key.
  // Sorting the multi-keyword queries by pin set and counting equal runs
  // keeps the output deterministically sorted by pin set.
  std::vector<const std::vector<trace::KeywordId>*> sets;
  sets.reserve(trace.size());
  for (const trace::Query& q : trace.queries())
    if (q.size() >= 2) sets.push_back(&q.keywords);
  std::sort(sets.begin(), sets.end(),
            [](const auto* a, const auto* b) { return *a < *b; });
  KeywordHyperedges out;
  const double rate_unit =
      trace.empty() ? 0.0 : 1.0 / static_cast<double>(trace.size());
  for (std::size_t i = 0; i < sets.size();) {
    std::size_t j = i + 1;
    while (j < sets.size() && *sets[j] == *sets[i]) ++j;
    out.pins.insert(out.pins.end(), sets[i]->begin(), sets[i]->end());
    CCA_CHECK_MSG(out.pins.size() <= UINT32_MAX, "too many hyperedge pins");
    out.offsets.push_back(static_cast<std::uint32_t>(out.pins.size()));
    out.weights.push_back(static_cast<double>(j - i) * rate_unit);
    i = j;
  }
  // The table lives as long as the optimizers sharing it: keep no slack.
  out.offsets.shrink_to_fit();
  out.pins.shrink_to_fit();
  out.weights.shrink_to_fit();
  return out;
}

std::vector<trace::KeywordId> importance_ranking(
    const std::vector<KeywordPairWeight>& pairs,
    const std::vector<std::uint64_t>& index_sizes) {
  // Pairs in descending communication cost r*w.
  std::vector<const KeywordPairWeight*> order;
  order.reserve(pairs.size());
  for (const KeywordPairWeight& p : pairs) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [](const KeywordPairWeight* x, const KeywordPairWeight* y) {
              if (x->cost() != y->cost()) return x->cost() > y->cost();
              if (x->a != y->a) return x->a < y->a;
              return x->b < y->b;
            });

  const std::size_t vocab = index_sizes.size();
  std::vector<bool> ranked(vocab, false);
  std::vector<trace::KeywordId> ranking;
  ranking.reserve(vocab);
  for (const KeywordPairWeight* p : order) {
    for (trace::KeywordId k : {p->a, p->b}) {
      if (!ranked[k]) {
        ranked[k] = true;
        ranking.push_back(k);
      }
    }
  }

  // Never-communicating keywords last, largest index first (they still
  // matter for the capacity side of the placement).
  std::vector<trace::KeywordId> tail;
  for (std::size_t k = 0; k < vocab; ++k)
    if (!ranked[k]) tail.push_back(static_cast<trace::KeywordId>(k));
  std::sort(tail.begin(), tail.end(),
            [&](trace::KeywordId a, trace::KeywordId b) {
              if (index_sizes[a] != index_sizes[b])
                return index_sizes[a] > index_sizes[b];
              return a < b;
            });
  ranking.insert(ranking.end(), tail.begin(), tail.end());
  return ranking;
}

// ---------------------------------------------------------------------------
// Per-trace artifacts and their memo.
// ---------------------------------------------------------------------------

namespace {

/// The memo key: a 128-bit trace::KeyDigest of (operation model, the
/// miner options the miner reads, index sizes, the trace's size and its
/// running content digest), so an entry costs 16 bytes however long its
/// trace, and computing it reads no query: O(vocabulary).
using trace::KeyDigest;

KeyDigest::Value key_digest(const trace::QueryTrace& trace,
                            const std::vector<std::uint64_t>& index_sizes,
                            OperationModel model, const MinerOptions& miner) {
  KeyDigest d;
  d.add32(static_cast<std::uint32_t>(model));
  d.add32(static_cast<std::uint32_t>(miner.kind));
  static_assert(sizeof(trace::StreamMinerConfig) == 4 * sizeof(std::size_t),
                "a new sketch option must join the key below");
  if (miner.kind == MinerOptions::Kind::kSketch)
    for (const std::size_t v : {miner.sketch.top_objects,
                                miner.sketch.top_pairs, miner.sketch.cm_width,
                                miner.sketch.cm_depth})
      d.add64(v);
  d.add64(index_sizes.size());
  for (const std::uint64_t size : index_sizes) d.add64(size);
  d.add64(trace.size());
  for (const std::uint64_t lane : trace.digest()) d.add64(lane);
  return d.value();
}

}  // namespace

/// The process-wide memo behind CorrelationArtifacts::of. It holds weak
/// references only: an entry whose artifacts died is pruned at the next
/// lookup, so nothing outlives the last optimizer using it. One mutex
/// guards the entry list; a miss inserts a pending entry, builds outside
/// the lock, and wakes every caller that found the entry pending.
class ArtifactMemo {
 public:
  static ArtifactMemo& global() {
    static ArtifactMemo* memo = new ArtifactMemo;  // leaked: no exit order
    return *memo;
  }

  std::shared_ptr<const CorrelationArtifacts> get(
      const trace::QueryTrace& trace,
      const std::vector<std::uint64_t>& index_sizes, OperationModel model,
      const MinerOptions& miner) {
    const KeyDigest::Value key = key_digest(trace, index_sizes, model, miner);
    std::unique_lock<std::mutex> lock(mutex_);
    std::erase_if(entries_, [](const std::shared_ptr<Entry>& e) {
      return e->artifacts.expired();
    });
    for (const std::shared_ptr<Entry>& found : entries_) {
      if (found->key != key) continue;
      std::shared_ptr<const CorrelationArtifacts> held =
          found->artifacts.lock();
      if (!held) continue;
      const std::shared_ptr<Entry> entry = found;  // survives pruning
      built_.wait(lock, [&] { return entry->ready || entry->error; });
      if (entry->error) std::rethrow_exception(entry->error);
      count("core.correlation.hits");
      return held;
    }

    // A separate allocation (not make_shared), so the artifacts' memory
    // goes with their last holder even while the entry's weak_ptr lingers.
    const std::shared_ptr<CorrelationArtifacts> built(new CorrelationArtifacts);
    const auto entry = std::make_shared<Entry>();
    entry->key = key;
    entry->artifacts = built;
    entries_.push_back(entry);
    lock.unlock();

    try {
      built->build(trace, index_sizes, model, miner);
    } catch (...) {
      lock.lock();
      entry->error = std::current_exception();
      entries_.erase(std::find(entries_.begin(), entries_.end(), entry));
      built_.notify_all();
      throw;
    }
    lock.lock();
    entry->ready = true;
    built_.notify_all();
    count("core.correlation.builds");
    return built;
  }

 private:
  static void count(const char* name) {
    if (common::metrics_enabled())
      common::MetricsRegistry::global().counter(name).add();
  }

  struct Entry {
    KeyDigest::Value key{};
    // The artifacts are written by the one builder before `ready`.
    std::weak_ptr<const CorrelationArtifacts> artifacts;
    bool ready = false;
    std::exception_ptr error;
  };

  std::mutex mutex_;
  std::condition_variable built_;
  std::vector<std::shared_ptr<Entry>> entries_;
};

std::shared_ptr<const CorrelationArtifacts> CorrelationArtifacts::of(
    const trace::QueryTrace& trace,
    const std::vector<std::uint64_t>& index_sizes, OperationModel model,
    const MinerOptions& miner) {
  return ArtifactMemo::global().get(trace, index_sizes, model, miner);
}

void CorrelationArtifacts::build(const trace::QueryTrace& trace,
                                 const std::vector<std::uint64_t>& index_sizes,
                                 OperationModel model,
                                 const MinerOptions& miner) {
  index_sizes_ = index_sizes;
  pairs_ = mine_pair_weights(trace, index_sizes_, model, miner);
  ranking_ = importance_ranking(pairs_, index_sizes_);
  hyperedges_ = build_hyperedges(trace);
}

std::vector<DominancePoint> dominance_curve(
    const std::vector<trace::KeywordId>& ranking,
    const std::vector<KeywordPairWeight>& pairs,
    const std::vector<std::uint64_t>& index_sizes,
    std::size_t sample_points) {
  CCA_CHECK(sample_points >= 1);
  const std::size_t vocab = ranking.size();

  std::vector<std::size_t> rank_of(index_sizes.size(), vocab);
  for (std::size_t pos = 0; pos < ranking.size(); ++pos)
    rank_of[ranking[pos]] = pos;

  // A pair is covered once both endpoints are within the prefix, i.e. at
  // prefix length max(rank_a, rank_b) + 1.
  std::vector<double> cost_at_rank(vocab + 1, 0.0);
  double total_cost = 0.0;
  for (const KeywordPairWeight& p : pairs) {
    const std::size_t need = std::max(rank_of[p.a], rank_of[p.b]) + 1;
    cost_at_rank[need] += p.cost();
    total_cost += p.cost();
  }
  std::vector<double> size_at_rank(vocab + 1, 0.0);
  double total_size = 0.0;
  for (std::size_t pos = 0; pos < ranking.size(); ++pos) {
    size_at_rank[pos + 1] = static_cast<double>(index_sizes[ranking[pos]]);
    total_size += size_at_rank[pos + 1];
  }

  std::vector<DominancePoint> curve;
  curve.reserve(sample_points + 1);
  double cum_cost = 0.0, cum_size = 0.0;
  const std::size_t step = std::max<std::size_t>(1, vocab / sample_points);
  std::size_t next_sample = step;
  for (std::size_t rank = 1; rank <= vocab; ++rank) {
    cum_cost += cost_at_rank[rank];
    cum_size += size_at_rank[rank];
    if (rank == next_sample || rank == vocab) {
      DominancePoint pt;
      pt.rank = rank;
      pt.cumulative_size_fraction = total_size > 0 ? cum_size / total_size : 0;
      pt.cumulative_cost_fraction = total_cost > 0 ? cum_cost / total_cost : 0;
      curve.push_back(pt);
      next_sample += step;
    }
  }
  return curve;
}

}  // namespace cca::core
