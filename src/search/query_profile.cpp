#include "search/query_profile.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "common/check.hpp"
#include "common/flat_hash.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "search/bloom.hpp"

namespace cca::search {

namespace {

/// Queries per build shard. Every slot is written by exactly one shard,
/// so the grain only trades dispatch cost against load balance.
constexpr std::size_t kBuildGrain = 1024;

/// Profiles one index memoises (least recently used goes first). No bench
/// evaluates more than two (trace, operator, size model) keys against one
/// index (search.profile.builds under --metrics), and a trace replayed in
/// segments is one key (sim::QueryRange), so eight leaves room to spare.
constexpr std::size_t kCacheCapacity = 8;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Fast reject for cache lookups; equal hashes are confirmed by a full
/// content comparison (QueryProfile::matches). The trace enters through
/// its size and running digest, so hashing reads no query.
std::uint64_t content_hash(const trace::QueryTrace& trace, OperationKind kind,
                           const std::vector<std::uint64_t>& keyword_bytes) {
  std::uint64_t h = static_cast<std::uint64_t>(kind);
  for (const std::uint64_t bytes : keyword_bytes) h = mix(h, bytes);
  h = mix(h, trace.size());
  for (const std::uint64_t lane : trace.digest()) h = mix(h, lane);
  return h;
}

/// Hash of one query's keyword span, as a FlatCounter64 key (never the
/// reserved all-ones key).
std::uint64_t span_hash(const trace::KeywordId* ids, std::size_t width) {
  std::uint64_t h = width;
  for (std::size_t i = 0; i < width; ++i) h = mix(h, ids[i]);
  return h == common::FlatCounter64::kEmptyKey ? 0 : h;
}

}  // namespace

// ---------------------------------------------------------------------------
// The per-index memo.
// ---------------------------------------------------------------------------

/// Bounded profile cache owned (through a shared_ptr) by an InvertedIndex.
/// One mutex guards the entry list; a miss inserts a pending entry, builds
/// outside the lock, and wakes every caller that found the entry pending.
class ProfileCache {
 public:
  std::shared_ptr<const QueryProfile> get(
      const InvertedIndex& index, const trace::QueryTrace& trace,
      OperationKind kind, const std::vector<std::uint64_t>& keyword_bytes) {
    const std::uint64_t hash = content_hash(trace, kind, keyword_bytes);
    std::unique_lock<std::mutex> lock(mutex_);
    for (const std::shared_ptr<Entry>& found : entries_) {
      if (found->hash != hash ||
          !found->profile->matches(trace, kind, keyword_bytes))
        continue;
      const std::shared_ptr<Entry> entry = found;  // survives eviction
      entry->last_use = ++clock_;
      built_.wait(lock, [&] { return entry->ready || entry->error; });
      if (entry->error) std::rethrow_exception(entry->error);
      if (common::metrics_enabled())
        common::MetricsRegistry::global().counter("search.profile.hits").add();
      return entry->profile;
    }

    const auto entry = std::make_shared<Entry>();
    entry->hash = hash;
    entry->profile.reset(new QueryProfile(trace, kind, keyword_bytes));
    entry->last_use = ++clock_;
    evict_one_if_full();
    entries_.push_back(entry);
    lock.unlock();

    try {
      entry->profile->fill(index, trace);
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
    if (common::metrics_enabled())
      common::MetricsRegistry::global().counter("search.profile.builds").add();
    return entry->profile;
  }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    // Key fields are set before the entry is published and never change;
    // the measured fields are written by the one builder before `ready`.
    std::shared_ptr<QueryProfile> profile;
    bool ready = false;
    std::exception_ptr error;
    std::uint64_t last_use = 0;
  };

  /// Drops the least recently used finished entry at capacity. Callers
  /// still holding its profile keep it alive.
  void evict_one_if_full() {
    if (entries_.size() < kCacheCapacity) return;
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if ((*it)->ready &&
          (victim == entries_.end() || (*it)->last_use < (*victim)->last_use))
        victim = it;
    if (victim != entries_.end()) entries_.erase(victim);
  }

  std::mutex mutex_;
  std::condition_variable built_;
  std::vector<std::shared_ptr<Entry>> entries_;
  std::uint64_t clock_ = 0;
};

std::shared_ptr<ProfileCache> make_profile_cache() {
  return std::make_shared<ProfileCache>();
}

// ---------------------------------------------------------------------------
// QueryProfile.
// ---------------------------------------------------------------------------

QueryProfile::QueryProfile(const trace::QueryTrace& trace, OperationKind kind,
                           const std::vector<std::uint64_t>& keyword_bytes)
    : kind_(kind), keyword_bytes_(keyword_bytes) {
  const std::vector<trace::Query>& queries = trace.queries();
  offsets_.reserve(queries.size() + 1);
  offsets_.push_back(0);
  for (const trace::Query& q : queries)
    offsets_.push_back(offsets_.back() + q.size());
  keywords_.reserve(offsets_.back());
  for (const trace::Query& q : queries)
    keywords_.insert(keywords_.end(), q.keywords.begin(), q.keywords.end());
}

QueryProfile::QueryProfile(const InvertedIndex& index,
                           const trace::QueryTrace& trace, OperationKind kind,
                           const std::vector<std::uint64_t>& keyword_bytes)
    : QueryProfile(trace, kind, keyword_bytes) {
  fill(index, trace);
}

std::shared_ptr<const QueryProfile> QueryProfile::of(
    const InvertedIndex& index, const trace::QueryTrace& trace,
    OperationKind kind, const std::vector<std::uint64_t>& keyword_bytes) {
  CCA_CHECK_MSG(index.profiles_, "profile lookup on a moved-from index");
  return index.profiles_->get(index, trace, kind, keyword_bytes);
}

bool QueryProfile::matches(const trace::QueryTrace& trace, OperationKind kind,
                           const std::vector<std::uint64_t>& keyword_bytes) const {
  const std::vector<trace::Query>& queries = trace.queries();
  if (kind != kind_ || queries.size() + 1 != offsets_.size() ||
      keyword_bytes != keyword_bytes_)
    return false;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::vector<trace::KeywordId>& ids = queries[q].keywords;
    if (ids.size() != offsets_[q + 1] - offsets_[q] ||
        !std::equal(ids.begin(), ids.end(), keywords_.begin() + offsets_[q]))
      return false;
  }
  return true;
}

void QueryProfile::number_distinct() {
  const std::size_t n = offsets_.size() - 1;
  CCA_CHECK_MSG(n <= UINT32_MAX, "trace of " << n << " queries");
  distinct_.resize(n);
  representatives_.clear();
  // Span hash -> id + 1. Equal hashes are confirmed against the id's
  // representative; a collision moves on to the next key (hash + 1), so
  // every span owns the first key of its chain that is free or its own.
  common::FlatCounter64 ids;
  for (std::size_t q = 0; q < n; ++q) {
    const trace::KeywordId* span = keywords_.data() + offsets_[q];
    const std::size_t width = offsets_[q + 1] - offsets_[q];
    for (std::uint64_t key = span_hash(span, width);;
         key = key + 1 == common::FlatCounter64::kEmptyKey ? 0 : key + 1) {
      const std::uint64_t slot = ids.count(key);
      if (slot == 0) {
        representatives_.push_back(static_cast<std::uint32_t>(q));
        ids.add(key, representatives_.size());
        distinct_[q] = static_cast<std::uint32_t>(representatives_.size() - 1);
        break;
      }
      const std::size_t rep = representatives_[slot - 1];
      if (offsets_[rep + 1] - offsets_[rep] == width &&
          std::equal(span, span + width, keywords_.data() + offsets_[rep])) {
        distinct_[q] = static_cast<std::uint32_t>(slot - 1);
        break;
      }
    }
  }
}

void QueryProfile::fill(const InvertedIndex& index,
                        const trace::QueryTrace& trace) {
  number_distinct();
  const QueryEngine engine = keyword_bytes_.empty()
                                 ? QueryEngine(index)
                                 : QueryEngine(index, keyword_bytes_);
  const std::vector<trace::Query>& queries = trace.queries();
  const bool bloom = kind_ == OperationKind::kIntersectionBloom;
  order_.resize(keywords_.size());
  step_bytes_.resize(keywords_.size());
  result_size_.assign(queries.size(), 0);
  if (bloom) {
    filter_bytes_.assign(queries.size(), 0);
    survivors_.assign(queries.size(), 0);
  }
  std::size_t max_width = 0;
  for (const trace::Query& q : queries)
    max_width = std::max(max_width, q.size());

  const auto chunks = common::chunk_ranges(queries.size(), kBuildGrain);
  common::parallel_for(0, chunks.size(), 1, [&](std::size_t c) {
    QueryScratch s;
    s.reserve(max_width, engine.max_postings());
    for (std::size_t q = chunks[c].first; q < chunks[c].second; ++q) {
      const trace::Query& query = queries[q];
      CCA_CHECK(!query.keywords.empty());
      // The single sizing pass (and the postings metrics) of execute_*.
      engine.size_keywords(query, s, kind_ != OperationKind::kUnion);
      const std::vector<SizedKeyword>& order = s.order_.vec();
      const std::size_t at = offsets_[q];
      for (std::size_t i = 0; i < order.size(); ++i) {
        order_[at + i] = order[i].id;
        step_bytes_[at + i] = order[i].bytes;
      }

      std::vector<std::uint64_t>* run = &s.run_a_.vec();
      std::vector<std::uint64_t>* other = &s.run_b_.vec();
      if (kind_ == OperationKind::kUnion) {
        run->clear();
        for (const SizedKeyword& sk : order) {
          engine.decode_full(sk.id, s.list_a_.vec());
          unite_into(run->data(), run->size(), s.list_a_.data(),
                     s.list_a_.size(), *other);
          std::swap(run, other);
        }
        result_size_[q] = run->size();
        continue;
      }
      if (order.size() == 1) {
        result_size_[q] = engine.compressed_.postings_count(order[0].id);
        continue;
      }
      if (bloom) {
        engine.decode_full(order[0].id, s.list_a_.vec());
        engine.decode_full(order[1].id, s.list_b_.vec());
        intersect_into(s.list_a_.data(), s.list_a_.size(), s.list_b_.data(),
                       s.list_b_.size(), *run);
        const BloomFilter filter =
            BloomFilter::build(s.list_a_.vec(), kDefaultBloomBitsPerKey);
        std::uint64_t candidates = 0;
        for (const std::uint64_t id : s.list_b_.vec())
          if (filter.maybe_contains(id)) ++candidates;
        filter_bytes_[q] = filter.size_bytes();
        survivors_[q] = candidates;
      } else {
        engine.first_intersection(order[0].id, order[1].id, s);
      }
      for (std::size_t t = 2; t < order.size(); ++t) {
        step_bytes_[at + t] = 8 * run->size();
        engine.intersect_step(run->data(), run->size(), order[t].id, s,
                              *other);
        std::swap(run, other);
      }
      result_size_[q] = run->size();
    }
  });
}

QueryCost QueryProfile::walk(std::size_t q, PlacementRef placement,
                             TransferObserverRef observer) const {
  CCA_CHECK_MSG(q < size(), "query " << q << " outside the profile");
  const std::size_t at = offsets_[q];
  const std::size_t width = offsets_[q + 1] - at;
  const trace::KeywordId* order = order_.data() + at;
  const std::uint64_t* bytes = step_bytes_.data() + at;
  QueryCost cost;
  cost.result_size = result_size_[q];

  if (kind_ == OperationKind::kUnion) {
    UnionDestination destination;
    for (std::size_t i = 0; i < width; ++i)
      destination.consider(placement(order[i]), bytes[i]);
    const int dest = destination.node();
    for (std::size_t i = 0; i < width; ++i) {
      const core::ReplicaSet set = placement(order[i]);
      if (!set.contains(dest))
        charge_transfer(cost, observer, set.primary, dest, bytes[i]);
    }
    return cost;
  }
  if (width == 1) return cost;

  const core::ReplicaSet small_set = placement(order[0]);
  const core::ReplicaSet large_set = placement(order[1]);
  const FirstStep first = first_step(small_set, large_set);
  int current_node = first.node;
  if (first.ships && kind_ == OperationKind::kIntersectionBloom) {
    current_node = QueryEngine::bloom_first_step(
        small_set, large_set, bytes[0], filter_bytes_[q], survivors_[q], cost,
        observer);
  } else if (first.ships) {
    charge_transfer(cost, observer, small_set.primary, current_node,
                    bytes[0]);
  }
  for (std::size_t t = 2; t < width; ++t)
    current_node = running_result_step(placement(order[t]), current_node,
                                       bytes[t], cost, observer);
  return cost;
}

}  // namespace cca::search
