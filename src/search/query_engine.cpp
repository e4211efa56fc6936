#include "search/query_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "search/bloom.hpp"
#include "search/compression.hpp"

namespace cca::search {

namespace {

/// Per-query instrumentation handles, resolved once. All counters are
/// sharded, so recording from the parallel replay shards stays exact.
struct SearchMetrics {
  common::Counter& postings_fetched;
  common::Counter& postings_bytes;
  common::Counter& postings_sized;
  common::Counter& bloom_wins;
  common::Counter& bloom_classic;
  common::Counter& bloom_saved_bytes;

  static SearchMetrics& get() {
    static SearchMetrics* m = [] {
      auto& reg = common::MetricsRegistry::global();
      return new SearchMetrics{
          reg.counter("search.postings.fetched"),
          reg.counter("search.postings.bytes"),
          reg.counter("search.postings.sized"),
          reg.counter("search.bloom.wins"),
          reg.counter("search.bloom.classic"),
          reg.counter("search.bloom.saved_bytes"),
      };
    }();
    return *m;
  }
};

/// Counts one query's posting-list touches (every keyword's list is read
/// exactly once by each operator).
inline void record_postings(const trace::Query& query,
                            std::uint64_t total_bytes) {
  if (!common::metrics_enabled()) return;
  SearchMetrics& m = SearchMetrics::get();
  m.postings_fetched.add(static_cast<std::int64_t>(query.keywords.size()));
  m.postings_bytes.add(static_cast<std::int64_t>(total_bytes));
}

}  // namespace

void QueryScratch::reserve(std::size_t max_query_keywords,
                           std::size_t max_list_postings) {
  order_.reserve(max_query_keywords);
  run_a_.reserve(max_list_postings);
  run_b_.reserve(max_list_postings);
  list_a_.reserve(max_list_postings);
  list_b_.reserve(max_list_postings);
}

QueryEngine::QueryEngine(const InvertedIndex& index, PostingCodec codec)
    : index_(&index), compressed_(index, codec) {}

QueryEngine::QueryEngine(const InvertedIndex& index,
                         std::vector<std::uint64_t> keyword_bytes)
    : index_(&index),
      keyword_bytes_(std::move(keyword_bytes)),
      compressed_(index, PostingCodec::kBlock) {
  CCA_CHECK_MSG(keyword_bytes_.size() == index.vocabulary_size(),
                "keyword_bytes must cover the whole vocabulary");
}

std::uint64_t QueryEngine::bytes_of(trace::KeywordId k) const {
  // `sized` counts sizing passes; the bench_micro one-pass regression
  // assert checks it stays equal to `fetched` (each keyword of each query
  // sized exactly once, never re-derived for metrics or ordering).
  if (common::metrics_enabled()) SearchMetrics::get().postings_sized.add();
  return keyword_bytes_.empty() ? index_->postings(k).size_bytes()
                                : keyword_bytes_[k];
}

int QueryEngine::bloom_first_step(const core::ReplicaSet& small,
                                  const core::ReplicaSet& large,
                                  std::uint64_t ship_bytes,
                                  std::uint64_t filter_bytes,
                                  std::uint64_t survivors, QueryCost& cost,
                                  TransferObserverRef observer) {
  const std::uint64_t bloom_bytes = filter_bytes + 8 * survivors;
  const bool bloom = bloom_bytes < ship_bytes;
  if (common::metrics_enabled()) {
    SearchMetrics& m = SearchMetrics::get();
    if (bloom) {
      m.bloom_wins.add();
      m.bloom_saved_bytes.add(
          static_cast<std::int64_t>(ship_bytes - bloom_bytes));
    } else {
      m.bloom_classic.add();
    }
  }
  if (!bloom) {
    charge_transfer(cost, observer, small.primary, large.primary, ship_bytes);
    return large.primary;
  }
  // Filter out, survivors back; the query finishes at the small list.
  charge_transfer(cost, observer, small.primary, large.primary, filter_bytes);
  charge_transfer(cost, observer, large.primary, small.primary,
                  8 * survivors);
  return small.primary;
}

void QueryEngine::size_keywords(const trace::Query& query, QueryScratch& s,
                                bool sorted) const {
  s.order_.clear();
  std::uint64_t total = 0;
  for (trace::KeywordId k : query.keywords) {
    const std::uint64_t bytes = bytes_of(k);
    total += bytes;
    s.order_.vec().push_back(SizedKeyword{bytes, k});
  }
  record_postings(query, total);
  if (sorted)
    std::sort(s.order_.vec().begin(), s.order_.vec().end(),
              [](const SizedKeyword& a, const SizedKeyword& b) {
                return a.bytes != b.bytes ? a.bytes < b.bytes : a.id < b.id;
              });
}

void QueryEngine::decode_full(trace::KeywordId k,
                              std::vector<std::uint64_t>& out) const {
  compressed_.decode(k, out);
}

void QueryEngine::intersect_step(const std::uint64_t* a, std::size_t na,
                                 trace::KeywordId k, QueryScratch& s,
                                 std::vector<std::uint64_t>& out) const {
  if (compressed_.codec() == PostingCodec::kBlock) {
    intersect_with_blocks(a, na, compressed_.blocks(k), k, &s.cache_, out);
  } else {
    decompress_postings_into(compressed_.varint(k), s.list_b_.vec());
    intersect_into(a, na, s.list_b_.data(), s.list_b_.size(), out);
  }
}

void QueryEngine::first_intersection(trace::KeywordId a, trace::KeywordId b,
                                     QueryScratch& s) const {
  // Decode the shorter list, stream the longer one's blocks.
  if (compressed_.postings_count(a) > compressed_.postings_count(b))
    std::swap(a, b);
  decode_full(a, s.list_a_.vec());
  intersect_step(s.list_a_.data(), s.list_a_.size(), b, s, s.run_a_.vec());
}

QueryCost QueryEngine::execute_intersection(const trace::Query& query,
                                            PlacementRef placement,
                                            TransferObserverRef observer,
                                            QueryScratch* scratch) const {
  CCA_CHECK(!query.keywords.empty());
  QueryCost cost;
  if (query.keywords.size() == 1) {
    const trace::KeywordId k = query.keywords[0];
    if (common::metrics_enabled()) record_postings(query, bytes_of(k));
    cost.result_size = compressed_.postings_count(k);
    return cost;
  }

  QueryScratch local;  // allocation-free to construct
  QueryScratch& s = scratch ? *scratch : local;
  size_keywords(query, s, /*sorted=*/true);
  const std::vector<SizedKeyword>& order = s.order_.vec();

  // Step 1: the two smallest lists. The smaller ships to the larger's
  // primary — unless some replica of one already lives at the other's
  // primary (full-degree sets live everywhere), which makes the step free.
  const core::ReplicaSet set0 = placement(order[0].id);
  const core::ReplicaSet set1 = placement(order[1].id);
  const FirstStep first = first_step(set0, set1);
  int current_node = first.node;
  if (first.ships)
    charge_transfer(cost, observer, set0.primary, current_node,
                    order[0].bytes);
  first_intersection(order[0].id, order[1].id, s);

  // Step 2: fold in the remaining keywords; the running intersection
  // (which only shrinks) travels to each keyword's primary when no
  // replica is already co-located with it.
  std::vector<std::uint64_t>* run = &s.run_a_.vec();
  std::vector<std::uint64_t>* other = &s.run_b_.vec();
  for (std::size_t t = 2; t < order.size(); ++t) {
    current_node = running_result_step(placement(order[t].id), current_node,
                                       8 * run->size(), cost, observer);
    intersect_step(run->data(), run->size(), order[t].id, s, *other);
    std::swap(run, other);
  }

  cost.result_size = run->size();
  return cost;
}

QueryCost QueryEngine::execute_intersection_bloom(
    const trace::Query& query, PlacementRef placement, double bits_per_key,
    TransferObserverRef observer, QueryScratch* scratch) const {
  CCA_CHECK(!query.keywords.empty());
  QueryCost cost;
  if (query.keywords.size() == 1) {
    const trace::KeywordId k = query.keywords[0];
    if (common::metrics_enabled()) record_postings(query, bytes_of(k));
    cost.result_size = compressed_.postings_count(k);
    return cost;
  }

  QueryScratch local;
  QueryScratch& s = scratch ? *scratch : local;
  size_keywords(query, s, /*sorted=*/true);
  const std::vector<SizedKeyword>& order = s.order_.vec();

  // Both lists materialize here: the Bloom option needs the small list's
  // IDs for the filter and the large list's for the exact survivor count.
  decode_full(order[0].id, s.list_a_.vec());  // small (by wire bytes)
  decode_full(order[1].id, s.list_b_.vec());  // large
  intersect_into(s.list_a_.data(), s.list_a_.size(), s.list_b_.data(),
                 s.list_b_.size(), s.run_a_.vec());
  const core::ReplicaSet small_set = placement(order[0].id);
  const core::ReplicaSet large_set = placement(order[1].id);
  const FirstStep first = first_step(small_set, large_set);
  int current_node = first.node;

  if (first.ships) {
    // Classic: ship the small list to the large list's node. Bloom: a
    // filter over the small list travels out; the large list's survivors
    // travel back (8 B each). Exact survivor count from the actual
    // filter, not the textbook estimate.
    const BloomFilter filter = BloomFilter::build(s.list_a_.vec(), bits_per_key);
    std::uint64_t candidates = 0;
    for (std::uint64_t id : s.list_b_.vec())
      if (filter.maybe_contains(id)) ++candidates;
    current_node =
        bloom_first_step(small_set, large_set, order[0].bytes,
                         filter.size_bytes(), candidates, cost, observer);
  }

  // Remaining keywords: the running intersection is already small, so the
  // classic ship-the-running-result step is used (a Bloom round trip
  // cannot beat shipping a list that is at most the filter's size).
  std::vector<std::uint64_t>* run = &s.run_a_.vec();
  std::vector<std::uint64_t>* other = &s.run_b_.vec();
  for (std::size_t t = 2; t < order.size(); ++t) {
    current_node = running_result_step(placement(order[t].id), current_node,
                                       8 * run->size(), cost, observer);
    intersect_step(run->data(), run->size(), order[t].id, s, *other);
    std::swap(run, other);
  }

  cost.result_size = run->size();
  return cost;
}

QueryCost QueryEngine::execute_union(const trace::Query& query,
                                     PlacementRef placement,
                                     TransferObserverRef observer,
                                     QueryScratch* scratch) const {
  CCA_CHECK(!query.keywords.empty());
  QueryCost cost;

  QueryScratch local;
  QueryScratch& s = scratch ? *scratch : local;
  size_keywords(query, s, /*sorted=*/false);  // union keeps query order

  UnionDestination destination;
  for (const SizedKeyword& sk : s.order_.vec())
    destination.consider(placement(sk.id), sk.bytes);
  const int dest = destination.node();

  s.run_a_.clear();
  std::vector<std::uint64_t>* run = &s.run_a_.vec();
  std::vector<std::uint64_t>* other = &s.run_b_.vec();
  for (const SizedKeyword& sk : s.order_.vec()) {
    const core::ReplicaSet set = placement(sk.id);
    if (!set.contains(dest))
      charge_transfer(cost, observer, set.primary, dest, sk.bytes);
    decode_full(sk.id, s.list_a_.vec());
    unite_into(run->data(), run->size(), s.list_a_.data(), s.list_a_.size(),
               *other);
    std::swap(run, other);
  }
  cost.result_size = run->size();
  return cost;
}

}  // namespace cca::search
