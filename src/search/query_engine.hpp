// Distributed multi-keyword query execution with byte-level communication
// accounting — the measurement side of the paper's prototype (Sec. 4.1).
//
// Given an index placement (keyword -> replica set), a query executes as
// the paper describes for intersection-like operations: process the two
// smallest posting lists first (shipping the smaller to the larger's node
// when no shared replica makes the step free), then fold in the remaining
// keywords in ascending size order, shipping the — typically tiny —
// running intersection to each keyword's node. Union-like operations
// instead ship every list to the largest object's node. The returned byte
// counts are what the evaluation figures report; result-return traffic is
// excluded, as in the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/arena.hpp"
#include "common/function_ref.hpp"
#include "core/placement_map.hpp"
#include "search/block_postings.hpp"
#include "search/inverted_index.hpp"
#include "trace/trace.hpp"

namespace cca::search {

/// Keyword -> replica set used during execution — the signature of
/// core::PlacementMap::resolve. A step involving a keyword whose set
/// contains the current node is free (the copy is local); a full-degree
/// set (ReplicaSet::everywhere) never causes a transfer, which is how
/// hot-keyword replication (cf. the authors' companion work on
/// replication-degree customization) is expressed.
///
/// PlacementFn/TransferObserver are the OWNING types, for callers that
/// store a callback. The execute_* hot paths take the non-owning *Ref
/// forms below, so passing a lambda (or a stored PlacementFn) costs two
/// pointers per call instead of a std::function conversion per query.
using PlacementFn = std::function<core::ReplicaSet(trace::KeywordId)>;
using PlacementRef = common::FunctionRef<core::ReplicaSet(trace::KeywordId)>;

/// Optional per-transfer observer (from-node, to-node, bytes); lets a
/// cluster simulator attribute traffic to node pairs.
using TransferObserver = std::function<void(int, int, std::uint64_t)>;
using TransferObserverRef = common::FunctionRef<void(int, int, std::uint64_t)>;

struct QueryCost {
  std::uint64_t bytes_transferred = 0;
  /// Number of inter-node transfers (0 for a fully local query).
  std::uint32_t messages = 0;
  /// Final result cardinality (pages matching all / any keywords).
  std::uint64_t result_size = 0;
  /// True when every touched keyword lived on one node.
  bool local = true;
};

/// One keyword with its on-the-wire size — the execution-order unit.
struct SizedKeyword {
  std::uint64_t bytes = 0;
  trace::KeywordId id = 0;
};

/// Where the first intersection step (the two smallest lists) runs: at
/// the larger list's primary, unless some replica of one already lives at
/// the other's primary (full-degree sets live everywhere), which makes the
/// step free. `ships` is true when the smaller list must travel to `node`.
struct FirstStep {
  int node = 0;
  bool ships = false;
};
inline FirstStep first_step(const core::ReplicaSet& small,
                            const core::ReplicaSet& large) {
  if (large.everywhere())
    return {small.everywhere() ? 0 : small.primary, false};
  if (small.everywhere() || small.contains(large.primary))
    return {large.primary, false};
  if (large.contains(small.primary)) return {small.primary, false};
  return {large.primary, true};
}

/// Charges one inter-node transfer of `bytes` to `cost` and reports it to
/// the observer.
inline void charge_transfer(QueryCost& cost, TransferObserverRef observer,
                            int from, int to, std::uint64_t bytes) {
  cost.bytes_transferred += bytes;
  ++cost.messages;
  cost.local = false;
  if (observer) observer(from, to, bytes);
}

/// One later intersection step (third keyword onwards): the running
/// result, `running_bytes` on the wire, travels from `current_node` to the
/// keyword's primary unless some replica of `set` already lives at
/// `current_node`. Returns the node the step runs at.
inline int running_result_step(const core::ReplicaSet& set, int current_node,
                               std::uint64_t running_bytes, QueryCost& cost,
                               TransferObserverRef observer) {
  if (set.contains(current_node)) return current_node;
  charge_transfer(cost, observer, current_node, set.primary, running_bytes);
  return set.primary;
}

/// A union's destination (Sec. 3.2), folded over its keywords in query
/// order: the primary of the largest not-fully-replicated list, the first
/// one on ties. Full-degree keywords are present everywhere and never
/// determine or pay for transfers; when every keyword is, the union is
/// free and runs at node 0.
class UnionDestination {
 public:
  void consider(const core::ReplicaSet& set, std::uint64_t bytes) {
    if (set.everywhere()) return;
    if (node_ < 0 || bytes > largest_bytes_) {
      node_ = set.primary;
      largest_bytes_ = bytes;
    }
  }
  int node() const { return node_ < 0 ? 0 : node_; }

 private:
  int node_ = -1;
  std::uint64_t largest_bytes_ = 0;
};

/// Bloom filter density (bits per posting) of the replayed Bloom
/// intersection (OperationKind::kIntersectionBloom) and the default of
/// QueryEngine::execute_intersection_bloom.
inline constexpr double kDefaultBloomBitsPerKey = 8.0;

/// Reusable per-shard execution state: the intersection ping-pong
/// buffers, full-decode scratch, execution order, and the decoded-block
/// cache. One instance per replay shard (not thread-safe); reserve() once
/// from batch-wide maxima and the steady-state query loop performs zero
/// heap allocations (asserted by tests/test_zero_alloc.cpp). Callers that
/// pass no scratch get a per-call local one — same results, per-query
/// allocation cost.
class QueryScratch {
 public:
  QueryScratch() = default;

  /// Pre-sizes every buffer: the widest query and the longest posting
  /// list the batch will touch (QueryEngine::max_postings()).
  void reserve(std::size_t max_query_keywords,
               std::size_t max_list_postings);

  /// Binds the decoded-block cache to a placement epoch
  /// (core::PlacementMap::cache_token()); a token change invalidates it.
  /// Results are byte-identical warm or cold — only wall-clock differs.
  void begin_epoch(std::uint64_t cache_token) {
    cache_.begin_epoch(cache_token);
  }

  DecodedBlockCache& cache() { return cache_; }

 private:
  friend class QueryEngine;
  friend class QueryProfile;
  common::ScratchArena<SizedKeyword> order_;  // (bytes, id) execution order
  common::ScratchArena<std::uint64_t> run_a_;  // running-result ping-pong pair
  common::ScratchArena<std::uint64_t> run_b_;
  common::ScratchArena<std::uint64_t> list_a_;  // full-decode scratch
  common::ScratchArena<std::uint64_t> list_b_;
  DecodedBlockCache cache_;
};

class QueryEngine {
 public:
  /// Uses the process-wide default codec (block unless --codec=varint).
  explicit QueryEngine(const InvertedIndex& index);
  QueryEngine(const InvertedIndex& index, PostingCodec codec);

  /// `keyword_bytes[k]` overrides the on-the-wire size of keyword k's
  /// posting list (e.g. compressed sizes from search/compression.hpp);
  /// it also drives the smallest-two execution order. Intermediate
  /// intersection results still ship at 8 bytes/posting — they are
  /// materialized uncompressed.
  QueryEngine(const InvertedIndex& index,
              std::vector<std::uint64_t> keyword_bytes);

  /// Intersection-like execution (multi-keyword AND search).
  QueryCost execute_intersection(const trace::Query& query,
                                 PlacementRef placement,
                                 TransferObserverRef observer = {},
                                 QueryScratch* scratch = nullptr) const;

  /// Union-like execution (result aggregation across datasets): all lists
  /// move to the largest object's node.
  QueryCost execute_union(const trace::Query& query, PlacementRef placement,
                          TransferObserverRef observer = {},
                          QueryScratch* scratch = nullptr) const;

  /// Intersection with Bloom-assisted remote steps (cf. the paper's
  /// companion work [13]): when the two smallest lists are apart, the
  /// smaller's node may send a Bloom filter (`bits_per_key` bits per
  /// posting) and receive back only the candidates that pass it
  /// (8 bytes each, true matches + false positives) instead of shipping
  /// the whole list. Per step the engine picks whichever is cheaper, so
  /// this never costs more than execute_intersection. Results are exact —
  /// false positives are eliminated in the final local intersection.
  /// (The Bloom filter itself is built per remote step, so this path is
  /// not allocation-free.)
  QueryCost execute_intersection_bloom(
      const trace::Query& query, PlacementRef placement,
      double bits_per_key = kDefaultBloomBitsPerKey,
      TransferObserverRef observer = {},
      QueryScratch* scratch = nullptr) const;

  /// The execution-side compressed index (built at construction).
  const CompressedIndex& compressed() const { return compressed_; }
  /// Longest posting list — what QueryScratch::reserve needs.
  std::size_t max_postings() const { return compressed_.max_postings(); }

 private:
  friend class QueryProfile;  // runs the placement-free half of execute_*

  std::uint64_t bytes_of(trace::KeywordId k) const;

  /// Fills s.order_ with (bytes, id) per keyword — the single sizing
  /// pass per query — and records the postings metrics. Sorted ascending
  /// (bytes, id) when `sorted`; query order otherwise (union path).
  void size_keywords(const trace::Query& query, QueryScratch& s,
                     bool sorted) const;

  /// The remote first step of the Bloom intersection: charges whichever
  /// is cheaper — the small list (`ship_bytes`) to the large list's
  /// primary, or a filter over it (`filter_bytes`) out and the large
  /// list's `survivors` (8 B each) back — and records the choice in the
  /// search.bloom.* metrics. Returns the node the query continues at.
  static int bloom_first_step(const core::ReplicaSet& small,
                              const core::ReplicaSet& large,
                              std::uint64_t ship_bytes,
                              std::uint64_t filter_bytes,
                              std::uint64_t survivors, QueryCost& cost,
                              TransferObserverRef observer);

  /// Decodes keyword k's full list into `out` under the active codec.
  void decode_full(trace::KeywordId k, std::vector<std::uint64_t>& out) const;

  /// out = {a} ∩ postings(k): streams k's blocks (block-max skip or
  /// per-block merge by size ratio, through s's cache) under the block
  /// codec; decodes then merges/gallops under varint. Clobbers s.list_b_.
  void intersect_step(const std::uint64_t* a, std::size_t na,
                      trace::KeywordId k, QueryScratch& s,
                      std::vector<std::uint64_t>& out) const;

  /// s.run_a_ = postings(a) ∩ postings(b), decoding only the shorter list.
  void first_intersection(trace::KeywordId a, trace::KeywordId b,
                          QueryScratch& s) const;

  const InvertedIndex* index_;
  std::vector<std::uint64_t> keyword_bytes_;  // empty = raw 8 B/posting
  CompressedIndex compressed_;
};

}  // namespace cca::search
