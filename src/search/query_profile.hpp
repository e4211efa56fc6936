// Profile-once trace evaluation: the placement-independent half of
// executing a query trace, computed once and replayed under any placement.
//
// Under the Sec. 4.1 replay cost model a placement changes a query's bytes
// only through co-location. The execution order (smallest-two-first by
// wire bytes, ties by id), every shipped size and every intermediate
// result size are fixed by (index, trace, operator, keyword_bytes). A
// QueryProfile runs each query's real intersections once and keeps just
// those numbers in flat CSR arrays; walk() then re-derives the ship /
// no-ship decisions for a placement in O(query length), without touching
// a posting list. The live QueryEngine::execute_* paths stay what serving
// measures; a walk reproduces their QueryCost and observer calls exactly
// (tests/test_query_profile.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "trace/trace.hpp"

namespace cca::search {

/// Which operator a profile evaluates (and a replay charges).
enum class OperationKind { kIntersection, kIntersectionBloom, kUnion };

class QueryProfile {
 public:
  /// Runs every query of `trace` once through a QueryEngine over `index`
  /// (shards on the common::parallel pool). `keyword_bytes` is the
  /// QueryEngine wire-size override (empty = 8 B/posting); the Bloom
  /// filters of kIntersectionBloom use kDefaultBloomBitsPerKey. Records
  /// the search.postings.* metrics once per query, as a live execution
  /// would.
  QueryProfile(const InvertedIndex& index, const trace::QueryTrace& trace,
               OperationKind kind,
               const std::vector<std::uint64_t>& keyword_bytes = {});

  /// The memoised form: the profile of exactly this trace content (and
  /// kind and keyword_bytes) from `index`'s bounded profile cache,
  /// building it on a miss. Concurrent callers with the same key share
  /// one build; the others wait for it. Safe to call from pool tasks.
  static std::shared_ptr<const QueryProfile> of(
      const InvertedIndex& index, const trace::QueryTrace& trace,
      OperationKind kind, const std::vector<std::uint64_t>& keyword_bytes = {});

  /// Number of profiled queries (the trace's size).
  std::size_t size() const { return result_size_.size(); }

  /// Distinct query contents. Trace queries with the same keyword span
  /// (same ids, same order) share every profiled number, so walk() makes
  /// the same observer calls for each of them under any placement. Ids
  /// are dense, numbered in order of first occurrence; an evaluator walks
  /// one representative per id and weights it by the id's multiplicity.
  std::size_t distinct_count() const { return representatives_.size(); }
  /// The distinct-content id of trace query q.
  std::uint32_t distinct_id(std::size_t q) const { return distinct_[q]; }
  /// The first trace query carrying distinct-content id `id`.
  std::size_t representative(std::uint32_t id) const {
    return representatives_[id];
  }

  /// Query q's cost under `placement`: the same placement lookups, ship /
  /// no-ship decisions, observer calls (in order) and QueryCost as the
  /// matching QueryEngine::execute_* on trace query q.
  QueryCost walk(std::size_t q, PlacementRef placement,
                 TransferObserverRef observer = {}) const;

 private:
  friend class ProfileCache;

  /// Key-only construction: copies the trace's keyword ids; fill() adds
  /// the measured part.
  QueryProfile(const trace::QueryTrace& trace, OperationKind kind,
               const std::vector<std::uint64_t>& keyword_bytes);
  void fill(const InvertedIndex& index, const trace::QueryTrace& trace);
  /// Numbers the distinct keyword spans of keywords_ (one hash pass).
  void number_distinct();

  /// True when the key fields equal (trace content, kind, keyword_bytes)
  /// exactly.
  bool matches(const trace::QueryTrace& trace, OperationKind kind,
               const std::vector<std::uint64_t>& keyword_bytes) const;

  // Key.
  OperationKind kind_;
  std::vector<std::uint64_t> keyword_bytes_;
  std::vector<std::size_t> offsets_;  // query q: [offsets_[q], offsets_[q+1])
  std::vector<trace::KeywordId> keywords_;  // the trace's ids, query order

  // Distinct contents (placement-independent, set by fill()): per query its
  // dense id, per id its first query.
  std::vector<std::uint32_t> distinct_;
  std::vector<std::uint32_t> representatives_;

  // Measured, one slot per keyword (CSR as above). Intersection kinds:
  // order_ is the execution order, step_bytes_[0] the first step's shipped
  // list, step_bytes_[1] the second list's wire bytes, and step_bytes_[t]
  // (t >= 2) the running result (8 B/posting) that reaches step t. Union:
  // order_ is query order and step_bytes_ each list's wire bytes.
  std::vector<trace::KeywordId> order_;
  std::vector<std::uint64_t> step_bytes_;
  std::vector<std::uint64_t> result_size_;  // per query

  // Bloom only, per query (0 for single-keyword queries): the filter over
  // the smaller list and how many of the larger list's postings pass it.
  std::vector<std::uint64_t> filter_bytes_;
  std::vector<std::uint64_t> survivors_;
};

/// A fresh, empty profile cache (what every InvertedIndex starts with).
std::shared_ptr<ProfileCache> make_profile_cache();

}  // namespace cca::search
