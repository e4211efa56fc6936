// Inverted-index substrate for the full-text search case study.
//
// Mirrors the paper's prototype (Sec. 4.1): each posting is an 8-byte page
// ID (MD5-derived); ranking payloads (frequencies, positions, digests) are
// deliberately omitted because they do not affect placement. A keyword's
// object size s(i) is exactly its posting-list byte size.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/documents.hpp"
#include "trace/trace.hpp"

namespace cca::search {

/// Sorted list of 8-byte page IDs for one keyword.
class PostingList {
 public:
  PostingList() = default;
  /// Takes ownership of `doc_ids`; sorts and dedupes.
  explicit PostingList(std::vector<std::uint64_t> doc_ids);

  std::size_t size() const { return doc_ids_.size(); }
  bool empty() const { return doc_ids_.empty(); }
  /// Paper convention: 8 bytes per posting.
  std::uint64_t size_bytes() const { return 8 * doc_ids_.size(); }
  const std::vector<std::uint64_t>& ids() const { return doc_ids_; }
  bool contains(std::uint64_t id) const;

 private:
  std::vector<std::uint64_t> doc_ids_;
};

/// Intersection of two posting lists (sorted-merge with galloping when the
/// sizes are lopsided) — the core operation of multi-keyword search.
PostingList intersect(const PostingList& a, const PostingList& b);

/// Union of two posting lists (for union-like aggregation operations).
PostingList unite(const PostingList& a, const PostingList& b);

/// Allocation-free span forms of the kernels above, for callers that own
/// reusable scratch (search::QueryScratch): `out` is clear()ed and filled,
/// growing only past its high-water mark. Inputs must be sorted and unique
/// and must not alias `out`. intersect_into picks sorted-merge or
/// galloping by the same 16x size-ratio rule as intersect().
void intersect_into(const std::uint64_t* a, std::size_t na,
                    const std::uint64_t* b, std::size_t nb,
                    std::vector<std::uint64_t>& out);
void unite_into(const std::uint64_t* a, std::size_t na,
                const std::uint64_t* b, std::size_t nb,
                std::vector<std::uint64_t>& out);

class ProfileCache;

/// Keyword -> posting-list map over a fixed vocabulary. Immutable once
/// built; it also owns the bounded memo of QueryProfiles evaluated against
/// it (search/query_profile.hpp), which copies share — equal contents give
/// equal profiles.
class InvertedIndex {
 public:
  InvertedIndex();

  /// Builds the index for every vocabulary keyword of `corpus`.
  static InvertedIndex build(const trace::Corpus& corpus);

  std::size_t vocabulary_size() const { return lists_.size(); }
  const PostingList& postings(trace::KeywordId k) const;

  /// s(i) for every keyword: posting-list byte sizes.
  std::vector<std::uint64_t> index_sizes() const;

  /// Total bytes across all posting lists.
  std::uint64_t total_bytes() const;

 private:
  friend class QueryProfile;

  std::vector<PostingList> lists_;
  std::shared_ptr<ProfileCache> profiles_;
};

}  // namespace cca::search
