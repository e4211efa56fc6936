// Query-trace data model.
//
// A trace is the stream of multi-object operations driving the whole
// study: for the paper's case study, multi-keyword search queries. Each
// query holds the distinct keyword IDs it requests. Traces are the input
// to correlation estimation (core/correlation.hpp) and to the replay
// evaluation (sim/replay.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cca::trace {

using KeywordId = std::uint32_t;

/// Canonical printable name of a keyword — used wherever a stable string
/// identity is needed (MD5 hash placement, page-ID style digests).
std::string keyword_name(KeywordId id);

/// A running 128-bit digest of a sequence of values: two polynomial hashes
/// over the prime field 2^61 - 1 with different bases. Callers that
/// length-prefix their variable-length parts make every sequence a
/// distinct polynomial, so for a base drawn at random two sequences of at
/// most n values collide in one lane with probability <= n / 2^61; with
/// fixed bases that bound is a heuristic, fine for inputs nobody crafts
/// against it. One multiply per value and lane keeps a digest about as
/// cheap as reading its input once.
class KeyDigest {
 public:
  using Value = std::array<std::uint64_t, 2>;

  void add32(std::uint32_t v) {
    lo_ = step(lo_, kBaseLo, v);
    hi_ = step(hi_, kBaseHi, v);
  }
  void add64(std::uint64_t v) {
    add32(static_cast<std::uint32_t>(v >> 32));
    add32(static_cast<std::uint32_t>(v));
  }
  Value value() const { return {canonical(lo_), canonical(hi_)}; }

 private:
  static constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;
  // Bases below 2^60 keep every state below 2^62 with one fold per step.
  static constexpr std::uint64_t kBaseLo = 0x0B5AD4ECEDA1CE2Aull;
  static constexpr std::uint64_t kBaseHi = 0x0F3D5B79A2C4E6F1ull;

  /// h * base + v, folded once: 2^61 = 1 in the field, so adding the bits
  /// above 61 onto the low ones keeps the residue. For h < 2^62 the
  /// product is below 2^122 and the result below 2^62 again.
  static std::uint64_t step(std::uint64_t h, std::uint64_t base,
                            std::uint32_t v) {
    const unsigned __int128 x = static_cast<unsigned __int128>(h) * base + v;
    return static_cast<std::uint64_t>(x & kPrime) +
           static_cast<std::uint64_t>(x >> 61);
  }
  static std::uint64_t canonical(std::uint64_t h) {
    h = (h & kPrime) + (h >> 61);
    return h >= kPrime ? h - kPrime : h;
  }

  // A nonzero start, so leading zero values still change the digest.
  std::uint64_t lo_ = 1, hi_ = 1;
};

/// One multi-keyword operation. Keywords are distinct and sorted.
struct Query {
  std::vector<KeywordId> keywords;

  std::size_t size() const { return keywords.size(); }
};

/// An ordered collection of queries over a fixed vocabulary [0, vocab_size).
class QueryTrace {
 public:
  QueryTrace() = default;
  explicit QueryTrace(std::size_t vocabulary_size)
      : vocabulary_size_(vocabulary_size) {}

  /// Appends a query; keywords are deduplicated and sorted, and must lie
  /// within the vocabulary. Empty queries are rejected. The only mutator:
  /// it also folds the canonical query into digest().
  void add_query(std::vector<KeywordId> keywords);

  std::size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }
  std::size_t vocabulary_size() const { return vocabulary_size_; }
  const Query& operator[](std::size_t i) const { return queries_[i]; }
  const std::vector<Query>& queries() const { return queries_; }

  /// Mean number of keywords per query (the paper's trace: 2.54).
  double mean_query_length() const;

  /// Number of queries with >= 2 keywords (only those create inter-object
  /// communication).
  std::size_t multi_keyword_queries() const;

  /// Per-keyword query frequency (how many queries contain the keyword).
  std::vector<std::size_t> keyword_frequencies() const;

  /// Digest of the content: each query's length and sorted keywords, in
  /// order. Kept up to date by add_query, so reading it costs O(1), and
  /// equal content (copies included) gives equal digests. Content memos
  /// key on it instead of walking the queries.
  KeyDigest::Value digest() const { return digest_.value(); }

 private:
  std::size_t vocabulary_size_ = 0;
  std::vector<Query> queries_;
  KeyDigest digest_;
};

}  // namespace cca::trace
