// Posting-list compression: delta + varint coding over dense ordinals.
//
// The paper's prototype stores raw 8-byte page IDs per posting (Sec. 4.1).
// Production engines instead assign dense internal document ordinals and
// delta-varint-code the gaps, which shrinks both storage s(i) and shipped
// bytes w(i,j) — and therefore can change what the optimizer decides. This
// module provides the codec and the compressed size model; the
// compression ablation bench quantifies the placement impact.
//
// Codec: LEB128 varints over first-difference gaps of the ordinal-sorted
// list, with the posting count as a leading varint.
#pragma once

#include <cstdint>
#include <vector>

#include "search/inverted_index.hpp"

namespace cca::search {

/// Number of bytes varint-encoding `v` takes (1..10).
std::size_t varint_length(std::uint64_t v);

/// Appends the LEB128 encoding of `v` to `out`.
void varint_encode(std::uint64_t v, std::vector<std::uint8_t>& out);

/// Decodes one varint from [*p, end); advances *p past it. Throws
/// common::Error on truncated or >10-byte input.
std::uint64_t varint_decode(const std::uint8_t** p, const std::uint8_t* end);

/// Encodes a strictly increasing ID sequence as count + varint gaps.
std::vector<std::uint8_t> compress_postings(
    const std::vector<std::uint64_t>& sorted_ids);

/// Inverse of compress_postings.
std::vector<std::uint64_t> decompress_postings(
    const std::vector<std::uint8_t>& bytes);

/// decompress_postings into a caller-owned buffer: reuses `out`'s
/// capacity, so steady-state decode loops (the varint engine's serving
/// lane) allocate nothing once the buffer reached its high-water mark.
void decompress_postings_into(const std::vector<std::uint8_t>& bytes,
                              std::vector<std::uint64_t>& out);

/// Per-keyword compressed byte sizes for a whole index, computed after
/// remapping the (MD5-random) document IDs to dense ordinals 0..D-1 — the
/// remap is what makes gaps small, exactly as a production docid space
/// would. Returned sizes exclude the shared remap table.
std::vector<std::uint64_t> compressed_index_sizes(const InvertedIndex& index);

}  // namespace cca::search
