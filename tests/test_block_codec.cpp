// The block-structured serving codec (search/block_postings.hpp): encode/
// decode round trips against the varint ablation baseline across 200
// fuzz seeds and every width extreme, block-max intersection equivalence
// against std::set_intersection, decoded-block-cache semantics (warm ==
// cold, capacity overflow, epoch invalidation), and engine-level
// codec invariance — QueryCost must be identical under a block engine and
// a varint engine for any query and placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/placement_map.hpp"
#include "search/block_postings.hpp"
#include "search/compression.hpp"
#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca::search {
namespace {

std::vector<std::uint64_t> random_ids(common::Rng& rng, std::size_t n,
                                      std::uint64_t max_gap) {
  std::vector<std::uint64_t> ids(n);
  std::uint64_t acc = rng() % 64;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1 + rng() % max_gap;
    ids[i] = acc;
  }
  return ids;
}

void expect_round_trip(const std::vector<std::uint64_t>& ids,
                       const char* label) {
  const BlockPostings blocks = BlockPostings::encode(ids);
  ASSERT_EQ(blocks.size(), ids.size()) << label;
  std::vector<std::uint64_t> out;
  blocks.decode_all(out);
  EXPECT_EQ(out, ids) << label;

  // Per-block decode must concatenate to the same sequence.
  std::vector<std::uint64_t> concat;
  std::uint64_t buffer[BlockPostings::kBlockSize];
  for (std::size_t b = 0; b < blocks.num_blocks(); ++b) {
    const std::size_t n = blocks.decode_block(b, buffer);
    ASSERT_EQ(n, blocks.block(b).count) << label;
    concat.insert(concat.end(), buffer, buffer + n);
  }
  EXPECT_EQ(concat, ids) << label;

  // The skip index must describe each block exactly.
  for (std::size_t b = 0; b < blocks.num_blocks(); ++b) {
    const auto& meta = blocks.block(b);
    const std::size_t begin = b * BlockPostings::kBlockSize;
    EXPECT_EQ(meta.first, ids[begin]) << label;
    EXPECT_EQ(meta.last,
              ids[std::min(begin + BlockPostings::kBlockSize, ids.size()) - 1])
        << label;
  }

  // Both codecs must decode to the identical sequence.
  EXPECT_EQ(decompress_postings(compress_postings(ids)), ids) << label;
}

TEST(BlockCodec, RoundTripExtremes) {
  expect_round_trip({}, "empty");
  expect_round_trip({0}, "singleton zero");
  expect_round_trip({std::numeric_limits<std::uint64_t>::max()},
                    "singleton max");

  // Exact block-boundary lengths.
  common::Rng rng(1);
  for (std::size_t n : {127u, 128u, 129u, 255u, 256u, 257u})
    expect_round_trip(random_ids(rng, n, 1000), "boundary length");

  // Dense consecutive run: every gap is 1, so every block is width 0.
  std::vector<std::uint64_t> dense(1000);
  for (std::size_t i = 0; i < dense.size(); ++i) dense[i] = 42 + i;
  const BlockPostings dense_blocks = BlockPostings::encode(dense);
  for (std::size_t b = 0; b < dense_blocks.num_blocks(); ++b)
    EXPECT_EQ(dense_blocks.block(b).width, 0);
  expect_round_trip(dense, "dense run");

  // Huge 64-bit gaps force the width-64 raw-word path.
  expect_round_trip({5, 5 + (1ULL << 63), ~0ULL}, "width-64 gaps");
}

TEST(BlockCodec, RoundTripFuzz200Seeds) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    common::Rng rng(seed);
    const std::size_t n = rng() % 700;
    // Rotate the gap regime so every width bucket is exercised.
    const std::uint64_t max_gap = 1ULL << (rng() % 40);
    expect_round_trip(random_ids(rng, n, max_gap), "fuzz");
  }
}

TEST(BlockCodec, EncodeRejectsNonIncreasingIds) {
  EXPECT_THROW(BlockPostings::encode({3, 3}), common::Error);
  EXPECT_THROW(BlockPostings::encode({3, 2}), common::Error);
}

TEST(BlockCodec, CodecNamesAreStable) {
  EXPECT_STREQ(posting_codec_name(PostingCodec::kBlock), "block");
  EXPECT_STREQ(posting_codec_name(PostingCodec::kVarint), "varint");
}

// ---------------------------------------------------------------------------
// Block-max intersection.
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> reference_intersection(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(BlockIntersect, MatchesReferenceAcrossSizeRatios) {
  // Ratios straddle the skip/merge mode switch (list > 8x candidates) so
  // both kernels run; overlap is forced by drawing from one ID universe.
  const struct {
    std::size_t na, nb;
  } cells[] = {{0, 500},   {1, 500},    {500, 0},    {200, 200},
               {400, 900}, {100, 5000}, {30, 20000}, {128, 128}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const auto& cell : cells) {
      common::Rng rng(seed * 131 + cell.na);
      std::vector<std::uint64_t> universe =
          random_ids(rng, std::max<std::size_t>(cell.nb, 32) * 2, 16);
      auto sample = [&](std::size_t n) {
        std::vector<std::uint64_t> ids;
        for (std::uint64_t id : universe) {
          if (ids.size() == n) break;
          if (rng() % 2 == 0) ids.push_back(id);
        }
        return ids;
      };
      const std::vector<std::uint64_t> a = sample(cell.na);
      const std::vector<std::uint64_t> b = sample(cell.nb);
      const BlockPostings blocks = BlockPostings::encode(b);
      std::vector<std::uint64_t> got;
      intersect_with_blocks(a.data(), a.size(), blocks, 7, nullptr, got);
      EXPECT_EQ(got, reference_intersection(a, b))
          << "na=" << a.size() << " nb=" << b.size() << " seed=" << seed;
    }
  }
}

TEST(BlockIntersect, WarmCacheIsByteIdenticalToCold) {
  common::Rng rng(9);
  const std::vector<std::uint64_t> a = random_ids(rng, 300, 50);
  const std::vector<std::uint64_t> b = random_ids(rng, 6000, 8);
  const BlockPostings blocks = BlockPostings::encode(b);

  std::vector<std::uint64_t> cold;
  intersect_with_blocks(a.data(), a.size(), blocks, 3, nullptr, cold);

  DecodedBlockCache cache;
  cache.begin_epoch(1);
  std::vector<std::uint64_t> first, second;
  intersect_with_blocks(a.data(), a.size(), blocks, 3, &cache, first);
  EXPECT_GT(cache.misses(), 0u);
  intersect_with_blocks(a.data(), a.size(), blocks, 3, &cache, second);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(first, cold);
  EXPECT_EQ(second, cold);
}

// ---------------------------------------------------------------------------
// DecodedBlockCache.
// ---------------------------------------------------------------------------

TEST(DecodedBlockCache, TinyCapacityFallsBackCorrectly) {
  common::Rng rng(11);
  const std::vector<std::uint64_t> ids = random_ids(rng, 1000, 100);
  const BlockPostings blocks = BlockPostings::encode(ids);
  ASSERT_GT(blocks.num_blocks(), 2u);

  DecodedBlockCache cache(2);  // admits only the first two blocks
  cache.begin_epoch(1);
  std::vector<std::uint64_t> concat;
  std::uint64_t fallback[BlockPostings::kBlockSize];
  for (std::size_t b = 0; b < blocks.num_blocks(); ++b) {
    std::size_t count = 0;
    const std::uint64_t* decoded = cache.get(
        0, static_cast<std::uint32_t>(b), blocks, &count, fallback);
    concat.insert(concat.end(), decoded, decoded + count);
  }
  EXPECT_EQ(concat, ids);
  EXPECT_EQ(cache.blocks_cached(), 2u);

  // A second sweep hits the two admitted blocks, falls back for the rest —
  // and still reproduces the exact sequence.
  concat.clear();
  for (std::size_t b = 0; b < blocks.num_blocks(); ++b) {
    std::size_t count = 0;
    const std::uint64_t* decoded = cache.get(
        0, static_cast<std::uint32_t>(b), blocks, &count, fallback);
    concat.insert(concat.end(), decoded, decoded + count);
  }
  EXPECT_EQ(concat, ids);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(DecodedBlockCache, EpochTokenChangeInvalidates) {
  common::Rng rng(12);
  const std::vector<std::uint64_t> ids = random_ids(rng, 300, 10);
  const BlockPostings blocks = BlockPostings::encode(ids);
  DecodedBlockCache cache;
  std::uint64_t fallback[BlockPostings::kBlockSize];
  std::size_t count = 0;

  cache.begin_epoch(1);
  cache.get(5, 0, blocks, &count, fallback);
  EXPECT_EQ(cache.blocks_cached(), 1u);
  cache.begin_epoch(1);  // same token: entries survive
  EXPECT_EQ(cache.blocks_cached(), 1u);
  cache.get(5, 0, blocks, &count, fallback);
  EXPECT_EQ(cache.hits(), 1u);
  cache.begin_epoch(2);  // new token: wholesale invalidation
  EXPECT_EQ(cache.blocks_cached(), 0u);
  const std::uint64_t* decoded = cache.get(5, 0, blocks, &count, fallback);
  EXPECT_EQ(std::vector<std::uint64_t>(decoded, decoded + count),
            std::vector<std::uint64_t>(ids.begin(), ids.begin() + count));
}

TEST(PlacementMapCacheToken, DistinctAcrossEpochsAndMaps) {
  core::PlacementMapConfig cfg;
  cfg.num_nodes = 4;
  const core::PlacementMap a = core::PlacementMap::hashed(100, cfg);
  const core::PlacementMap b = core::PlacementMap::hashed(100, cfg);
  EXPECT_NE(a.cache_token(), 0u);
  // Identical configs still get distinct tokens: the token identifies the
  // epoch OBJECT, so two maps never share cache entries.
  EXPECT_NE(a.cache_token(), b.cache_token());
  const core::PlacementMap c = a.rebalanced(5);
  EXPECT_NE(c.cache_token(), a.cache_token());
}

// ---------------------------------------------------------------------------
// CompressedIndex + engine-level codec invariance.
// ---------------------------------------------------------------------------

search::InvertedIndex small_index(std::uint64_t seed) {
  trace::CorpusConfig cfg;
  cfg.num_documents = 600;
  cfg.vocabulary_size = 400;
  cfg.mean_distinct_words = 50.0;
  cfg.seed = seed;
  return search::InvertedIndex::build(trace::Corpus::generate(cfg));
}

TEST(CompressedIndex, AgreesWithIndexUnderBothCodecs) {
  const search::InvertedIndex index = small_index(21);
  for (PostingCodec codec : {PostingCodec::kBlock, PostingCodec::kVarint}) {
    const CompressedIndex compressed(index, codec);
    EXPECT_EQ(compressed.codec(), codec);
    ASSERT_EQ(compressed.vocabulary_size(), index.vocabulary_size());
    std::size_t max_postings = 0;
    std::vector<std::uint64_t> decoded;
    for (trace::KeywordId k = 0; k < index.vocabulary_size(); ++k) {
      const auto& expected = index.postings(k).ids();
      EXPECT_EQ(compressed.postings_count(k), expected.size());
      max_postings = std::max(max_postings, expected.size());
      compressed.decode(k, decoded);
      EXPECT_EQ(decoded, expected) << "keyword " << k;
    }
    EXPECT_EQ(compressed.max_postings(), max_postings);
    EXPECT_GT(compressed.encoded_bytes(), 0u);
  }
}

TEST(QueryEngineCodec, CostsAreCodecInvariant) {
  const search::InvertedIndex index = small_index(22);
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 400;
  wcfg.num_topics = 40;
  wcfg.seed = 22;
  const trace::QueryTrace trace = trace::WorkloadModel(wcfg).generate(500, 5);

  core::PlacementMapConfig map_cfg;
  map_cfg.num_nodes = 7;
  map_cfg.degree = 1;
  const core::PlacementMap map = core::PlacementMap::hashed(400, map_cfg);
  const auto placement = [&map](trace::KeywordId k) {
    return map.resolve(k);
  };

  const QueryEngine block_engine(index, PostingCodec::kBlock);
  const QueryEngine varint_engine(index, PostingCodec::kVarint);
  QueryScratch block_scratch, varint_scratch;
  block_scratch.begin_epoch(map.cache_token());
  varint_scratch.begin_epoch(map.cache_token());

  for (std::size_t q = 0; q < trace.size(); ++q) {
    const QueryCost b = block_engine.execute_intersection(
        trace[q], placement, {}, &block_scratch);
    const QueryCost v = varint_engine.execute_intersection(
        trace[q], placement, {}, &varint_scratch);
    EXPECT_EQ(b.bytes_transferred, v.bytes_transferred) << "query " << q;
    EXPECT_EQ(b.messages, v.messages) << "query " << q;
    EXPECT_EQ(b.result_size, v.result_size) << "query " << q;
    EXPECT_EQ(b.local, v.local) << "query " << q;

    const QueryCost bu =
        block_engine.execute_union(trace[q], placement, {}, &block_scratch);
    const QueryCost vu =
        varint_engine.execute_union(trace[q], placement, {}, &varint_scratch);
    EXPECT_EQ(bu.bytes_transferred, vu.bytes_transferred) << "query " << q;
    EXPECT_EQ(bu.result_size, vu.result_size) << "query " << q;

    const QueryCost bb = block_engine.execute_intersection_bloom(
        trace[q], placement, 8.0, {}, &block_scratch);
    const QueryCost vb = varint_engine.execute_intersection_bloom(
        trace[q], placement, 8.0, {}, &varint_scratch);
    EXPECT_EQ(bb.bytes_transferred, vb.bytes_transferred) << "query " << q;
    EXPECT_EQ(bb.result_size, vb.result_size) << "query " << q;
  }
}

TEST(QueryEngineCodec, ScratchAndScratchlessAgree) {
  // Passing no scratch must give the same answers (per-call local state).
  const search::InvertedIndex index = small_index(23);
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 400;
  wcfg.num_topics = 40;
  wcfg.seed = 23;
  const trace::QueryTrace trace = trace::WorkloadModel(wcfg).generate(100, 6);
  core::PlacementMapConfig map_cfg;
  map_cfg.num_nodes = 5;
  const core::PlacementMap map = core::PlacementMap::hashed(400, map_cfg);
  const auto placement = [&map](trace::KeywordId k) {
    return map.resolve(k);
  };
  const QueryEngine engine(index);
  QueryScratch scratch;
  scratch.begin_epoch(map.cache_token());
  for (std::size_t q = 0; q < trace.size(); ++q) {
    const QueryCost with =
        engine.execute_intersection(trace[q], placement, {}, &scratch);
    const QueryCost without =
        engine.execute_intersection(trace[q], placement);
    EXPECT_EQ(with.bytes_transferred, without.bytes_transferred);
    EXPECT_EQ(with.result_size, without.result_size);
  }
}

TEST(QueryEngineCodec, CodecIsAConstructorValue) {
  // Block unless the engine is built with another codec; the keyword-size
  // override serves from block too.
  const search::InvertedIndex index = small_index(24);
  EXPECT_EQ(QueryEngine(index).compressed().codec(), PostingCodec::kBlock);
  EXPECT_EQ(QueryEngine(index, PostingCodec::kVarint).compressed().codec(),
            PostingCodec::kVarint);
  EXPECT_EQ(QueryEngine(index, std::vector<std::uint64_t>(
                                   index.vocabulary_size(), 8))
                .compressed()
                .codec(),
            PostingCodec::kBlock);
}

}  // namespace
}  // namespace cca::search
