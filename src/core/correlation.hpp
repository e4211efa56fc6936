// From query trace to CCA inputs: correlations r(i,j), pair costs w(i,j),
// and the importance ranking for partial optimization.
//
// Operation model (Sec. 3.2): for intersection-like operations a
// >2-keyword query is approximated by its two smallest-index keywords, so
// r(i,j) becomes "the probability that i and j are the two smallest
// objects requested in an operation" and w(i,j) = min(s(i), s(j)) — the
// bytes shipped when the smaller index travels to the larger one's node.
// The kAllPairs model keeps the base definition (every co-requested pair),
// which is exact for two-object operations.
//
// Importance ranking (Sec. 4.2): rank pairs by their communication cost
// r(i,j) * w(i,j); a keyword's importance is its first appearance in that
// pair ranking; keywords that never communicate rank last (largest index
// first, since they still consume placement-relevant space).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "trace/pair_stats.hpp"
#include "trace/stream_miner.hpp"
#include "trace/trace.hpp"

namespace cca::core {

enum class OperationModel {
  kAllPairs,      // base definition: every pair of every query
  kSmallestPair,  // Sec. 3.2 intersection adjustment (the paper's choice)
};

/// trace::PairMode equivalent of an OperationModel (the trace layer keeps
/// its own enum so it does not depend on core/).
trace::PairMode pair_mode_of(OperationModel model);

/// Which correlation miner feeds the pipeline.
///   kExact  — PairCounter: one hash slot per distinct pair (exact counts,
///             memory grows with the pair vocabulary);
///   kSketch — StreamMiner: Count-Min pair sketch + bounded candidate set
///             (bounded memory, top-k recall ≥ the sketch's guarantee).
struct MinerOptions {
  enum class Kind { kExact, kSketch };
  Kind kind = Kind::kExact;
  trace::StreamMinerConfig sketch;  // geometry, used when kind == kSketch

  /// Parses "exact"/"sketch"; returns false on anything else.
  static bool parse_kind(const std::string& name, Kind* out);
};

/// A correlated keyword pair in vocabulary space.
struct KeywordPairWeight {
  trace::KeywordId a = 0;
  trace::KeywordId b = 0;
  double r = 0.0;  // correlation (empirical probability)
  double w = 0.0;  // communication bytes when separated

  double cost() const { return r * w; }
};

/// Builds r and w for every observed pair. `index_sizes` (bytes, indexed
/// by keyword) provides both the smallest-pair selection and w.
std::vector<KeywordPairWeight> build_pair_weights(
    const trace::QueryTrace& trace,
    const std::vector<std::uint64_t>& index_sizes, OperationModel model);

/// Sketch path: r and w for the miner's current top candidate pairs
/// (estimate desc, pair asc — at most the miner's top_pairs entries).
/// Probabilities use the miner's decayed query weight, so a drift-decayed
/// miner yields exponentially-weighted correlations.
std::vector<KeywordPairWeight> build_pair_weights(
    const trace::StreamMiner& miner,
    const std::vector<std::uint64_t>& index_sizes);

/// Unified entry point: mines `trace` with the selected miner and returns
/// pair weights. kExact reproduces build_pair_weights(trace, ...) exactly;
/// kSketch mines a fresh StreamMiner (sharded, deterministic for any
/// thread count) and returns its candidates.
std::vector<KeywordPairWeight> mine_pair_weights(
    const trace::QueryTrace& trace,
    const std::vector<std::uint64_t>& index_sizes, OperationModel model,
    const MinerOptions& miner);

/// Multi-keyword operations kept whole: per observed query shape, its
/// distinct keywords and the rate at which it was asked. This is the
/// information the pairwise collapse throws away — the input of the
/// hypergraph strategy (core/hypergraph.hpp). Stored flat (one allocation
/// per field, not one per edge): edge e's pins are
/// pins[offsets[e], offsets[e + 1]), distinct and sorted ascending, and
/// weights[e] is its empirical rate (queries / trace).
struct KeywordHyperedges {
  std::vector<std::uint32_t> offsets{0};
  std::vector<trace::KeywordId> pins;
  std::vector<double> weights;

  std::size_t size() const { return weights.size(); }
  std::span<const trace::KeywordId> pins_of(std::size_t e) const {
    return {pins.data() + offsets[e], offsets[e + 1] - offsets[e]};
  }
};

/// Aggregates the trace's multi-keyword queries into weighted hyperedges:
/// one edge per distinct keyword set, weight = (occurrences / trace
/// size). Single-keyword queries are dropped (they never communicate).
/// Deterministic: edges are sorted by pin set.
KeywordHyperedges build_hyperedges(const trace::QueryTrace& trace);

/// Sec. 4.2 keyword importance ranking (most important first). Covers the
/// whole vocabulary.
std::vector<trace::KeywordId> importance_ranking(
    const std::vector<KeywordPairWeight>& pairs,
    const std::vector<std::uint64_t>& index_sizes);

/// The placement-independent half of partial optimization: mined pair
/// weights, the importance ranking and the trace's hyperedges. They depend
/// only on (trace content, index_sizes, operation model, miner options),
/// so every PartialOptimizer built from one trace can share one copy.
class CorrelationArtifacts {
 public:
  /// The artifacts of exactly this key, shared with every live holder of
  /// an equal key and built on a miss. Concurrent callers with one key
  /// share one build; the others wait for it. The process-wide memo keeps
  /// only weak references, so artifacts live exactly as long as their last
  /// holder. Keys are compared as a 128-bit digest of the key fields, so
  /// an entry never copies the trace; the trace enters through its running
  /// QueryTrace::digest(), so a lookup reads no query. Safe to call from
  /// pool tasks.
  /// Records core.correlation.builds and core.correlation.hits.
  static std::shared_ptr<const CorrelationArtifacts> of(
      const trace::QueryTrace& trace,
      const std::vector<std::uint64_t>& index_sizes, OperationModel model,
      const MinerOptions& miner);

  const std::vector<std::uint64_t>& index_sizes() const { return index_sizes_; }
  /// mine_pair_weights(trace, index_sizes, model, miner).
  const std::vector<KeywordPairWeight>& pairs() const { return pairs_; }
  /// importance_ranking(pairs(), index_sizes()).
  const std::vector<trace::KeywordId>& ranking() const { return ranking_; }
  /// build_hyperedges(trace).
  const KeywordHyperedges& hyperedges() const { return hyperedges_; }

 private:
  friend class ArtifactMemo;

  CorrelationArtifacts() = default;
  void build(const trace::QueryTrace& trace,
             const std::vector<std::uint64_t>& index_sizes,
             OperationModel model, const MinerOptions& miner);

  std::vector<std::uint64_t> index_sizes_;
  std::vector<KeywordPairWeight> pairs_;
  std::vector<trace::KeywordId> ranking_;
  KeywordHyperedges hyperedges_;
};

/// One point of the Fig. 5 dominance curve.
struct DominancePoint {
  std::size_t rank = 0;                  // number of top keywords included
  double cumulative_size_fraction = 0.0; // of total index size
  double cumulative_cost_fraction = 0.0; // of total pair communication cost
};

/// Cumulative index-size and communication-cost coverage of the top-ranked
/// keywords, sampled at `sample_points` evenly spaced ranks (plus the final
/// full-vocabulary point). A pair's cost counts once both endpoints are in
/// the prefix.
std::vector<DominancePoint> dominance_curve(
    const std::vector<trace::KeywordId>& ranking,
    const std::vector<KeywordPairWeight>& pairs,
    const std::vector<std::uint64_t>& index_sizes, std::size_t sample_points);

}  // namespace cca::core
