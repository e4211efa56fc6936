// CorrelationArtifacts: the per-trace pairs, ranking and hyperedges every
// PartialOptimizer of one trace shares. Hits need an equal key, a changed
// key always misses, concurrent constructors build once, and nothing
// outlives the last optimizer holding it.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "core/correlation.hpp"
#include "core/partial_optimizer.hpp"
#include "trace/workload.hpp"

namespace cca::core {
namespace {

constexpr std::size_t kVocab = 800;

trace::QueryTrace make_trace(std::size_t queries = 6000) {
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = kVocab;
  cfg.num_topics = 40;
  cfg.topic_size = 8;
  cfg.seed = 11;
  return trace::WorkloadModel(cfg).generate(queries, 23);
}

std::vector<std::uint64_t> make_sizes() {
  std::vector<std::uint64_t> sizes(kVocab);
  for (std::size_t k = 0; k < kVocab; ++k)
    sizes[k] = 8 * (1 + kVocab / (k + 1));  // Zipf-ish index sizes
  return sizes;
}

PartialOptimizerConfig config(std::size_t scope = 200) {
  PartialOptimizerConfig cfg;
  cfg.num_nodes = 6;
  cfg.scope = scope;
  cfg.rounding.trials = 4;
  return cfg;
}

/// Enables metrics, zeroes them, and reads the memo's counters.
class MemoCounters {
 public:
  MemoCounters() {
    auto& reg = common::MetricsRegistry::global();
    reg.set_enabled(true);
    reg.reset();
  }
  ~MemoCounters() { common::MetricsRegistry::global().set_enabled(false); }
  std::int64_t builds() const { return read("core.correlation.builds"); }
  std::int64_t hits() const { return read("core.correlation.hits"); }

 private:
  static std::int64_t read(const char* name) {
    return common::MetricsRegistry::global().counter(name).total();
  }
};

TEST(CorrelationMemo, EqualContentAndCopiesHit) {
  const MemoCounters counters;
  const trace::QueryTrace trace = make_trace();
  const trace::QueryTrace regenerated = make_trace();  // equal content
  const trace::QueryTrace copy = trace;
  const std::vector<std::uint64_t> sizes = make_sizes();

  const PartialOptimizer first(trace, sizes, config(100));
  const PartialOptimizer second(regenerated, sizes, config(300));
  const PartialOptimizer third(copy, sizes, config(200));
  EXPECT_EQ(counters.builds(), 1);
  EXPECT_EQ(counters.hits(), 2);
  // One shared copy, never copied into an optimizer.
  EXPECT_EQ(&first.all_pairs(), &second.all_pairs());
  EXPECT_EQ(&first.all_pairs(), &third.all_pairs());
}

TEST(CorrelationMemo, AnyKeyChangeMisses) {
  const MemoCounters counters;
  const trace::QueryTrace trace = make_trace();
  const std::vector<std::uint64_t> sizes = make_sizes();
  const PartialOptimizer base(trace, sizes, config());
  ASSERT_EQ(counters.builds(), 1);

  std::vector<std::unique_ptr<PartialOptimizer>> held;
  const auto expect_miss = [&](const trace::QueryTrace& t,
                               const std::vector<std::uint64_t>& s,
                               const PartialOptimizerConfig& cfg,
                               const char* what) {
    const std::int64_t before = counters.builds();
    held.push_back(std::make_unique<PartialOptimizer>(t, s, cfg));
    EXPECT_EQ(counters.builds(), before + 1) << what;
    EXPECT_NE(&held.back()->all_pairs(), &base.all_pairs()) << what;
  };

  trace::QueryTrace longer = trace;
  longer.add_query({1, 2});
  expect_miss(longer, sizes, config(), "after add_query");

  std::vector<std::uint64_t> resized = sizes;
  resized[7] += 1;
  expect_miss(trace, resized, config(), "different index_sizes");

  PartialOptimizerConfig all_pairs = config();
  all_pairs.operation_model = OperationModel::kAllPairs;
  expect_miss(trace, sizes, all_pairs, "different operation model");

  PartialOptimizerConfig sketch = config();
  sketch.miner.kind = MinerOptions::Kind::kSketch;
  expect_miss(trace, sizes, sketch, "sketch miner");
  sketch.miner.sketch.top_pairs /= 2;
  expect_miss(trace, sizes, sketch, "different sketch geometry");

  // The exact miner never reads the sketch geometry, so it is no key.
  PartialOptimizerConfig exact = config();
  exact.miner.sketch.top_pairs /= 2;
  const PartialOptimizer same(trace, sizes, exact);
  EXPECT_EQ(&same.all_pairs(), &base.all_pairs());
  EXPECT_EQ(counters.hits(), 1);
}

TEST(CorrelationMemo, QueryBoundariesArePartOfTheKey) {
  // Same keyword stream, different queries: {1,2},{3} against {1},{2,3}.
  const MemoCounters counters;
  trace::QueryTrace pair_first(kVocab), pair_last(kVocab);
  pair_first.add_query({1, 2});
  pair_first.add_query({3});
  pair_last.add_query({1});
  pair_last.add_query({2, 3});
  const std::vector<std::uint64_t> sizes = make_sizes();
  const auto a = CorrelationArtifacts::of(
      pair_first, sizes, OperationModel::kSmallestPair, MinerOptions{});
  const auto b = CorrelationArtifacts::of(
      pair_last, sizes, OperationModel::kSmallestPair, MinerOptions{});
  EXPECT_NE(a, b);
  EXPECT_EQ(counters.builds(), 2);
  EXPECT_EQ(counters.hits(), 0);
  ASSERT_EQ(a->pairs().size(), 1u);
  EXPECT_EQ(a->pairs()[0].a, 1u);
  ASSERT_EQ(b->pairs().size(), 1u);
  EXPECT_EQ(b->pairs()[0].a, 2u);
}

TEST(CorrelationMemo, ArtifactsEqualTheStandaloneFunctions) {
  const trace::QueryTrace trace = make_trace();
  const std::vector<std::uint64_t> sizes = make_sizes();
  MinerOptions miner;
  const auto artifacts = CorrelationArtifacts::of(
      trace, sizes, OperationModel::kSmallestPair, miner);
  const std::vector<KeywordPairWeight> pairs =
      mine_pair_weights(trace, sizes, OperationModel::kSmallestPair, miner);
  ASSERT_EQ(artifacts->pairs().size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(artifacts->pairs()[i].a, pairs[i].a);
    EXPECT_EQ(artifacts->pairs()[i].b, pairs[i].b);
    EXPECT_EQ(artifacts->pairs()[i].r, pairs[i].r);
    EXPECT_EQ(artifacts->pairs()[i].w, pairs[i].w);
  }
  EXPECT_EQ(artifacts->ranking(), importance_ranking(pairs, sizes));
  const KeywordHyperedges edges = build_hyperedges(trace);
  EXPECT_EQ(artifacts->hyperedges().offsets, edges.offsets);
  EXPECT_EQ(artifacts->hyperedges().pins, edges.pins);
  EXPECT_EQ(artifacts->hyperedges().weights, edges.weights);
  EXPECT_EQ(artifacts->index_sizes(), sizes);
}

TEST(CorrelationMemo, ConcurrentConstructorsBuildOnce) {
  const MemoCounters counters;
  const trace::QueryTrace trace = make_trace();
  const std::vector<std::uint64_t> sizes = make_sizes();
  common::set_global_threads(4);
  const std::vector<std::unique_ptr<PartialOptimizer>> optimizers =
      common::parallel_map(8, [&](std::size_t) {
        return std::make_unique<PartialOptimizer>(trace, sizes, config());
      });
  const std::vector<std::vector<NodeId>> plans =
      common::parallel_map(8, [&](std::size_t i) {
        return optimizers[i]->run("lprr").keyword_to_node;
      });
  common::set_global_threads(1);
  EXPECT_EQ(counters.builds(), 1);
  EXPECT_EQ(counters.hits(), 7);
  for (std::size_t i = 1; i < optimizers.size(); ++i) {
    EXPECT_EQ(&optimizers[i]->all_pairs(), &optimizers[0]->all_pairs());
    EXPECT_EQ(plans[i], plans[0]) << "optimizer " << i;
  }
}

TEST(CorrelationMemo, NothingOutlivesTheLastOptimizer) {
  const MemoCounters counters;
  const trace::QueryTrace trace = make_trace();
  const std::vector<std::uint64_t> sizes = make_sizes();
  std::weak_ptr<const CorrelationArtifacts> weak;
  std::vector<NodeId> plan;
  {
    auto first = std::make_unique<PartialOptimizer>(trace, sizes, config());
    const PartialOptimizer second(trace, sizes, config(300));
    weak = CorrelationArtifacts::of(trace, sizes, config().operation_model,
                                    config().miner);  // a hit
    EXPECT_EQ(&weak.lock()->pairs(), &first->all_pairs());
    plan = first->run("lprr").keyword_to_node;
    first.reset();
    EXPECT_FALSE(weak.expired());  // `second` still holds them
  }
  EXPECT_TRUE(weak.expired());

  // The memo held no strong reference: the next optimizer rebuilds, and
  // the rebuilt artifacts give the same plan.
  const PartialOptimizer again(trace, sizes, config());
  EXPECT_EQ(counters.builds(), 2);
  EXPECT_EQ(counters.hits(), 2);
  EXPECT_EQ(again.run("lprr").keyword_to_node, plan);
}

TEST(CorrelationMemo, FailedBuildLeavesNoEntryBehind) {
  const MemoCounters counters;
  const trace::QueryTrace trace = make_trace(500);
  std::vector<std::uint64_t> short_sizes = make_sizes();
  short_sizes.resize(kVocab / 2);
  const MinerOptions miner;
  EXPECT_THROW(CorrelationArtifacts::of(trace, short_sizes,
                                        OperationModel::kSmallestPair, miner),
               common::Error);
  EXPECT_THROW(CorrelationArtifacts::of(trace, short_sizes,
                                        OperationModel::kSmallestPair, miner),
               common::Error);
  EXPECT_EQ(counters.builds(), 0);
  const auto artifacts = CorrelationArtifacts::of(
      trace, make_sizes(), OperationModel::kSmallestPair, miner);
  EXPECT_EQ(counters.builds(), 1);
  EXPECT_FALSE(artifacts->pairs().empty());
}

}  // namespace
}  // namespace cca::core
