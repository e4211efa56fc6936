// The process-wide keyword digest table under concurrent growth: pool
// tasks that extend it at once all read the MD5 of every keyword name.
// Lives in the sanitize-labelled binary so TSan sees the snapshot swap.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "core/placement_map.hpp"
#include "hash/md5.hpp"
#include "trace/trace.hpp"

namespace cca::core {
namespace {

TEST(KeywordDigests, ConcurrentGrowersReadIdenticalValues) {
  // Every task asks for more ids than the table holds yet, so each call
  // may grow it while the others read.
  const std::size_t base = keyword_digests(0)->size();
  constexpr std::size_t kTasks = 8;
  common::set_global_threads(4);
  const std::vector<std::shared_ptr<const std::vector<std::uint64_t>>> seen =
      common::parallel_map(kTasks, [&](std::size_t i) {
        return keyword_digests(base + 500 * (i + 1));
      });
  common::set_global_threads(1);
  for (std::size_t i = 0; i < kTasks; ++i) {
    const std::size_t count = base + 500 * (i + 1);
    ASSERT_GE(seen[i]->size(), count) << "task " << i;
    for (std::size_t k = 0; k < count; ++k)
      ASSERT_EQ((*seen[i])[k], hash::Md5::digest64(trace::keyword_name(
                                   static_cast<trace::KeywordId>(k))))
          << "task " << i << " keyword " << k;
  }
  EXPECT_GE(keyword_digests(0)->size(), base + 500 * kTasks);
}

}  // namespace
}  // namespace cca::core
