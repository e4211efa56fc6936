// Strict parsing of the bench-wide flags (bench/testbed.hpp). Every
// enum-valued flag must hard-error on a bad value with a message that
// names the flag, lists the accepted values, and suggests the closest
// candidate — the same contract reject_unused() gives unknown flag NAMES,
// extended to flag VALUES.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/testbed.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "core/strategy.hpp"
#include "search/block_postings.hpp"

namespace cca::bench {
namespace {

// from_cli applies --codec process-wide; snapshot and restore the
// default so these tests cannot leak into search tests in the same binary.
class BenchFlags : public ::testing::Test {
 protected:
  void SetUp() override { codec_ = search::default_posting_codec(); }
  void TearDown() override { search::set_default_posting_codec(codec_); }

  static TestbedConfig parse(std::initializer_list<const char*> flags) {
    std::vector<const char*> argv{"bench"};
    argv.insert(argv.end(), flags.begin(), flags.end());
    const common::CliArgs args(static_cast<int>(argv.size()), argv.data());
    return TestbedConfig::from_cli(args);
  }

  static std::string error_of(std::initializer_list<const char*> flags) {
    try {
      parse(flags);
    } catch (const common::Error& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected common::Error";
    return {};
  }

 private:
  search::PostingCodec codec_{};
};

TEST_F(BenchFlags, RetiredLpFlagsAreUnknownFlags) {
  // The LP runs one path; a script still passing one of the old --lp-*
  // knobs gets the unknown-flag error naming it.
  for (const std::string name : {"lp-backend", "lp-presolve", "lp-pricing",
                                 "lp-warm-start", "lp-refactor-interval"}) {
    const std::string flag = "--" + name + "=on";
    const char* argv[] = {"bench", flag.c_str()};
    const common::CliArgs args(2, argv);
    TestbedConfig::from_cli(args);
    try {
      args.reject_unused();
      ADD_FAILURE() << flag << " was accepted";
    } catch (const common::Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag --" + name),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(BenchFlags, CodecAcceptsBothValuesAndDefaultsToBlock) {
  parse({});
  EXPECT_EQ(search::default_posting_codec(), search::PostingCodec::kBlock);
  parse({"--codec=varint"});
  EXPECT_EQ(search::default_posting_codec(), search::PostingCodec::kVarint);
  parse({"--codec=block"});
  EXPECT_EQ(search::default_posting_codec(), search::PostingCodec::kBlock);
}

TEST_F(BenchFlags, CodecBadValueNamesFlagAndSuggests) {
  const std::string message = error_of({"--codec=blok"});
  EXPECT_NE(message.find("--codec"), std::string::npos) << message;
  EXPECT_NE(message.find("'blok'"), std::string::npos) << message;
  EXPECT_NE(message.find("'varint'"), std::string::npos) << message;
  EXPECT_NE(message.find("did you mean 'block'?"), std::string::npos)
      << message;
}

TEST_F(BenchFlags, HashTailAcceptsBothRules) {
  EXPECT_EQ(parse({}).hash_tail, core::HashTail::kMd5);  // default
  EXPECT_EQ(parse({"--hash-tail=md5"}).hash_tail, core::HashTail::kMd5);
  EXPECT_EQ(parse({"--hash-tail=jump"}).hash_tail, core::HashTail::kJump);
}

TEST_F(BenchFlags, HashTailBadValueNamesFlagAndSuggests) {
  const std::string message = error_of({"--hash-tail=jmup"});
  EXPECT_NE(message.find("--hash-tail"), std::string::npos) << message;
  EXPECT_NE(message.find("'jmup'"), std::string::npos) << message;
  EXPECT_NE(message.find("'md5'"), std::string::npos) << message;
  EXPECT_NE(message.find("did you mean 'jump'?"), std::string::npos)
      << message;
}

TEST_F(BenchFlags, ChurnScriptParsesThroughTheTestbed) {
  EXPECT_TRUE(parse({}).churn.empty());
  const TestbedConfig cfg = parse({"--churn=add:1000,10;remove:2000,10"});
  ASSERT_EQ(cfg.churn.size(), 2u);
  EXPECT_EQ(cfg.churn[0].kind, sim::ChurnEvent::Kind::kAdd);
  EXPECT_DOUBLE_EQ(cfg.churn[0].time_ms, 1000.0);
  EXPECT_EQ(cfg.churn[0].node, 10);
  EXPECT_EQ(cfg.churn[1].kind, sim::ChurnEvent::Kind::kRemove);
}

TEST_F(BenchFlags, ChurnBadKindNamesFlagAndSuggests) {
  const std::string message = error_of({"--churn=addd:1000,10"});
  EXPECT_NE(message.find("--churn"), std::string::npos) << message;
  EXPECT_NE(message.find("did you mean 'add'?"), std::string::npos)
      << message;
}

TEST_F(BenchFlags, ChurnMalformedEventNamesTheShape) {
  const std::string message = error_of({"--churn=add:1000"});
  EXPECT_NE(message.find("add:<time_ms>,<node>"), std::string::npos)
      << message;
  EXPECT_NE(message.find("missing ','"), std::string::npos) << message;
}

TEST_F(BenchFlags, ChurnNonmonotoneTimesAreRejected) {
  const std::string message = error_of({"--churn=add:2000,10;add:1000,11"});
  EXPECT_NE(message.find("nondecreasing"), std::string::npos) << message;
}

TEST_F(BenchFlags, StrategiesValueGetsTheSameStrictContract) {
  // Every bench funnels --strategies through core::parse_strategy_list;
  // bad values must fail like any other enum-valued flag: name the
  // offender, list the registry, suggest the near miss — and reject
  // duplicate columns.
  EXPECT_EQ(core::parse_strategy_list("random-hash,hypergraph").size(), 2u);
  try {
    core::parse_strategy_list("random-hash,hypergrap");
    ADD_FAILURE() << "expected common::Error";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'hypergrap'"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'hypergraph'?"), std::string::npos)
        << what;
  }
  EXPECT_THROW(core::parse_strategy_list("lprr,lprr"), common::Error);
}

// ---------- hierarchical fault flags ----------

FaultFlags parse_faults(std::initializer_list<const char*> flags) {
  std::vector<const char*> argv{"bench"};
  argv.insert(argv.end(), flags.begin(), flags.end());
  const common::CliArgs args(static_cast<int>(argv.size()), argv.data());
  return FaultFlags::from_cli(args);
}

std::string fault_error_of(std::initializer_list<const char*> flags) {
  try {
    parse_faults(flags);
  } catch (const common::Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected common::Error";
  return {};
}

TEST(FaultFlagsParsing, TopologyGridBuildsThePool) {
  const FaultFlags f = parse_faults({"--topology=2:2:3"});
  ASSERT_TRUE(f.pool);
  EXPECT_EQ(f.pool->num_nodes(), 12);
  EXPECT_EQ(f.pool->num_racks(), 4);
  EXPECT_EQ(f.pool->num_rows(), 2);
}

TEST(FaultFlagsParsing, TopologyBadShapeNamesTheFlag) {
  const std::string message = fault_error_of({"--topology=2:2"});
  EXPECT_NE(message.find("--topology"), std::string::npos) << message;
  EXPECT_NE(message.find("rows:racks:nodes"), std::string::npos) << message;
}

TEST(FaultFlagsParsing, ReplicaSpreadParsesAndSuggestsOnTypo) {
  const FaultFlags f =
      parse_faults({"--topology=1:2:2", "--replica-spread=rack"});
  EXPECT_EQ(f.spread, core::ReplicaSpread::kRack);
  const std::string message = fault_error_of({"--replica-spread=rak"});
  EXPECT_NE(message.find("--replica-spread"), std::string::npos) << message;
  EXPECT_NE(message.find("'flat', 'rack', 'row'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("did you mean 'rack'?"), std::string::npos)
      << message;
}

TEST(FaultFlagsParsing, SpreadWithoutTopologyIsRejected) {
  const std::string message = fault_error_of({"--replica-spread=rack"});
  EXPECT_NE(message.find("--topology"), std::string::npos) << message;
}

TEST(FaultFlagsParsing, FaultScriptDomainEventsNeedTopology) {
  // Node-only scripts work on flat clusters.
  const FaultFlags node_only = parse_faults({"--fault-script=crash:10,0"});
  EXPECT_EQ(node_only.script.size(), 1u);
  // Rack events without a topology are rejected at parse time.
  const std::string message = fault_error_of({"--fault-script=rack:10,0"});
  EXPECT_NE(message.find("--topology"), std::string::npos) << message;
  // With a topology they parse.
  const FaultFlags f =
      parse_faults({"--topology=1:2:2", "--fault-script=rack:10,0"});
  EXPECT_EQ(f.script.size(), 1u);
  EXPECT_EQ(f.script[0].domain, sim::FaultDomain::kRack);
}

TEST(FaultFlagsParsing, FaultScriptBadKindSuggests) {
  const std::string message = fault_error_of({"--fault-script=rck:10,0"});
  EXPECT_NE(message.find("did you mean"), std::string::npos) << message;
}

TEST(FaultFlagsParsing, DomainMttfNeedsTopology) {
  const std::string message = fault_error_of({"--rack-mttf=1000"});
  EXPECT_NE(message.find("--topology"), std::string::npos) << message;
}

TEST(FaultFlagsParsing, DegenerateRetryAndRebuildRejectedAtParseTime) {
  EXPECT_NE(fault_error_of({"--base-backoff-ms=0"}).find("backoff"),
            std::string::npos);
  EXPECT_NE(fault_error_of({"--base-backoff-ms=-1"}).find("backoff"),
            std::string::npos);
  EXPECT_NE(fault_error_of({"--max-attempts=0"}).find("attempts"),
            std::string::npos);
  EXPECT_NE(fault_error_of({"--rebuild-mbps=0"}).find("--rebuild-mbps"),
            std::string::npos);
}

TEST(FaultFlagsParsing, BuildScheduleHonoursTheFlagGroup) {
  // Scripted events win over generation, and a domain event expands to
  // its member nodes.
  const FaultFlags f = parse_faults(
      {"--topology=1:2:2", "--fault-script=rack:100,0;rack-recover:200,0"});
  const sim::FaultSchedule schedule = f.build_schedule(4);
  EXPECT_EQ(schedule.crash_count(), 2u);  // both nodes of rack 0
  EXPECT_EQ(schedule.dead_nodes(150.0), (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace cca::bench
