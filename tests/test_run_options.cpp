// core::RunOptions: the "k=v" line round-trips, parse() and the CLI flags
// reject malformed numbers instead of reading a prefix of them, and
// validate() throws on a knob that is out of range.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/run_options.hpp"

namespace wanmc {
namespace {

using core::RunOptions;

TEST(RunOptions, SerializeParseSerializeIsAFixedPoint) {
  for (core::ProtocolKind kind : core::kAllProtocols) {
    for (exec::Backend backend : {exec::Backend::kSim,
                                  exec::Backend::kThreaded}) {
      RunOptions o;
      o.protocol = kind;
      o.backend = backend;
      o.groups = 4;
      o.procsPerGroup = 3;
      o.seed = 18446744073709551615ULL;
      o.latency = exec::LatencyModel{500, 1500, 90 * kMs, 110 * kMs};
      o.batchWindow = 5 * kMs;
      o.batchMaxSize = 7;
      o.lossRate = 0.05;
      o.reliableChannels = true;
      o.destGroups = 3;
      const std::string line = o.serialize();
      const auto back = RunOptions::parse(line);
      ASSERT_TRUE(back.has_value()) << line;
      EXPECT_EQ(back->serialize(), line);
      EXPECT_EQ(back->protocol, kind) << line;
      EXPECT_EQ(back->backend, backend) << line;
    }
  }
  const std::string defaults = RunOptions{}.serialize();
  ASSERT_TRUE(RunOptions::parse(defaults).has_value());
  EXPECT_EQ(RunOptions::parse(defaults)->serialize(), defaults);
}

TEST(RunOptions, ParseRejectsMalformedLines) {
  const char* bad[] = {
      "groups=3x",        // trailing junk after a number
      "loss=0.1abc",
      "batch-window=5ms", // a unit is not part of the number
      "seed=12z",
      "groups=",          // empty value
      "intra=1:2:3",      // a range has exactly two bounds
      "inter=100",        // ... and needs both
      "channels=2",       // a flag is 0 or 1
      "protocol=a3",
      "backend=gpu",
      "speed=1",          // unknown key
      "groups",           // no '='
      "groups=99999999999",  // out of int range
  };
  for (const char* line : bad)
    EXPECT_FALSE(RunOptions::parse(line).has_value()) << line;
  // The well-formed neighbours parse.
  EXPECT_EQ(RunOptions::parse("groups=3")->groups, 3);
  EXPECT_EQ(RunOptions::parse("loss=0.1")->lossRate, 0.1);
  EXPECT_EQ(RunOptions::parse("batch-window=5000")->batchWindow, 5 * kMs);
  EXPECT_TRUE(RunOptions::parse("channels=1")->reliableChannels);
  EXPECT_FALSE(RunOptions::parse("channels=0")->reliableChannels);
}

TEST(RunOptions, CliFlagsRejectMalformedNumbers) {
  auto consume = [](const char* flag, const char* value) {
    RunOptions o;
    o.consumeFlag(flag, [value] { return std::string(value); });
    return o;
  };
  EXPECT_EQ(consume("--loss", "0.25").lossRate, 0.25);
  EXPECT_EQ(consume("--groups", "5").groups, 5);
  EXPECT_EXIT(consume("--loss", "abc"), ::testing::ExitedWithCode(2),
              "--loss: 'abc' is not a number");
  EXPECT_EXIT(consume("--groups", "3x"), ::testing::ExitedWithCode(2),
              "--groups: '3x' is not a number");
  // The same reader backs every tool's own numeric flags (wanmc_cli's
  // --msgs, --casts, --tolerance, ...; bench_calibration's --points, ...).
  EXPECT_EQ(core::numberOrDie<double>("0.5", "--tolerance"), 0.5);
  EXPECT_EXIT(core::numberOrDie<int>("abc", "--msgs"),
              ::testing::ExitedWithCode(2), "--msgs: 'abc' is not a number");
  EXPECT_EXIT(core::numberOrDie<SimTime>("5ms", "--interval-ms"),
              ::testing::ExitedWithCode(2),
              "--interval-ms: '5ms' is not a number");
}

TEST(RunOptions, ValidateThrowsOnOutOfRangeKnobs) {
  EXPECT_NO_THROW(RunOptions{}.validate());
  RunOptions noGroups;
  noGroups.groups = 0;
  EXPECT_THROW(noGroups.validate(), std::invalid_argument);
  RunOptions wideDest;
  wideDest.destGroups = wideDest.groups + 1;
  EXPECT_THROW(wideDest.validate(), std::invalid_argument);
  RunOptions deadLink;
  deadLink.lossRate = 1.0;
  EXPECT_THROW(deadLink.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace wanmc
