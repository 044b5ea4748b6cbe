// The one pass over the standard fault matrix (testing::standardFaultMatrix):
// every cell of all ten protocols is simulated once per seed (1..3), and
// every per-cell check runs on that one result:
//   * the cell's trait-derived expectations hold (ScenarioResult::ok);
//   * its fingerprint matches tests/golden/fingerprints.txt;
//   * every indexed verify:: checker agrees with the reference oracle on
//     the trace and on damaged copies of it (tests/verify_oracle.hpp);
//   * the harvested metrics::Summary agrees with the trace's per-id
//     helpers (tests/summary_oracle.hpp);
//   * RunTrace::allLatencyDegrees equals the per-id latencyDegree.
// Then seed 1 of every cell runs again in the same process and must
// reproduce its fingerprint byte for byte.
//
// The golden file pins the canonical trace of every (cell, seed): any
// change to event ordering, latency draws, Lamport stamping or traffic
// accounting shows up as a divergence tied to one reproducible seed.
// Regenerate it (only when a behavior change is intended and reviewed):
//   WANMC_REGEN_GOLDEN=1 ./test_scenario_matrix
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "golden_util.hpp"
#include "summary_oracle.hpp"
#include "testing/scenario.hpp"
#include "verify_oracle.hpp"

namespace wanmc {
namespace {

constexpr int kSeedsPerCell = 3;

std::vector<int64_t> perIdDegrees(const RunTrace& t) {
  std::vector<int64_t> out;
  for (const auto& c : t.casts)
    if (auto d = t.latencyDegree(c.msg)) out.push_back(*d);
  return out;
}

TEST(ScenarioMatrix, EveryCellPassesEveryCheck) {
  std::map<std::string, uint64_t> fingerprints;  // golden key -> hash
  size_t contexts = 0;
  size_t withViolations = 0;
  SplitMix64 rng(1);
  for (core::ProtocolKind kind : core::kAllProtocols) {
    const auto results = testing::runStandardMatrix(kind, kSeedsPerCell);
    ASSERT_FALSE(results.empty());
    for (const testing::ScenarioResult& res : results) {
      EXPECT_TRUE(res.ok()) << res.report();
      std::string key = core::protocolInfo(kind).testName;
      key += "|";
      key += res.name;
      fingerprints[key] = testing::fnv1a64(res.fingerprint);

      verify_oracle::expectMatchesOracle(res.run.checkContext(), res.name);
      ++contexts;
      for (int round = 0; round < 2; ++round) {
        for (const auto& [what, trace] : verify_oracle::mutants(res.run, rng)) {
          const verify::CheckContext ctx{&trace, &res.run.topo,
                                         res.run.correct};
          if (verify_oracle::expectMatchesOracle(ctx, res.name + " / " + what))
            ++withViolations;
          ++contexts;
        }
      }

      summary_oracle::expectMatchesTrace(res.run, res.name);
      EXPECT_EQ(res.run.trace.allLatencyDegrees(),
                perIdDegrees(res.run.trace))
          << res.name;
    }

    // In-process reproducibility: seed 1 again, after everything above.
    const auto again = testing::runStandardMatrix(kind, 1);
    ASSERT_EQ(again.size() * kSeedsPerCell, results.size());
    for (size_t i = 0; i < again.size(); ++i)
      EXPECT_EQ(again[i].fingerprint,
                results[i * kSeedsPerCell].fingerprint)
          << again[i].name;
  }
  // The oracle comparison only means something if the damaged traces
  // actually drove the checkers down their reporting paths.
  EXPECT_GT(contexts, 1000u);
  EXPECT_GT(withViolations, contexts / 2);

  testing::checkOrRegenGolden(
      std::string(WANMC_SOURCE_DIR) + "/tests/golden/fingerprints.txt",
      fingerprints);
}

}  // namespace
}  // namespace wanmc
