// Tests for Skeen's original algorithm [2] and the paper's §1 corollary:
// Skeen's algorithm, designed for failure-free systems more than 20 years
// before the paper, already attains the genuine-multicast lower bound of
// latency degree 2.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

RunConfig cfg(int groups, int procs, uint64_t seed = 1) {
  RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.seed = seed;
  c.protocol = ProtocolKind::kSkeen87;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  return c;
}

RunConfig fixedCfg(int groups, int procs, uint64_t seed = 1) {
  RunConfig c = cfg(groups, procs, seed);
  c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
  return c;
}

TEST(Skeen, TheCorollaryLatencyDegreeTwo) {
  // §1: "Skeen's algorithm ... is also optimal": one delay to spread m,
  // one to exchange the votes — degree 2, the Prop. 3.1/3.2 bound.
  Experiment ex(fixedCfg(2, 2));
  auto id = ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  EXPECT_EQ(*r.trace.latencyDegree(id), 2);
}

TEST(Skeen, SingleGroupStillExchangesVotes) {
  // Unlike A1 (whose group clock IS agreed via consensus), Skeen's
  // per-process clocks always need the vote exchange — but within one
  // group it is intra-group traffic, so the degree stays 0.
  Experiment ex(fixedCfg(1, 3));
  auto id = ex.castAt(kMs, 0, GroupSet::of({0}), "x");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  EXPECT_EQ(*r.trace.latencyDegree(id), 0);
}

TEST(Skeen, NoConsensusNoFdTraffic) {
  Experiment ex(cfg(2, 2));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  EXPECT_EQ(r.traffic.at(Layer::kConsensus).total(), 0u);
  EXPECT_EQ(r.traffic.at(Layer::kFailureDetector).total(), 0u);
  EXPECT_EQ(r.traffic.at(Layer::kReliableMulticast).total(), 0u);
}

TEST(Skeen, MessageComplexityQuadraticInDestinations) {
  // data: kd-1 from the sender; votes: each dest process to all others.
  const int k = 2, d = 2, n = k * d;
  Experiment ex(fixedCfg(k, d));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  const uint64_t total = r.traffic.at(Layer::kProtocol).total();
  EXPECT_EQ(total, static_cast<uint64_t>(n - 1) +  // data
                       static_cast<uint64_t>(n) * (n - 1));  // votes
}

TEST(Skeen, GenuineOnlyAddresseesParticipate) {
  Experiment ex(cfg(3, 2));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  auto v = verify::checkGenuineness(r.checkContext(), r.genuineness);
  EXPECT_TRUE(v.empty()) << v[0];
}

TEST(Skeen, ConcurrentOverlappingMulticastsConsistent) {
  Experiment ex(cfg(3, 2, 13));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "a");
  ex.castAt(kMs + 2, 2, GroupSet::of({1, 2}), "b");
  ex.castAt(kMs + 4, 4, GroupSet::of({0, 1, 2}), "c");
  ex.castAt(kMs + 6, 1, GroupSet::of({0, 2}), "d");
  auto r = ex.run(600 * kSec);
  auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << v[0];
  EXPECT_EQ(r.trace.deliveries.size(), 4u + 4 + 6 + 4);
}

TEST(Skeen, WorkloadSweepSafe) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Experiment ex(cfg(3, 2, seed));
    workload::Spec spec = workload::Spec::closedLoop(20, 30 * kMs, 2);
    spec.seed = seed * 37;
    ex.addWorkload(spec);
    auto r = ex.run(600 * kSec);
    auto v = r.checkAtomicSuite();
    EXPECT_TRUE(v.empty()) << "seed " << seed << ": " << v[0];
  }
}

TEST(Skeen, LowerBoundNeverBeatenAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Experiment ex(cfg(3, 2, seed));
    auto id = ex.castAt(kMs, static_cast<ProcessId>(seed % 6),
                        GroupSet::of({0, 1}), "x");
    auto r = ex.run(600 * kSec);
    auto deg = r.trace.latencyDegree(id);
    ASSERT_TRUE(deg.has_value());
    EXPECT_GE(*deg, 2) << "seed " << seed;
  }
}

TEST(Skeen, MatchesA1OrderSemantics) {
  // Same workload through Skeen and A1: both must satisfy the full suite
  // (the delivered ORDERS may differ — only pairwise consistency is
  // specified).
  for (auto kind : {ProtocolKind::kSkeen87, ProtocolKind::kA1}) {
    auto c = cfg(3, 2, 2);
    c.protocol = kind;
    Experiment ex(c);
    ex.castAt(kMs, 0, GroupSet::of({0, 1}), "a");
    ex.castAt(kMs + 1, 3, GroupSet::of({0, 1}), "b");
    ex.castAt(kMs + 2, 4, GroupSet::of({0, 1, 2}), "c");
    auto r = ex.run(600 * kSec);
    auto v = r.checkAtomicSuite();
    EXPECT_TRUE(v.empty()) << protocolName(kind) << ": " << v[0];
  }
}

}  // namespace
}  // namespace wanmc
