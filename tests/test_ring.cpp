// Focused tests for the Delporte-Fauconnier ring baseline [4]: the
// sequential per-group processing discipline ("before handling other
// messages, every group waits for a final acknowledgment from gk") and its
// latency/traffic consequences.
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
  c.protocol = ProtocolKind::kDelporte00;
  c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
  return c;
}

TEST(Ring, SingleGroupMessageNeedsNoAckHop) {
  Experiment ex(cfg(2, 2));
  auto id = ex.castAt(kMs, 0, GroupSet::of({0}), "x");
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  // g1 == gk: consensus, then immediate delivery; no inter-group traffic.
  EXPECT_EQ(*r.trace.latencyDegree(id), 0);
  EXPECT_EQ(r.traffic.interAlgorithmic(), 0u);
}

TEST(Ring, SenderInFirstGroupSavesOneDelay) {
  // The k+1 accounting charges one delay for reaching g1; a sender already
  // in g1 skips it: degree k.
  const int k = 3;
  Experiment ex(cfg(k, 2));
  GroupSet dest = GroupSet::of({0, 1, 2});
  auto id = ex.castAt(kMs, 0, dest, "x");  // p0 is in g1 = group 0
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  EXPECT_EQ(*r.trace.latencyDegree(id), k);
}

TEST(Ring, HandoverTrafficIsDSquaredPerHop) {
  const int k = 3, d = 3;
  Experiment ex(cfg(k, d));
  // Sender in g1: no start hop.
  ex.castAt(kMs, 0, GroupSet::of({0, 1, 2}), "x");
  auto r = ex.run(600 * kSec);
  // handovers: (k-1) hops x d senders x d receivers; acks: gk's d members
  // to the 2d processes of the other groups.
  const uint64_t expected = static_cast<uint64_t>((k - 1) * d * d) +
                            static_cast<uint64_t>(d * (k - 1) * d);
  EXPECT_EQ(r.traffic.interAlgorithmic(), expected);
}

TEST(Ring, HeadOfLineBlockingIsReal) {
  // A message cast while another is mid-ring waits for the first's FULL
  // ring traversal before its own even starts — the latency cost of [4]'s
  // sequential discipline that A1 avoids.
  Experiment ex(cfg(3, 2));
  GroupSet dest = GroupSet::of({0, 1, 2});
  auto id1 = ex.castAt(kMs, 0, dest, "a");
  auto id2 = ex.castAt(50 * kMs, 0, dest, "b");  // m1 is mid-ring
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  const SimTime w1 = *r.trace.wallLatency(id1);
  const SimTime w2 = *r.trace.wallLatency(id2);
  // m2's wall latency includes waiting out m1's remaining ring plus its
  // own full traversal: at least one extra WAN round trip over m1's.
  EXPECT_GE(w2, w1 + 150 * kMs);
}

TEST(Ring, OverlappingRingsStayConsistent) {
  // Messages whose rings overlap partially ({0,1}, {1,2}, {0,2}): group 1
  // is first for one ring and second for another — the causal handover
  // discipline must still produce pairwise-consistent orders.
  Experiment ex(cfg(3, 2, 3));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "a");
  ex.castAt(kMs + 1, 2, GroupSet::of({1, 2}), "b");
  ex.castAt(kMs + 2, 4, GroupSet::of({0, 2}), "c");
  ex.castAt(kMs + 3, 1, GroupSet::of({0, 1, 2}), "d");
  auto r = ex.run(600 * kSec);
  auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << v[0];
  EXPECT_EQ(r.trace.deliveries.size(), 4u + 4 + 4 + 6);
}

TEST(Ring, BatchedCandidatesShareAConsensusInstance) {
  // Several messages arriving at g1 between consensus instances are decided
  // together and processed in id order.
  Experiment ex(cfg(2, 2, 5));
  std::vector<MsgId> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(ex.castAt(kMs, 2, GroupSet::of({0, 1}), "x"));
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  // All four delivered in id order at every destination process.
  auto seqs = r.trace.sequences();
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_EQ(seqs[p].size(), 4u);
    EXPECT_TRUE(std::is_sorted(seqs[p].begin(), seqs[p].end()));
  }
}

TEST(Ring, LatencyGrowsLinearlyUnlikeA1) {
  // The defining contrast of Figure 1a, as wall-clock time.
  for (int k = 2; k <= 4; ++k) {
    Experiment exRing(cfg(k, 2));
    GroupSet dest;
    for (GroupId g = 0; g < k; ++g) dest.add(g);
    auto idRing = exRing.castAt(kMs, 0, dest, "x");
    auto rRing = exRing.run(600 * kSec);

    auto cA1 = cfg(k, 2);
    cA1.protocol = ProtocolKind::kA1;
    Experiment exA1(cA1);
    auto idA1 = exA1.castAt(kMs, 0, dest, "x");
    auto rA1 = exA1.run(600 * kSec);

    const SimTime ringWall = *rRing.trace.wallLatency(idRing);
    const SimTime a1Wall = *rA1.trace.wallLatency(idA1);
    // Ring: ~k x 100ms; A1: ~2 x 100ms regardless of k.
    EXPECT_GE(ringWall, (k - 1) * 100 * kMs);
    EXPECT_LE(a1Wall, 230 * kMs);
    if (k >= 3) {
      EXPECT_GT(ringWall, a1Wall);
    }
  }
}

}  // namespace
}  // namespace wanmc
