// Focused tests for the broadcast baselines' internals: the deterministic
// merge's frontier semantics ([1]) and the sequencer protocols' optimistic
// delivery and failover ([12]/[13]).
#include <gtest/gtest.h>

#include "abcast/sequencer_node.hpp"
#include "core/experiment.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

RunConfig cfg(ProtocolKind kind, int groups, int procs, uint64_t seed = 1) {
  RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.seed = seed;
  c.protocol = kind;
  c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
  c.merge.heartbeatPeriod = 200 * kMs;
  return c;
}

// ---------------------------------------------------------------------------
// Deterministic merge [1].
// ---------------------------------------------------------------------------

TEST(Merge, MultipleMessagesPerTickKeepPublisherOrder) {
  // Three messages from one publisher within one heartbeat period share a
  // tick; the per-publisher event counter must keep their relative order.
  Experiment ex(cfg(ProtocolKind::kDetMerge00, 2, 1));
  auto a = ex.castAllAt(210 * kMs, 0, "a");
  auto b = ex.castAllAt(220 * kMs, 0, "b");
  auto c = ex.castAllAt(230 * kMs, 0, "c");
  auto r = ex.run(5 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  auto seqs = r.trace.sequences();
  EXPECT_EQ(seqs[1], (std::vector<MsgId>{a, b, c}));
  EXPECT_EQ(seqs[0], (std::vector<MsgId>{a, b, c}));
}

TEST(Merge, CrossPublisherTieBreaksByPublisherId) {
  // Two messages in the same tick from different publishers: the merge
  // orders them by (tick, publisher), at every subscriber.
  Experiment ex(cfg(ProtocolKind::kDetMerge00, 2, 1));
  auto fromP1 = ex.castAllAt(230 * kMs, 1, "b");  // larger pid...
  auto fromP0 = ex.castAllAt(231 * kMs, 0, "a");  // ...but p0 sorts first
  auto r = ex.run(5 * kSec);
  auto seqs = r.trace.sequences();
  EXPECT_EQ(seqs[0], (std::vector<MsgId>{fromP0, fromP1}));
  EXPECT_EQ(seqs[1], (std::vector<MsgId>{fromP0, fromP1}));
}

TEST(Merge, MergeDelayBoundedByHeartbeatPeriod) {
  // A message waits at most ~2 heartbeat periods + 1 WAN delay for the
  // other publishers' frontiers (the rate-vs-delay tradeoff [1] studies).
  Experiment ex(cfg(ProtocolKind::kDetMerge00, 3, 1));
  auto id = ex.castAllAt(350 * kMs, 0, "x");
  auto r = ex.run(5 * kSec);
  EXPECT_LE(*r.trace.wallLatency(id), 2 * 200 * kMs + 110 * kMs);
}

TEST(Merge, ShorterHeartbeatPeriodShortensMergeDelay) {
  auto wallWith = [](SimTime period) {
    auto c = cfg(ProtocolKind::kDetMerge00, 2, 1);
    c.merge.heartbeatPeriod = period;
    Experiment ex(c);
    // The sender must be the LARGEST pid: a message from publisher P waits
    // for frontier(Q) > ts for every Q < P, i.e. for Q's next tick — the
    // heartbeat-period-dependent merge delay. (The smallest-pid
    // publisher's messages only need frontier >= ts, already satisfied.)
    auto id = ex.castAllAt(2 * period + period / 4, 1, "x");
    auto r = ex.run(20 * kSec);
    return *r.trace.wallLatency(id);
  };
  EXPECT_LT(wallWith(50 * kMs), wallWith(400 * kMs));
}

TEST(Merge, IdleSkipSuppressesRedundantHeartbeats) {
  // A busy publisher does not heartbeat: data events advance its frontier.
  Experiment ex(cfg(ProtocolKind::kDetMerge00, 2, 1));
  for (int i = 0; i < 10; ++i)
    ex.castAllAt(10 * kMs + i * 50 * kMs, 0, "x");  // p0 busy all along
  auto r = ex.run(kSec);
  // p0 sent its t=0 heartbeat plus data; p1 heartbeats every period.
  // Count protocol packets from p0: 1 hb + 10 data (1 copy each, n=2).
  uint64_t p0Sent = 0;
  (void)p0Sent;  // counted via totals below
  const auto total = r.traffic.at(Layer::kProtocol).total();
  // p1 (idle): ~5 heartbeats in 1s; p0: 1 hb + 10 data. All n-1=1 copies.
  EXPECT_LE(total, 20u);
}

// ---------------------------------------------------------------------------
// Sequencer protocols [12]/[13].
// ---------------------------------------------------------------------------

TEST(Sequencer, OptimisticOrderCanDisagreeFinalOrderCannot) {
  // Optimistic deliveries follow raw arrival order and may disagree across
  // processes; the final order never does. Two near-simultaneous senders
  // in different groups make arrival orders differ.
  Experiment ex(cfg(ProtocolKind::kSousa02, 2, 2, 7));
  ex.castAllAt(10 * kMs, 0, "a");
  ex.castAllAt(10 * kMs + 1, 2, "b");
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  // p0 sees its own m first; p2 sees its own first: optimistic orders
  // differ...
  auto& n0 = dynamic_cast<abcast::SequencerNode&>(ex.node(0));
  auto& n2 = dynamic_cast<abcast::SequencerNode&>(ex.node(2));
  EXPECT_NE(n0.optimisticOrder(), n2.optimisticOrder());
  // ...but the final sequences agree (checked pairwise by the suite; spot
  // check here).
  auto seqs = r.trace.sequences();
  EXPECT_EQ(seqs[0], seqs[2]);
}

TEST(Sequencer, SousaSequencerCrashFailover) {
  Experiment ex(cfg(ProtocolKind::kSousa02, 2, 2));
  ex.castAllAt(10 * kMs, 1, "a");
  ex.crashAt(0, 400 * kMs);  // p0 is the sequencer
  ex.castAllAt(kSec, 1, "b");
  ex.castAllAt(kSec + 10 * kMs, 3, "c");
  auto r = ex.run(600 * kSec);
  auto ctx = r.checkContext();
  for (auto&& e : verify::checkUniformIntegrity(ctx)) ADD_FAILURE() << e;
  for (auto&& e : verify::checkAgreementCorrectOnly(ctx)) ADD_FAILURE() << e;
  for (auto&& e : verify::checkPrefixOrderCorrectOnly(ctx))
    ADD_FAILURE() << e;
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct) EXPECT_EQ(seqs[p].size(), 3u) << "p" << p;
}

TEST(Sequencer, VicenteSequencerCrashStaysUniform) {
  Experiment ex(cfg(ProtocolKind::kVicente02, 2, 2));
  ex.castAllAt(10 * kMs, 1, "a");
  ex.crashAt(0, 400 * kMs);
  ex.castAllAt(kSec, 2, "b");
  auto r = ex.run(600 * kSec);
  auto ctx = r.checkContext();
  for (auto&& e : verify::checkUniformIntegrity(ctx)) ADD_FAILURE() << e;
  for (auto&& e : verify::checkUniformAgreement(ctx)) ADD_FAILURE() << e;
  for (auto&& e : verify::checkUniformPrefixOrder(ctx)) ADD_FAILURE() << e;
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct) EXPECT_EQ(seqs[p].size(), 2u) << "p" << p;
}

TEST(Sequencer, SousaTrafficLinearVicenteQuadratic) {
  auto interFor = [](ProtocolKind kind, int d) {
    Experiment ex(cfg(kind, 2, d));
    ex.castAllAt(10 * kMs, 0, "x");
    auto r = ex.run(600 * kSec);
    return r.traffic.at(Layer::kProtocol).inter;
  };
  // Doubling n roughly doubles Sousa's traffic but quadruples Vicente's.
  const auto s2 = interFor(ProtocolKind::kSousa02, 2);
  const auto s4 = interFor(ProtocolKind::kSousa02, 4);
  const auto v2 = interFor(ProtocolKind::kVicente02, 2);
  const auto v4 = interFor(ProtocolKind::kVicente02, 4);
  EXPECT_LE(s4, 3 * s2);
  EXPECT_GE(v4, 3 * v2);
}

TEST(Sequencer, EchoFirstSightStillSequences) {
  // An echo can beat the sender's data packet to the sequencer (it carries
  // the payload): the message must still get a sequence number promptly.
  Experiment ex(cfg(ProtocolKind::kVicente02, 2, 2, 9));
  // Drop the direct data packet to the sequencer p0; p1's echo introduces m.
  ex.runtime().setDropFilter([](ProcessId from, ProcessId to,
                                const Payload& p) {
    const auto* sp = dynamic_cast<const abcast::SeqPayload*>(&p);
    return sp != nullptr && sp->kind == abcast::SeqPayload::Kind::kData &&
           from == 2 && to == 0;
  });
  ex.castAllAt(10 * kMs, 2, "x");
  auto r = ex.run(600 * kSec);
  auto seqs = r.trace.sequences();
  for (ProcessId p = 0; p < 4; ++p) EXPECT_EQ(seqs[p].size(), 1u) << p;
}

}  // namespace
}  // namespace wanmc
