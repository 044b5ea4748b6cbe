// The indexed verify:: checkers against the reference oracle
// (tests/verify_oracle.hpp, the original per-process-set implementations)
// on synthetic traces that reach the rarely taken paths. The same
// comparison over every standard-matrix cell of all ten protocols, and
// over damaged copies of those traces, runs in the one matrix pass
// (tests/test_scenario_matrix.cpp).
//
// The StreamingOrder suite keeps the prefix-order cases first written for
// the observer-fed order checker that the trace checkers replaced.
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"
#include "verify_oracle.hpp"

namespace wanmc {
namespace {

using verify_oracle::expectMatchesOracle;

// ---------------------------------------------------------------------------
// Synthetic traces.
// ---------------------------------------------------------------------------

core::RunResult syntheticRun() {
  core::RunResult r;
  r.topo = Topology(2, 2);  // p0,p1 in g0; p2,p3 in g1
  r.correct = {0, 1, 2, 3};
  return r;
}

void cast(core::RunResult& r, MsgId m, ProcessId sender, GroupSet dest,
          SimTime when) {
  r.trace.casts.push_back(CastEvent{sender, m, dest, 0, when});
  r.trace.destOf[m] = dest;
  r.trace.senderOf[m] = sender;
}

void deliver(core::RunResult& r, ProcessId p, MsgId m, SimTime when) {
  r.trace.deliveries.push_back(DeliveryEvent{p, m, 0, when, 0});
}

bool contains(const verify::Violations& vs, const std::string& text) {
  for (const auto& v : vs)
    if (v == text) return true;
  return false;
}

TEST(CheckerOracle, RecoveredRedeliveryBindsPerIncarnation) {
  auto r = syntheticRun();
  const GroupSet both = GroupSet::of({0, 1});
  cast(r, 1, 0, both, 0);
  cast(r, 2, 0, both, 5);
  cast(r, 3, 0, both, 200);
  for (ProcessId p : {0, 2, 3})
    for (MsgId m : {1, 2, 3}) deliver(r, p, m, 10 + 100 * (m - 1));
  // p1 delivers m1, crashes at 50, recovers at 100: re-delivering m1 in
  // the new incarnation is legal, delivering m2 twice in it is not, and it
  // owes m3 (cast after its recovery, delivered by every correct addressee).
  deliver(r, 1, 1, 10);
  r.trace.crashes.push_back(CrashEvent{1, 50});
  r.trace.recoveries.push_back(RecoveryEvent{1, 100});
  deliver(r, 1, 1, 150);
  deliver(r, 1, 2, 160);
  deliver(r, 1, 2, 170);
  r.correct = {0, 2, 3};

  const auto ctx = r.checkContext();
  expectMatchesOracle(ctx, "recovered");
  EXPECT_EQ(verify::checkUniformIntegrity(ctx),
            verify::Violations{"p1 delivered m2 2 times"});
  EXPECT_EQ(verify::checkRecoveredDelivery(ctx),
            verify::Violations{
                "recovery: p1 (recovered at t=100us) never delivered m3 cast "
                "at t=200us although every correct addressee did"});
  // The recovered process is out of the prefix-order pairs.
  EXPECT_TRUE(verify::checkUniformPrefixOrder(ctx).empty());
}

TEST(CheckerOracle, SparseIdsInTheRodriguesScopeRange) {
  auto r = syntheticRun();
  const GroupSet both = GroupSet::of({0, 1});
  const MsgId scopeBase = MsgId{1} << 20;
  const MsgId ids[] = {3, scopeBase + 1, scopeBase + 7, MsgId{1} << 40};
  for (MsgId m : ids) cast(r, m, 0, both, 0);
  // p0,p1 deliver in id order; p2,p3 swap the two scope-range ids.
  for (ProcessId p : {0, 1})
    for (MsgId m : ids) deliver(r, p, m, 10);
  for (ProcessId p : {2, 3})
    for (MsgId m : {ids[0], ids[2], ids[1], ids[3]}) deliver(r, p, m, 10);
  deliver(r, 3, ids[3], 20);  // and p3 delivers the last one twice

  const auto ctx = r.checkContext();
  expectMatchesOracle(ctx, "sparse ids");
  const auto order = verify::checkUniformPrefixOrder(ctx);
  ASSERT_EQ(order.size(), 4u);  // the four cross-group pairs
  EXPECT_EQ(order[0],
            "prefix order violated between p0 and p2 at position 1: "
            "m1048577 vs m1048583");
  EXPECT_EQ(verify::checkUniformIntegrity(ctx),
            verify::Violations{"p3 delivered m1099511627776 2 times"});
}

TEST(CheckerOracle, DeliveredIdsMissingFromDestOf) {
  auto r = syntheticRun();
  cast(r, 1, 0, GroupSet::of({0}), 0);
  cast(r, 2, 0, GroupSet::of({0, 1}), 0);
  r.trace.destOf.erase(2);  // cast, but its destination was never recorded
  r.trace.destOf[9] = GroupSet::of({1});  // a destination nobody cast
  for (ProcessId p : {0, 1}) {
    deliver(r, p, 1, 10);
    deliver(r, p, 2, 11);
  }
  deliver(r, 2, 7, 12);  // neither cast nor in destOf

  const auto ctx = r.checkContext();
  expectMatchesOracle(ctx, "missing destOf");
  const auto integrity = verify::checkUniformIntegrity(ctx);
  EXPECT_TRUE(contains(integrity, "p0 delivered m2 but is not an addressee"));
  EXPECT_TRUE(contains(integrity, "p2 delivered m7 which was never A-XCast"));
  EXPECT_TRUE(contains(integrity, "p2 delivered m7 but is not an addressee"));
  EXPECT_TRUE(verify::checkUniformAgreement(ctx).empty());
}

// ---------------------------------------------------------------------------
// Synthetic violating runs: the violation, its position and its wording.
// ---------------------------------------------------------------------------

TEST(StreamingOrder, FlagsSwappedPairIdenticallyToOracle) {
  auto r = syntheticRun();
  const GroupSet both = GroupSet::of({0, 1});
  cast(r, 1, 0, both, 0);
  cast(r, 2, 2, both, 0);
  // p0 delivers m1 then m2; p2 delivers m2 then m1: divergence at pos 0.
  deliver(r, 0, 1, 10);
  deliver(r, 2, 2, 11);
  deliver(r, 0, 2, 12);
  deliver(r, 2, 1, 13);
  // p1 and p3 agree with p0.
  for (ProcessId p : {1, 3}) {
    deliver(r, p, 1, 20);
    deliver(r, p, 2, 21);
  }

  const auto ctx = r.checkContext();
  const auto fast = verify::checkUniformPrefixOrder(ctx);
  EXPECT_EQ(fast, verify_oracle::checkUniformPrefixOrder(ctx));
  ASSERT_FALSE(fast.empty());
  // p0-vs-p2 and the swapped pair partners: p2 disagrees with p0, p1; p3
  // disagrees with p2. 3 violated pairs either way.
  EXPECT_EQ(fast.size(), 3u);
  EXPECT_NE(fast[0].find("between p0 and p2"), std::string::npos);
  EXPECT_NE(fast[0].find("at position 0"), std::string::npos);
}

TEST(StreamingOrder, CorrectOnlyFiltersCrashedPairs) {
  auto r = syntheticRun();
  const GroupSet both = GroupSet::of({0, 1});
  cast(r, 1, 0, both, 0);
  cast(r, 2, 2, both, 0);
  // Only p3 disagrees, and p3 crashed.
  for (ProcessId p : {0, 1, 2}) {
    deliver(r, p, 1, 10);
    deliver(r, p, 2, 11);
  }
  deliver(r, 3, 2, 10);
  deliver(r, 3, 1, 11);
  r.correct = {0, 1, 2};

  const auto ctx = r.checkContext();
  const auto uniform = verify::checkUniformPrefixOrder(ctx);
  const auto correctOnly = verify::checkPrefixOrderCorrectOnly(ctx);
  EXPECT_EQ(uniform, verify_oracle::checkUniformPrefixOrder(ctx));
  EXPECT_FALSE(uniform.empty());  // uniform: p3 counts
  EXPECT_EQ(correctOnly, verify_oracle::checkPrefixOrderCorrectOnly(ctx));
  EXPECT_TRUE(correctOnly.empty());  // correct-only: not
}

TEST(StreamingOrder, DivergenceDeepInSequenceReportsPosition) {
  auto r = syntheticRun();
  const GroupSet both = GroupSet::of({0, 1});
  for (MsgId m = 1; m <= 6; ++m) cast(r, m, 0, both, 0);
  // All four processes agree on m1..m4; p0/p1 then deliver m5,m6 while
  // p2/p3 deliver m6,m5.
  for (ProcessId p : {0, 1, 2, 3})
    for (MsgId m = 1; m <= 4; ++m) deliver(r, p, m, 10 + m);
  for (ProcessId p : {0, 1}) {
    deliver(r, p, 5, 20);
    deliver(r, p, 6, 21);
  }
  for (ProcessId p : {2, 3}) {
    deliver(r, p, 6, 20);
    deliver(r, p, 5, 21);
  }

  const auto ctx = r.checkContext();
  const auto fast = verify::checkUniformPrefixOrder(ctx);
  EXPECT_EQ(fast, verify_oracle::checkUniformPrefixOrder(ctx));
  ASSERT_EQ(fast.size(), 4u);  // the four cross pairs
  EXPECT_NE(fast[0].find("at position 4: m5 vs m6"), std::string::npos);
}

TEST(StreamingOrder, PrefixTruncationIsNotAViolation) {
  auto r = syntheticRun();
  const GroupSet both = GroupSet::of({0, 1});
  cast(r, 1, 0, both, 0);
  cast(r, 2, 0, both, 1);
  // p2 stops after m1 (a strict prefix of p0's sequence): legal.
  deliver(r, 0, 1, 10);
  deliver(r, 0, 2, 11);
  deliver(r, 2, 1, 10);
  for (ProcessId p : {1, 3}) {
    deliver(r, p, 1, 12);
    deliver(r, p, 2, 13);
  }

  const auto ctx = r.checkContext();
  const auto fast = verify::checkUniformPrefixOrder(ctx);
  EXPECT_EQ(fast, verify_oracle::checkUniformPrefixOrder(ctx));
  EXPECT_TRUE(fast.empty());
}

TEST(StreamingOrder, IgnoresNonAddresseesAndUnknownMessages) {
  auto r = syntheticRun();
  cast(r, 1, 0, GroupSet::of({0}), 0);  // g0 only
  deliver(r, 0, 1, 10);
  deliver(r, 1, 1, 11);
  deliver(r, 2, 1, 12);   // p2 is not an addressee (integrity's problem)
  deliver(r, 3, 99, 13);  // never cast
  const auto ctx = r.checkContext();
  const auto fast = verify::checkUniformPrefixOrder(ctx);
  EXPECT_EQ(fast, verify_oracle::checkUniformPrefixOrder(ctx));
  EXPECT_TRUE(fast.empty());
}

}  // namespace
}  // namespace wanmc
