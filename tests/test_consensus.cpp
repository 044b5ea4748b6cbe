// Unit tests for the per-group uniform consensus implementations
// (EarlyConsensus and CtConsensus), including crash and suspicion cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "sim/runtime.hpp"
#include "consensus/consensus.hpp"
#include "core/stack_node.hpp"

namespace wanmc {
namespace {

using consensus::ConsensusKind;
using consensus::Instance;

// A bare test node hosting one consensus service over its whole group, or
// over every process of the topology when `acrossGroups` is set.
class ConsensusHost final : public core::StackNode {
 public:
  ConsensusHost(sim::Runtime& rt, ProcessId pid, const core::StackConfig& cfg,
                bool acrossGroups = false)
      : core::StackNode(rt, pid, cfg) {
    svc = acrossGroups ? &addConsensus(0, rt.topology().allProcesses())
                       : &addGroupConsensus();
    svc->onDecide([this](Instance k, const ConsensusValue& v) {
      decisions[k] = v;
      decisionOrder.push_back(k);
      decidedAtLamport = runtime().lamport(this->pid());
    });
  }
  void onProtocolMessage(ProcessId, const PayloadPtr&) override {}

  consensus::ConsensusService* svc = nullptr;
  std::map<Instance, ConsensusValue> decisions;
  std::vector<Instance> decisionOrder;
  uint64_t decidedAtLamport = 0;  // modified Lamport clock at the decision
};

struct Fixture {
  explicit Fixture(int procs, ConsensusKind kind, uint64_t seed = 1,
                   fd::FdKind fdKind = fd::FdKind::kOracle)
      : rt(Topology(1, procs), sim::LatencyModel::fixed(kMs, 100 * kMs),
           seed) {
    core::StackConfig cfg;
    cfg.consensusKind = kind;
    cfg.fdKind = fdKind;
    cfg.fdOracleDelay = 10 * kMs;
    for (ProcessId p = 0; p < procs; ++p) {
      auto n = std::make_unique<ConsensusHost>(rt, p, cfg);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.start();
  }

  sim::Runtime rt;
  std::vector<ConsensusHost*> hosts;
};

ConsensusValue num(uint64_t v) { return ConsensusValue{v}; }

class ConsensusParamTest : public ::testing::TestWithParam<ConsensusKind> {};

TEST_P(ConsensusParamTest, SingleProcessDecidesOwnValue) {
  Fixture f(1, GetParam());
  f.hosts[0]->svc->propose(1, num(42));
  f.rt.run();
  ASSERT_TRUE(f.hosts[0]->decisions.count(1));
  EXPECT_TRUE(valueEquals(f.hosts[0]->decisions[1], num(42)));
}

TEST_P(ConsensusParamTest, AllDecideSameValue) {
  Fixture f(3, GetParam());
  for (int p = 0; p < 3; ++p)
    f.hosts[p]->svc->propose(1, num(100 + static_cast<uint64_t>(p)));
  f.rt.run();
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(f.hosts[p]->decisions.count(1)) << "p" << p;
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[1],
                            f.hosts[0]->decisions[1]));
  }
}

TEST_P(ConsensusParamTest, UniformIntegrityDecidedWasProposed) {
  Fixture f(5, GetParam());
  for (int p = 0; p < 5; ++p)
    f.hosts[p]->svc->propose(1, num(static_cast<uint64_t>(p)));
  f.rt.run();
  const auto& d = f.hosts[0]->decisions[1];
  const auto v = std::get<uint64_t>(d);
  EXPECT_LT(v, 5u);
}

TEST_P(ConsensusParamTest, IndependentInstances) {
  Fixture f(3, GetParam());
  for (int p = 0; p < 3; ++p) {
    f.hosts[p]->svc->propose(7, num(70));
    f.hosts[p]->svc->propose(9, num(90));
  }
  f.rt.run();
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[7], num(70)));
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[9], num(90)));
  }
}

TEST_P(ConsensusParamTest, LatecomerProposerStillDecides) {
  Fixture f(3, GetParam());
  f.hosts[0]->svc->propose(1, num(5));
  f.hosts[1]->svc->propose(1, num(6));
  f.rt.run();  // majority may already decide
  f.hosts[2]->svc->propose(1, num(7));
  f.rt.run();
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(f.hosts[p]->decisions.count(1)) << "p" << p;
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[1],
                            f.hosts[0]->decisions[1]));
  }
}

TEST_P(ConsensusParamTest, ToleratesMinorityCrashBeforePropose) {
  Fixture f(3, GetParam());
  f.rt.crash(2);
  f.hosts[0]->svc->propose(1, num(11));
  f.hosts[1]->svc->propose(1, num(12));
  f.rt.run();
  ASSERT_TRUE(f.hosts[0]->decisions.count(1));
  ASSERT_TRUE(f.hosts[1]->decisions.count(1));
  EXPECT_TRUE(
      valueEquals(f.hosts[0]->decisions[1], f.hosts[1]->decisions[1]));
}

TEST_P(ConsensusParamTest, ToleratesCoordinatorCrashMidInstance) {
  Fixture f(5, GetParam());
  // The round-1 coordinator of instance 1 is members[(1 + 0) % 5] = p1.
  // Crash it shortly after proposals go out.
  for (int p = 0; p < 5; ++p)
    f.hosts[p]->svc->propose(1, num(static_cast<uint64_t>(p) + 1));
  f.rt.scheduleCrash(1, kMs / 2);
  f.rt.run();
  std::optional<uint64_t> decided;
  for (int p = 0; p < 5; ++p) {
    if (p == 1) continue;
    ASSERT_TRUE(f.hosts[p]->decisions.count(1)) << "p" << p;
    const auto v = std::get<uint64_t>(f.hosts[p]->decisions[1]);
    if (!decided) decided = v;
    EXPECT_EQ(*decided, v);
  }
}

TEST_P(ConsensusParamTest, ManySequentialInstances) {
  Fixture f(3, GetParam());
  for (Instance k = 1; k <= 20; ++k)
    for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(k, num(k * 10));
  f.rt.run();
  for (int p = 0; p < 3; ++p)
    for (Instance k = 1; k <= 20; ++k)
      EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[k], num(k * 10)));
}

TEST_P(ConsensusParamTest, SparseInstanceNumbers) {
  // A1 numbers instances by the (jumping) group clock.
  Fixture f(3, GetParam());
  for (Instance k : {5u, 17u, 1000000u})
    for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(k, num(k));
  f.rt.run();
  for (int p = 0; p < 3; ++p)
    for (Instance k : {5u, 17u, 1000000u})
      EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[k], num(k)));
}

TEST_P(ConsensusParamTest, SecondProposalPerInstanceIgnored) {
  Fixture f(3, GetParam());
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, num(1));
  f.rt.run();
  const auto before = f.hosts[0]->decisions[1];
  f.hosts[0]->svc->propose(1, num(999));
  f.rt.run();
  EXPECT_TRUE(valueEquals(f.hosts[0]->decisions[1], before));
}

TEST_P(ConsensusParamTest, WorksWithHeartbeatFd) {
  Fixture f(3, GetParam(), /*seed=*/3, fd::FdKind::kHeartbeat);
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, num(8));
  f.rt.run(5 * kSec);  // heartbeats never stop; bound the run
  for (int p = 0; p < 3; ++p)
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[1], num(8)));
}

TEST_P(ConsensusParamTest, CrashWithHeartbeatFdStillLive) {
  Fixture f(3, GetParam(), /*seed=*/4, fd::FdKind::kHeartbeat);
  for (int p = 0; p < 3; ++p)
    f.hosts[p]->svc->propose(1, num(static_cast<uint64_t>(p)));
  f.rt.scheduleCrash(1, kMs);
  f.rt.run(10 * kSec);
  ASSERT_TRUE(f.hosts[0]->decisions.count(1));
  ASSERT_TRUE(f.hosts[2]->decisions.count(1));
  EXPECT_TRUE(
      valueEquals(f.hosts[0]->decisions[1], f.hosts[2]->decisions[1]));
}

TEST_P(ConsensusParamTest, BundleValuesRoundTrip) {
  Fixture f(3, GetParam());
  MsgBundle b{makeAppMessage(3, 0, GroupSet::of({0})),
              makeAppMessage(1, 1, GroupSet::of({0}))};
  canonicalize(b);
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, b);
  f.rt.run();
  const auto& d = std::get<MsgBundle>(f.hosts[1]->decisions[1]);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0]->id, 1u);
  EXPECT_EQ(d[1]->id, 3u);
}

TEST_P(ConsensusParamTest, DecidedInstancesReleaseRoundState) {
  Fixture f(3, GetParam());
  for (Instance k = 1; k <= 20; ++k)
    for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(k, num(k));
  f.rt.run();
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(f.hosts[p]->decisions.size(), 20u) << "p" << p;
    EXPECT_EQ(f.hosts[p]->svc->retainedAfterDecision(), 0u) << "p" << p;
  }
}

TEST_P(ConsensusParamTest, LateAckOrEstimateForDecidedInstanceSendsNothing) {
  Fixture f(3, GetParam());
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, num(5));
  f.rt.run();
  const auto before = f.rt.traffic().at(Layer::kConsensus);
  for (auto type : {consensus::ConsensusPayload::Type::kAck,
                    consensus::ConsensusPayload::Type::kEstimate}) {
    // Round 2 is coordinated by p2: a live round state there would have
    // collected these estimates into a proposal.
    consensus::ConsensusPayload late;
    late.scope = f.hosts[0]->svc->scope();
    late.instance = 1;
    late.round = 2;
    late.type = type;
    late.value = std::make_shared<const ConsensusValue>(num(6));
    late.estRound = 1;
    for (int p = 0; p < 3; ++p)
      for (ProcessId from = 0; from < 3; ++from)
        f.hosts[p]->svc->onMessage(from, late);
  }
  f.rt.run();
  const auto after = f.rt.traffic().at(Layer::kConsensus);
  EXPECT_EQ(after.intra, before.intra);
  EXPECT_EQ(after.inter, before.inter);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(f.hosts[p]->decisionOrder.size(), 1u) << "p" << p;
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[1], num(5))) << "p" << p;
    EXPECT_EQ(f.hosts[p]->svc->retainedAfterDecision(), 0u) << "p" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ConsensusParamTest,
                         ::testing::Values(ConsensusKind::kEarly,
                                           ConsensusKind::kCt),
                         [](const auto& info) {
                           return info.param == ConsensusKind::kEarly
                                      ? "Early"
                                      : "ChandraToueg";
                         });

TEST(EarlyConsensus, DecidesInTwoIntraDelaysFailureFree) {
  // The early-deciding fast path: propose -> PROPOSE broadcast -> ACK
  // broadcast -> decide. With 1ms intra links that is ~2-3ms, well under
  // one WAN delay — the basis of the paper's "consensus costs no
  // inter-group delay" accounting.
  Fixture f(3, ConsensusKind::kEarly);
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, num(1));
  f.rt.run(5 * kMs);
  for (int p = 0; p < 3; ++p) EXPECT_TRUE(f.hosts[p]->decisions.count(1));
}

// Paper §6 (Figure 1 footnote): one early-consensus instance run ACROSS k
// groups of d processes decides at latency degree 2, and its inter-group
// message count stays within [11]'s 2kd(kd-1). The counts are exact
// (failure-free, jitter-free) and include the decide relay.
TEST(EarlyConsensus, AcrossGroupsDegreeTwoAndMessageBound) {
  struct Case {
    int k, d;
    uint64_t inter;
  };
  for (const Case c : {Case{2, 2, 18}, Case{3, 2, 52}, Case{2, 3, 39},
                       Case{3, 3, 114}}) {
    sim::Runtime rt(Topology(c.k, c.d),
                    sim::LatencyModel::fixed(kMs / 10, 100 * kMs), 1);
    core::StackConfig cfg;
    cfg.consensusKind = ConsensusKind::kEarly;
    std::vector<ConsensusHost*> hosts;
    for (ProcessId p = 0; p < c.k * c.d; ++p) {
      auto n = std::make_unique<ConsensusHost>(rt, p, cfg,
                                               /*acrossGroups=*/true);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.start();
    for (auto* h : hosts) h->svc->propose(1, num(42));
    rt.run();
    uint64_t degree = 0;  // proposals start at clock 0
    for (auto* h : hosts) {
      ASSERT_TRUE(h->decisions.count(1)) << "k=" << c.k << " d=" << c.d;
      degree = std::max(degree, h->decidedAtLamport);
    }
    const uint64_t n = static_cast<uint64_t>(c.k * c.d);
    const uint64_t inter = rt.traffic().at(Layer::kConsensus).inter;
    EXPECT_EQ(degree, 2u) << "k=" << c.k << " d=" << c.d;
    EXPECT_EQ(inter, c.inter) << "k=" << c.k << " d=" << c.d;
    EXPECT_LE(inter, 2 * n * (n - 1)) << "k=" << c.k << " d=" << c.d;
  }
}

TEST(Consensus, NoInterGroupTrafficForGroupScopedInstances) {
  Fixture f(3, ConsensusKind::kEarly);
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, num(1));
  f.rt.run();
  EXPECT_EQ(f.rt.traffic().at(Layer::kConsensus).inter, 0u);
  EXPECT_GT(f.rt.traffic().at(Layer::kConsensus).intra, 0u);
}

}  // namespace
}  // namespace wanmc
