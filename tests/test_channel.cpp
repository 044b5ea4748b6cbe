// Unit tests for the reliable retransmitting channel substrate
// (src/channel/): exactly-once delivery in any order under reorder, loss
// recovery via selective RTO retransmit and overdue-hole NACKs, duplicate
// and stale-incarnation suppression, the bounded receive window, a wire
// that duplicates every copy, and the loss model underneath it all.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel.hpp"
#include "sim/runtime.hpp"

namespace wanmc {
namespace {

struct TestMsg final : Payload {
  explicit TestMsg(int i) : id(i) {}
  int id;
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
  [[nodiscard]] std::string debugString() const override {
    return "t" + std::to_string(id);
  }
};

class ChanHost final : public sim::Node {
 public:
  using sim::Node::Node;
  void onMessage(ProcessId from, const PayloadPtr& p) override {
    if (const auto* m = dynamic_cast<const TestMsg*>(p.get()))
      got.push_back({from, m->id});
  }
  std::vector<std::pair<ProcessId, int>> got;
};

struct ChanFixture {
  ChanFixture(int groups, int procs, sim::LatencyModel lm,
              channel::Config cfg = {}, uint64_t seed = 1)
      : rt(Topology(groups, procs), lm, seed), plane(rt, cfg) {
    rt.setChannelHook(&plane);
    for (ProcessId p = 0; p < rt.topology().numProcesses(); ++p) {
      auto n = std::make_unique<ChanHost>(rt, p);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.setNodeFactory([this](ProcessId p) {
      auto n = std::make_unique<ChanHost>(rt, p);
      hosts[static_cast<size_t>(p)] = n.get();
      return n;
    });
    rt.start();
  }

  std::vector<int> idsAt(ProcessId p) const {
    std::vector<int> out;
    for (const auto& [from, id] : hosts[static_cast<size_t>(p)]->got)
      out.push_back(id);
    return out;
  }

  sim::Runtime rt;
  channel::Plane plane;
  std::vector<ChanHost*> hosts;
};

std::vector<int> iota(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) out.push_back(i);
  return out;
}

// The quasi-reliable contract: every id exactly once, in any order.
std::vector<int> sorted(std::vector<int> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---------------------------------------------------------------------------
// Counters on a clean link, and reordering passed through.
// ---------------------------------------------------------------------------

TEST(Channel, CleanLinkDeliversInOrderWithMinimalTraffic) {
  ChanFixture f(1, 3, sim::LatencyModel::fixed(kMs, 100 * kMs));
  for (int i = 0; i < 8; ++i)
    f.rt.multicast(0, {1, 2}, std::make_shared<TestMsg>(i));
  f.rt.run(10 * kSec);
  EXPECT_EQ(f.idsAt(1), iota(8));
  EXPECT_EQ(f.idsAt(2), iota(8));
  const auto& s = f.plane.stats();
  EXPECT_EQ(s.dataSent, 16u);   // one per (message, destination)
  EXPECT_EQ(s.delivered, 16u);
  EXPECT_EQ(s.acksSent, 16u);   // one cumulative ACK per DATA arrival
  EXPECT_EQ(s.retransmits, 0u);  // nothing lost: the RTO never fires
  EXPECT_EQ(s.nacksSent, 0u);
  EXPECT_EQ(s.duplicatesDropped, 0u);
  EXPECT_EQ(s.staleDropped, 0u);
  EXPECT_EQ(s.holdbackOverflow, 0u);
}

TEST(Channel, ReorderingJitterDrawsNoNackOrRetransmit) {
  // Wide iid jitter: 30 copies drawn independently from [1ms, 50ms] arrive
  // scrambled. Each is handed up once, on arrival, and no hole is overdue
  // before the jitter bound has passed, so nothing is NACKed or re-sent.
  ChanFixture f(1, 2, sim::LatencyModel{kMs, 50 * kMs, kMs, 50 * kMs});
  for (int i = 0; i < 30; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  f.rt.run(30 * kSec);
  EXPECT_EQ(sorted(f.idsAt(1)), iota(30));
  EXPECT_EQ(f.plane.stats().delivered, 30u);
  EXPECT_EQ(f.plane.stats().nacksSent, 0u);
  EXPECT_EQ(f.plane.stats().retransmits, 0u);
  // The premise actually bit: the wire reordered, and the channel passed
  // the reordering through instead of holding copies back.
  EXPECT_NE(f.idsAt(1), iota(30))
      << "seed 1 must scramble at least one pair for this test to bite; "
         "pick another seed if the latency RNG changes";
}

// ---------------------------------------------------------------------------
// Loss recovery.
// ---------------------------------------------------------------------------

TEST(Channel, LossIsRecoveredExactlyOnce) {
  ChanFixture f(2, 1, sim::LatencyModel::fixed(kMs, 100 * kMs));
  f.rt.setLossRate(0.3);
  for (int i = 0; i < 30; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  f.rt.run(120 * kSec);
  EXPECT_EQ(sorted(f.idsAt(1)), iota(30));  // every loss masked, no dup
  const auto& s = f.plane.stats();
  EXPECT_GT(f.rt.trace().lossDrops, 0u);
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_EQ(s.delivered, 30u);
  // Selective repeat: every re-send answers a lost copy (DATA, ACK or
  // NACK), never a copy the receiver was known to hold.
  EXPECT_LE(s.retransmits, f.rt.trace().lossDrops);
}

TEST(Channel, BoundedHoldbackOverflowStillConvergesViaRetransmit) {
  // Drop the first transmission of seq 0 only: seqs 1..4 arrive behind the
  // gap, the receive window (seq 0 plus two above it) takes {1,2} and
  // sheds {3,4}, and the NACK + RTO machinery re-offers the rest.
  channel::Config cfg;
  cfg.holdbackCap = 2;
  ChanFixture f(1, 2, sim::LatencyModel::fixed(kMs, 100 * kMs), cfg);
  int dropped = 0;
  f.rt.setDropFilter([&dropped](ProcessId, ProcessId, const Payload& p) {
    const auto* d = dynamic_cast<const channel::DataPacket*>(&p);
    if (d != nullptr && d->seq == 0 && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  for (int i = 0; i < 5; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  f.rt.run(30 * kSec);
  EXPECT_EQ(sorted(f.idsAt(1)), iota(5));
  const auto& s = f.plane.stats();
  EXPECT_EQ(s.holdbackOverflow, 2u);  // seqs 3 and 4 fell beyond the window
  EXPECT_GT(s.nacksSent, 0u);         // the gap was NACKed...
  EXPECT_GT(s.retransmits, 0u);       // ...and re-offered
  EXPECT_EQ(s.delivered, 5u);
}

TEST(Channel, NackDoesNotRepeatAFreshRetransmit) {
  // Seq 0 is lost; seq 1, sent 10ms later, reveals the hole at 110ms and
  // the NACK reaches p0 at ~210ms. The RTO (203ms here) has re-sent seq 0
  // by then: the NACK left before that copy could have arrived, so it must
  // not draw a second copy.
  ChanFixture f(2, 1, sim::LatencyModel::fixed(kMs, 100 * kMs));
  ASSERT_EQ(f.plane.rto(), 203 * kMs);
  int dropped = 0;
  f.rt.setDropFilter([&dropped](ProcessId, ProcessId, const Payload& p) {
    const auto* d = dynamic_cast<const channel::DataPacket*>(&p);
    if (d != nullptr && d->seq == 0 && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  f.rt.send(0, 1, std::make_shared<TestMsg>(0));
  f.rt.scheduler().at(10 * kMs, [&f]() {
    f.rt.send(0, 1, std::make_shared<TestMsg>(1));
  });
  f.rt.run(10 * kSec);
  EXPECT_EQ(sorted(f.idsAt(1)), iota(2));
  const auto& s = f.plane.stats();
  EXPECT_EQ(s.nacksSent, 1u);
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_EQ(s.duplicatesDropped, 0u);
}

// ---------------------------------------------------------------------------
// Incarnations: stale suppression and link re-keying.
// ---------------------------------------------------------------------------

TEST(Channel, StaleIncarnationCopiesAreDroppedNotDelivered) {
  // p0's first DATA (incarnation 0, seq 0) is still in flight when p0
  // crashes and recovers; the fresh incarnation reuses seq 0 for a NEW
  // message. Without the (sender incarnation, seq) key the straggler
  // would either be delivered under the fresh space or suppress the
  // legitimate fresh seq 0.
  ChanFixture f(2, 1, sim::LatencyModel::fixed(kMs, 100 * kMs));
  f.rt.send(0, 1, std::make_shared<TestMsg>(100));  // inc 0, arrives t=100ms
  f.rt.scheduleCrash(0, 10 * kMs);
  f.rt.scheduleRecover(0, 20 * kMs);
  f.rt.scheduler().at(30 * kMs, [&f]() {
    f.rt.send(0, 1, std::make_shared<TestMsg>(200));  // inc 1, seq 0 again
  });
  f.rt.run(10 * kSec);
  EXPECT_EQ(f.idsAt(1), std::vector<int>{200});
  EXPECT_EQ(f.plane.stats().staleDropped, 1u);
  EXPECT_EQ(f.plane.stats().delivered, 1u);
}

TEST(Channel, ReceiverRecoveryRekeysTheLinkAndReoffersTheBacklog) {
  // p1 acks ids 0..1, crashes, and rejoins as an amnesiac while p0 still
  // holds unacked ids 2..4. p1's fresh ACK reveals the new incarnation;
  // p0 must re-key the link (keyed to the fresh incarnation, sequence space
  // from 0) and re-offer the backlog, which the fresh p1 delivers once.
  ChanFixture f(2, 1, sim::LatencyModel::fixed(kMs, 100 * kMs));
  for (int i = 0; i < 2; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  // ids 0,1 arrive at 100ms, ACKs back at 200ms. Crash after the ACKs.
  f.rt.scheduleCrash(1, 250 * kMs);
  f.rt.scheduler().at(300 * kMs, [&f]() {
    for (int i = 2; i < 5; ++i)
      f.rt.send(0, 1, std::make_shared<TestMsg>(i));  // into the void
  });
  f.rt.scheduleRecover(1, 390 * kMs);  // alive again before the copies land
  f.rt.run(60 * kSec);
  // The fresh incarnation saw exactly the unacked backlog, in order
  // (ids 0..1 died with the old incarnation's state — by design).
  EXPECT_EQ(f.idsAt(1), (std::vector<int>{2, 3, 4}));
  EXPECT_GT(f.plane.stats().retransmits, 0u);
}

TEST(Channel, FreshReceiverDropsDataAddressedToItsDeadIncarnation) {
  // The same script, observed at the seam: ids 2..4 leave p0 keyed to p1's
  // dead incarnation and land on the fresh one at 400ms, BEFORE any ACK of
  // the fresh incarnation has reached p0. Handing them up on arrival would
  // deliver them twice once the re-key re-offers them; the fresh receiver
  // must drop all three and let its ACKs trigger the re-key instead.
  ChanFixture f(2, 1, sim::LatencyModel::fixed(kMs, 100 * kMs));
  for (int i = 0; i < 2; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  f.rt.scheduleCrash(1, 250 * kMs);
  f.rt.scheduler().at(300 * kMs, [&f]() {
    for (int i = 2; i < 5; ++i)
      f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  });
  f.rt.scheduleRecover(1, 390 * kMs);
  f.rt.run(450 * kMs);  // the old-space copies have landed; no re-key yet
  EXPECT_TRUE(f.idsAt(1).empty());
  EXPECT_EQ(f.plane.stats().staleDropped, 3u);
  EXPECT_EQ(f.plane.stats().retransmits, 0u);
  f.rt.run(60 * kSec);
  // The re-offered backlog, each packet exactly once.
  EXPECT_EQ(sorted(f.idsAt(1)), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(f.plane.stats().retransmits, 3u);  // one re-key re-offer each
  EXPECT_EQ(f.plane.stats().duplicatesDropped, 0u);
}

// ---------------------------------------------------------------------------
// Adversary below the ARQ plane: a wire that duplicates every copy.
// ---------------------------------------------------------------------------

// Test-only decorator between the runtime and the plane: every wire copy
// reaches the plane twice. It also reads each ACK on its way in, so the
// test knows which seqs a sender has been told the receiver holds.
class DuplicatingWire final : public exec::ChannelHook {
 public:
  explicit DuplicatingWire(channel::Plane& plane) : plane_(plane) {}

  void onSend(ProcessId from, const std::vector<ProcessId>& tos,
              const PayloadPtr& payload, uint64_t sendTs) override {
    plane_.onSend(from, tos, payload, sendTs);
  }
  void onWireArrive(ProcessId from, ProcessId to,
                    const PayloadPtr& payload) override {
    if (const auto* a = dynamic_cast<const channel::AckPacket*>(payload.get()))
      recordAck(/*sender=*/to, /*receiver=*/from, *a);
    plane_.onWireArrive(from, to, payload);
    plane_.onWireArrive(from, to, payload);
  }
  void onReset(ProcessId pid) override { plane_.onReset(pid); }

  // True once an ACK of `receiver` covering `seq` (cumulatively or by
  // SACK) has reached `sender`.
  bool acked(ProcessId sender, ProcessId receiver, uint64_t seq) const {
    const auto it = acked_.find({sender, receiver});
    return it != acked_.end() &&
           (seq < it->second.cum || it->second.sacked.count(seq) != 0);
  }

 private:
  struct Known {
    uint64_t cum = 0;
    std::set<uint64_t> sacked;
  };
  void recordAck(ProcessId sender, ProcessId receiver,
                 const channel::AckPacket& a) {
    Known& k = acked_[{sender, receiver}];
    k.cum = std::max(k.cum, a.cumAck);
    for (size_t w = 0; w < channel::kSackWords; ++w)
      for (uint64_t b = 0; b < 64; ++b)
        if ((a.sack[w] >> b & 1) != 0)
          k.sacked.insert(a.sackBase() + 64 * w + b);
  }

  channel::Plane& plane_;
  std::map<std::pair<ProcessId, ProcessId>, Known> acked_;
};

TEST(Channel, DuplicatingWireUnderJitterAndLossDeliversExactlyOnce) {
  // Four processes multicast to each other over [1ms, 50ms] iid jitter and
  // 5% loss, with every surviving copy (DATA and ACK alike) arriving twice.
  ChanFixture f(2, 2, sim::LatencyModel{kMs, 50 * kMs, kMs, 50 * kMs});
  DuplicatingWire wire(f.plane);
  f.rt.setChannelHook(&wire);
  f.rt.setLossRate(0.05);
  int sackedResends = 0;
  f.rt.setDropFilter([&](ProcessId from, ProcessId to, const Payload& p) {
    const auto* d = dynamic_cast<const channel::DataPacket*>(&p);
    if (d != nullptr && wire.acked(from, to, d->seq)) ++sackedResends;
    return false;  // observe every transmission, drop nothing
  });
  constexpr int kPerSender = 60;
  for (ProcessId p = 0; p < 4; ++p) {
    std::vector<ProcessId> others;
    for (ProcessId q = 0; q < 4; ++q)
      if (q != p) others.push_back(q);
    for (int i = 0; i < kPerSender; ++i)
      f.rt.scheduler().at((p + 4 * i) * kMs, [&f, p, others, i]() {
        f.rt.multicast(p, others,
                       std::make_shared<TestMsg>(1000 * p + i));
      });
  }
  f.rt.run(120 * kSec);

  for (ProcessId to = 0; to < 4; ++to) {
    std::map<ProcessId, std::vector<int>> perLink;
    for (const auto& [from, id] : f.hosts[static_cast<size_t>(to)]->got)
      perLink[from].push_back(id - 1000 * from);
    for (ProcessId from = 0; from < 4; ++from) {
      if (from == to) continue;
      EXPECT_EQ(sorted(perLink[from]), iota(kPerSender))
          << "link p" << from << " -> p" << to;
    }
  }
  const auto& s = f.plane.stats();
  EXPECT_EQ(s.delivered, 4u * 3u * kPerSender);
  EXPECT_EQ(sackedResends, 0);
  // The adversary bit: losses were recovered and every copy was doubled.
  EXPECT_GT(f.rt.trace().lossDrops, 0u);
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_GE(s.duplicatesDropped, s.dataSent);
  EXPECT_EQ(s.staleDropped, 0u);
}

// ---------------------------------------------------------------------------
// The loss model itself (channels off).
// ---------------------------------------------------------------------------

TEST(LossModel, DropsCopiesWithoutChannelsAndValidatesRange) {
  sim::Runtime rt(Topology(2, 1), sim::LatencyModel::fixed(kMs, 100 * kMs),
                  1);
  EXPECT_THROW(rt.setLossRate(-0.1), std::invalid_argument);
  EXPECT_THROW(rt.setLossRate(1.0), std::invalid_argument);
  rt.setLossRate(0.5);
  std::vector<ChanHost*> hosts;
  for (ProcessId p = 0; p < 2; ++p) {
    auto n = std::make_unique<ChanHost>(rt, p);
    hosts.push_back(n.get());
    rt.attach(p, std::move(n));
  }
  rt.start();
  for (int i = 0; i < 100; ++i)
    rt.send(0, 1, std::make_shared<TestMsg>(i));
  rt.run(10 * kSec);
  EXPECT_GT(rt.trace().lossDrops, 0u);
  EXPECT_EQ(hosts[1]->got.size() + rt.trace().lossDrops, 100u);
  EXPECT_GT(hosts[1]->got.size(), 0u);
}

TEST(LossModel, ZeroRateDrawsNoCoinsAndRunsAreByteIdentical) {
  // Arming then disarming nothing: a 0-loss run must match a run where
  // setLossRate was never called (the coin stream is gated, not merely
  // ignored) — this is what pins the 436 golden cells channels-off.
  auto runOnce = [](bool touchKnob) {
    sim::Runtime rt(Topology(2, 2),
                    sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs}, 7);
    if (touchKnob) rt.setLossRate(0.0);
    std::vector<ChanHost*> hosts;
    for (ProcessId p = 0; p < 4; ++p) {
      auto n = std::make_unique<ChanHost>(rt, p);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.start();
    for (int i = 0; i < 20; ++i)
      rt.multicast(0, {1, 2, 3}, std::make_shared<TestMsg>(i));
    rt.run(10 * kSec);
    std::vector<std::pair<ProcessId, int>> all;
    for (auto* h : hosts)
      all.insert(all.end(), h->got.begin(), h->got.end());
    return all;
  };
  EXPECT_EQ(runOnce(false), runOnce(true));
}

}  // namespace
}  // namespace wanmc
