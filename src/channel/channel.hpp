// Reliable retransmitting channel substrate (the ROADMAP's
// "liveness through partitions and loss" item).
//
// The paper's algorithms need quasi-reliable channels: a copy sent between
// correct processes is delivered exactly once. The fault plane makes
// partitions and drop filters lose protocol messages for good — which is
// why partition-heal and lossy matrix cells were checked for safety only
// without channels. This plane restores quasi-reliability BELOW the
// stacks, the way a deployment would, as selective-repeat ARQ over
// unreliable, non-FIFO links (Dolev et al.'s bounded retransmission over
// unreliable non-FIFO channels is the theory anchor). It does NOT restore
// FIFO order: the direct send path is non-FIFO too, and every stack runs
// on it.
//
//   * per directed link, DATA packets carry a sequence number, the sender's
//     incarnation, the receiver incarnation the sender is keyed to, and the
//     ORIGINAL modified-Lamport stamp;
//   * the receiver hands each new seq up on its first arrival, in whatever
//     order the wire produced; a ring of seen bits above the lowest
//     undelivered seq suppresses duplicates (copies beyond the ring — the
//     receive window — are dropped, and the sender's RTO re-offers them);
//   * every DATA arrival is answered with a fixed-size ACK: a cumulative
//     ack plus a SACK bitmap, so the sender never re-sends a copy the
//     receiver already has;
//   * a hole is NACKed once, by exact seq runs, when it is OVERDUE: one
//     jitter bound of its link class after the arrival that revealed it,
//     so reordering inside the latency model's jitter never draws a NACK;
//   * each unacked packet records its last send; on RTO only un-SACKed
//     packets at least one (capped-exponentially backed-off) RTO old are
//     re-sent, and the timer re-arms lazily to the oldest deadline. Timers
//     go through Runtime::timer, so a dead process's timers die with it;
//   * copies from a process's DEAD incarnation, and copies addressed to a
//     receiver's dead incarnation, are stale and never delivered;
//   * recovery re-keys the link: a fresh sender incarnation opens a new
//     sequence space, and a sender that learns its peer reincarnated keys
//     to the fresh incarnation and re-offers the un-SACKed backlog as the
//     new space's prefix (the amnesiac receiver lost everything it had
//     acked, and drops whatever is still addressed to its dead self).
//
// Cost-model fidelity: the plane never touches the Lamport clocks. The
// original multicast ticks the sender's clock once per fan-out; every
// (re)transmission carries that stamp, and the receive-side jump happens at
// the handoff (Runtime::deliverFromChannel). DATA is accounted under its
// inner layer (so retransmissions honestly inflate the algorithm's message
// counts); ACK/NACK control traffic is accounted under Layer::kChannel,
// which — like the FD substrate — is excluded from the genuineness/
// quiescence bookkeeping.
//
// Everything is deterministic: no RNG, timers through the scheduler, dense
// link tables iterated in pid order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/ids.hpp"
#include "common/message.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "exec/context.hpp"

namespace wanmc::channel {

// Tuning knobs, all deterministic. The defaults are derived from the
// runtime's latency model at Plane construction where marked.
struct Config {
  // Retransmit timeout of an unacked packet. 0 = derive from the latency
  // model: one worst-case DATA + ACK round trip plus slack.
  SimTime rto = 0;
  // Consecutive barren timeouts double the timer up to rto << maxBackoffExp
  // (so a permanently dead peer costs a bounded, geometric trickle).
  int maxBackoffExp = 4;
  // Receive window per incoming link: a copy is accepted while its seq is
  // at most holdbackCap past the lowest undelivered seq; beyond that it is
  // dropped (holdbackOverflow) and the sender's RTO re-offers it later.
  size_t holdbackCap = 1024;
};

// SACK width: the bitmap covers 1024 seqs from the cumulative ack's 64-seq
// word, a WAN round trip's worth of copies on the busiest link.
inline constexpr size_t kSackWords = 16;
// Hole runs one NACK names; more overdue runs go out in further NACKs.
inline constexpr size_t kNackRuns = 4;

// DATA: one protocol packet riding the channel. Reports the INNER layer so
// traffic accounting and drop filters see the algorithm's packet, not the
// envelope.
struct DataPacket final : Payload {
  PayloadPtr inner;
  Layer innerLayer = Layer::kProtocol;
  uint64_t seq = 0;
  uint64_t sendTs = 0;  // original multicast stamp (modified Lamport)
  uint32_t senderInc = 0;
  uint32_t receiverInc = 0;  // the receiver incarnation the link is keyed to

  [[nodiscard]] Layer layer() const override { return innerLayer; }
  [[nodiscard]] std::string debugString() const override;
};

// A run of seqs [from, to).
struct SeqRun {
  uint64_t from = 0;
  uint64_t to = 0;
};

// ACK/NACK control packet, fixed size: cumulative ack, SACK bitmap, and up
// to kNackRuns overdue hole runs. The two incarnations name the sequence
// space it describes.
struct AckPacket final : Payload {
  uint64_t cumAck = 0;  // every seq < cumAck was delivered
  // Bit b of word w: seq sackBase() + 64 * w + b was delivered.
  std::array<uint64_t, kSackWords> sack{};
  std::array<SeqRun, kNackRuns> nack{};  // the first nackRuns are set
  uint32_t nackRuns = 0;
  uint32_t senderInc = 0;
  uint32_t receiverInc = 0;

  [[nodiscard]] uint64_t sackBase() const { return cumAck & ~uint64_t{63}; }
  [[nodiscard]] Layer layer() const override { return Layer::kChannel; }
  [[nodiscard]] std::string debugString() const override;
};

class Plane final : public exec::ChannelHook {
 public:
  // Does NOT install itself: the owner calls rt.setChannelHook(&plane).
  Plane(exec::Context& rt, Config cfg);

  void onSend(ProcessId from, const std::vector<ProcessId>& tos,
              const PayloadPtr& payload, uint64_t sendTs) override;
  void onWireArrive(ProcessId from, ProcessId to,
                    const PayloadPtr& payload) override;
  void onReset(ProcessId pid) override;

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] SimTime rto() const { return rto_; }

 private:
  struct Unacked {
    PayloadPtr inner;
    Layer innerLayer = Layer::kProtocol;
    bool sacked = false;  // delivered; waits for the cumulative ack
    uint64_t sendTs = 0;
    SimTime lastSent = 0;
  };
  // Sender endpoint of the directed link local -> peer.
  struct OutLink {
    std::deque<Unacked> window;  // unacked, seqs [base, base+window.size())
    uint64_t base = 0;
    exec::EventId timer = exec::kNoEvent;  // the armed RTO, if any
    uint32_t peerInc = 0;  // receiver incarnation the space is keyed to
    bool keyed = false;
    int backoff = 0;
  };
  // Receiver endpoint of the directed link peer -> local. Seqs in
  // [nextExpected, frontier) are either seen or holes; both rings index
  // seq s at slot s % (64 * seen.size()).
  struct InLink {
    std::vector<uint64_t> seen;   // seen bits above nextExpected
    std::vector<SimTime> nackAt;  // a hole's overdue time; kTimeNever: NACKed
    uint64_t nextExpected = 0;    // lowest undelivered seq
    uint64_t frontier = 0;        // one past the highest seq seen
    exec::EventId nackTimer = exec::kNoEvent;
    uint32_t peerInc = 0;  // sender incarnation this space belongs to
    bool known = false;    // adopted a sender incarnation's space yet?

    [[nodiscard]] size_t slot(uint64_t s) const {
      return static_cast<size_t>(s % (64 * seen.size()));
    }
    [[nodiscard]] bool isSeen(uint64_t s) const {
      return (seen[slot(s) / 64] >> (s % 64) & 1) != 0;
    }
  };
  // Per link class (intra- or inter-group), from the latency model.
  struct LinkClass {
    SimTime jitter = 0;  // max - min + 1us: reorder tolerance of a hole
    SimTime minRtt = 0;  // a NACK cannot report a copy sent more recently
  };

  OutLink& out(ProcessId local, ProcessId peer) {
    return out_[static_cast<size_t>(local) * static_cast<size_t>(n_) +
                static_cast<size_t>(peer)];
  }
  InLink& in(ProcessId local, ProcessId peer) {
    return in_[static_cast<size_t>(local) * static_cast<size_t>(n_) +
               static_cast<size_t>(peer)];
  }
  const LinkClass& linkClass(ProcessId a, ProcessId b) const {
    return rt_.topology().sameGroup(a, b) ? intra_ : inter_;
  }

  void transmit(ProcessId from, ProcessId to, const OutLink& ol, uint64_t seq,
                Unacked& u);
  void armRto(ProcessId from, ProcessId to, OutLink& ol, SimTime at);
  void onRto(ProcessId from, ProcessId to);
  void disarm(exec::EventId& timer);
  void rekey(ProcessId from, ProcessId to, OutLink& ol, uint32_t peerInc);
  void adopt(InLink& il, uint32_t senderInc);
  void armNack(ProcessId self, ProcessId sender, InLink& il, SimTime at);
  void onNackDue(ProcessId self, ProcessId sender);
  void handleData(ProcessId sender, ProcessId self, const DataPacket& d);
  void handleAck(ProcessId acker, ProcessId self, const AckPacket& a);
  // `il` is null when answering DATA addressed to a dead incarnation.
  void sendAck(ProcessId self, ProcessId sender, uint32_t senderInc,
               const InLink* il, const SeqRun* nack = nullptr,
               size_t nackRuns = 0);

  exec::Context& rt_;
  Config cfg_;
  SimTime rto_ = 0;
  LinkClass intra_;
  LinkClass inter_;
  int n_ = 0;
  std::vector<OutLink> out_;  // n*n, indexed local*n + peer
  std::vector<InLink> in_;
  std::vector<SeqRun> overdue_;  // onNackDue scratch
  ChannelStats stats_;
};

}  // namespace wanmc::channel
