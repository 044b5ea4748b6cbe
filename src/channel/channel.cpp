#include "channel/channel.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>

#include "common/arena.hpp"
#include "common/hot.hpp"

namespace wanmc::channel {

std::string DataPacket::debugString() const {
  std::ostringstream os;
  os << "chan-data{seq=" << seq << " inc=" << senderInc << "->" << receiverInc
     << " " << inner->debugString() << "}";
  return os.str();
}

std::string AckPacket::debugString() const {
  std::ostringstream os;
  os << "chan-ack{cum=" << cumAck << " sacked=";
  int sacked = 0;
  for (uint64_t w : sack) sacked += std::popcount(w);
  os << sacked;
  for (uint32_t i = 0; i < nackRuns; ++i)
    os << " nack=[" << nack[i].from << "," << nack[i].to << ")";
  os << " inc=" << senderInc << "->" << receiverInc << "}";
  return os.str();
}

Plane::Plane(exec::Context& rt, Config cfg)
    : rt_(rt), cfg_(cfg), n_(rt.topology().numProcesses()) {
  const auto& lm = rt_.latencyModel();
  // One worst-case DATA + ACK round trip over the slowest link class, plus
  // slack for the receiver's turnaround. Deterministic in the model.
  const SimTime oneWay = std::max(lm.interMax, lm.intraMax);
  rto_ = cfg_.rto > 0 ? cfg_.rto : 2 * oneWay + 2 * lm.intraMax + 1 * kMs;
  intra_ = {lm.intraMax - lm.intraMin + 1, 2 * lm.intraMin};
  inter_ = {lm.interMax - lm.interMin + 1, 2 * lm.interMin};
  out_.resize(static_cast<size_t>(n_) * static_cast<size_t>(n_));
  in_.resize(static_cast<size_t>(n_) * static_cast<size_t>(n_));
}

// ---------------------------------------------------------------------------
// Sender side.
// ---------------------------------------------------------------------------

WANMC_HOT void Plane::onSend(ProcessId from, const std::vector<ProcessId>& tos,
                             const PayloadPtr& payload, uint64_t sendTs) {
  const Layer layer = payload->layer();
  const SimTime now = rt_.now();
  for (ProcessId to : tos) {
    OutLink& ol = out(from, to);
    if (!ol.keyed) {
      // First contact: key the space to the receiver's current incarnation
      // (the backend's incarnation query stands in for a handshake).
      ol.peerInc = rt_.incarnation(to);
      ol.keyed = true;
    }
    const uint64_t seq = ol.base + ol.window.size();
    ol.window.push_back(Unacked{payload, layer, false, sendTs, now});
    ++stats_.dataSent;
    transmit(from, to, ol, seq, ol.window.back());
    armRto(from, to, ol, now + (rto_ << ol.backoff));
  }
}

WANMC_HOT void Plane::transmit(ProcessId from, ProcessId to,
                               const OutLink& ol, uint64_t seq, Unacked& u) {
  // One envelope per wire copy, fused with its control block in one pooled
  // block that is recycled once the copy has been handled.
  auto pkt = std::allocate_shared<DataPacket>(
      PoolAllocator<DataPacket>(&rt_.payloadArena()));
  pkt->inner = u.inner;
  pkt->innerLayer = u.innerLayer;
  pkt->seq = seq;
  pkt->sendTs = u.sendTs;
  pkt->senderInc = rt_.incarnation(from);
  pkt->receiverInc = ol.peerInc;
  u.lastSent = rt_.now();
  rt_.channelSend(from, to, std::move(pkt), u.innerLayer);
}

void Plane::armRto(ProcessId from, ProcessId to, OutLink& ol, SimTime at) {
  // Lazy: one timer per link, at the oldest deadline when armed. Progress
  // never re-arms it; onRto re-arms to whatever deadline is then oldest.
  if (ol.timer != exec::kNoEvent) return;
  // Runtime::timer is incarnation-guarded: if `from` crashes (or crashes
  // and recovers) before this fires, the dead incarnation's timer is
  // suppressed.
  ol.timer = rt_.timer(from, at - rt_.now(),
                       [this, from, to]() { onRto(from, to); });
}

void Plane::disarm(exec::EventId& timer) {
  if (timer != exec::kNoEvent) rt_.cancelTimer(timer);
  timer = exec::kNoEvent;
}

void Plane::onRto(ProcessId from, ProcessId to) {
  OutLink& ol = out(from, to);
  ol.timer = exec::kNoEvent;
  const SimTime now = rt_.now();
  // Selective repeat: only un-SACKed packets at least one RTO old.
  bool resent = false;
  SimTime oldest = kTimeNever;
  uint64_t seq = ol.base;
  for (Unacked& u : ol.window) {
    if (!u.sacked) {
      if (now - u.lastSent >= rto_ << ol.backoff) {
        ++stats_.retransmits;
        transmit(from, to, ol, seq, u);
        resent = true;
      }
      oldest = std::min(oldest, u.lastSent);
    }
    ++seq;
  }
  if (resent) ol.backoff = std::min(ol.backoff + 1, cfg_.maxBackoffExp);
  if (oldest != kTimeNever)
    armRto(from, to, ol, oldest + (rto_ << ol.backoff));
}

void Plane::rekey(ProcessId from, ProcessId to, OutLink& ol,
                  uint32_t peerInc) {
  // The peer reincarnated: everything it ever acked died with it, and it
  // drops whatever is still addressed to its dead incarnation. Key a fresh
  // sequence space from 0 to the new incarnation and re-offer the backlog
  // the dead one never delivered as its prefix.
  ol.peerInc = peerInc;
  ol.keyed = true;
  ol.base = 0;
  ol.backoff = 0;
  disarm(ol.timer);
  std::erase_if(ol.window, [](const Unacked& u) { return u.sacked; });
  uint64_t seq = 0;
  for (Unacked& u : ol.window) {
    ++stats_.retransmits;
    transmit(from, to, ol, seq++, u);
  }
  if (!ol.window.empty()) armRto(from, to, ol, rt_.now() + rto_);
}

WANMC_HOT void Plane::handleAck(ProcessId acker, ProcessId self,
                                const AckPacket& a) {
  if (a.receiverInc != rt_.incarnation(acker) ||
      a.senderInc != rt_.incarnation(self)) {
    ++stats_.staleDropped;  // from the acker's, or to our, dead incarnation
    return;
  }
  OutLink& ol = out(self, acker);
  if (a.receiverInc != ol.peerInc) {
    // The receiver reincarnated since the space was keyed: this ACK's
    // cumAck/SACK describe the fresh incarnation, not our backlog.
    rekey(self, acker, ol, a.receiverInc);
    return;
  }
  bool progress = false;
  const uint64_t end = ol.base + ol.window.size();
  const uint64_t sackBase = a.sackBase();
  for (size_t w = 0; w < kSackWords; ++w) {
    for (uint64_t bits = a.sack[w]; bits != 0; bits &= bits - 1) {
      const uint64_t s =
          sackBase + 64 * w + static_cast<uint64_t>(std::countr_zero(bits));
      if (s < ol.base || s >= end) continue;
      Unacked& u = ol.window[s - ol.base];
      progress |= !u.sacked;
      u.sacked = true;
    }
  }
  while (!ol.window.empty() &&
         (ol.base < a.cumAck || ol.window.front().sacked)) {
    ol.window.pop_front();
    ++ol.base;
    progress = true;
  }
  if (progress) ol.backoff = 0;  // the link is alive again
  if (ol.window.empty()) disarm(ol.timer);
  const SimTime now = rt_.now();
  const SimTime minRtt = linkClass(self, acker).minRtt;
  for (uint32_t i = 0; i < a.nackRuns; ++i) {
    const uint64_t lo = std::max(a.nack[i].from, ol.base);
    const uint64_t hi = std::min(a.nack[i].to, ol.base + ol.window.size());
    for (uint64_t s = lo; s < hi; ++s) {
      Unacked& u = ol.window[s - ol.base];
      // A copy sent less than a minimum round trip ago cannot have been
      // missed yet when the NACK left: the RTO already re-sent it.
      if (u.sacked || now - u.lastSent < minRtt) continue;
      ++stats_.retransmits;
      transmit(self, acker, ol, s, u);
    }
  }
}

// ---------------------------------------------------------------------------
// Receiver side.
// ---------------------------------------------------------------------------

void Plane::onWireArrive(ProcessId from, ProcessId to,
                         const PayloadPtr& payload) {
  if (const auto* d = dynamic_cast<const DataPacket*>(payload.get())) {
    handleData(from, to, *d);
  } else if (const auto* a = dynamic_cast<const AckPacket*>(payload.get())) {
    handleAck(from, to, *a);
  }
}

void Plane::adopt(InLink& il, uint32_t senderInc) {
  disarm(il.nackTimer);
  // Both rings span the receive window [nextExpected, +holdbackCap]: that
  // touches at most holdbackCap/64 + 2 distinct 64-seq words.
  const size_t words = cfg_.holdbackCap / 64 + 2;
  il.seen.assign(words, 0);
  il.nackAt.assign(64 * words, 0);
  il.nextExpected = 0;
  il.frontier = 0;
  il.peerInc = senderInc;
  il.known = true;
}

WANMC_HOT void Plane::handleData(ProcessId sender, ProcessId self,
                                 const DataPacket& d) {
  // Stale-incarnation copies (a dead incarnation's stragglers still in
  // flight) are dropped outright: the (sender incarnation, seq) key is what
  // makes duplicate suppression survive recovery.
  if (d.senderInc != rt_.incarnation(sender)) {
    ++stats_.staleDropped;
    return;
  }
  if (d.receiverInc != rt_.incarnation(self)) {
    // Addressed to our dead incarnation, whose space the sender is still
    // keyed to: never deliver it. The ACK names our live incarnation, which
    // makes the sender re-key and re-offer the backlog exactly once.
    ++stats_.staleDropped;
    sendAck(self, sender, d.senderInc, nullptr);
    return;
  }
  InLink& il = in(self, sender);
  // First contact, or the sender reincarnated: adopt its fresh space.
  if (!il.known || d.senderInc != il.peerInc) adopt(il, d.senderInc);

  const uint64_t s = d.seq;
  if (s < il.nextExpected) {
    // Already delivered (the ACK must have been lost): suppress, re-ack.
    ++stats_.duplicatesDropped;
    sendAck(self, sender, d.senderInc, &il);
    return;
  }
  if (s - il.nextExpected > cfg_.holdbackCap) {
    // Past the receive window: the sender's RTO re-offers it later.
    ++stats_.holdbackOverflow;
    sendAck(self, sender, d.senderInc, &il);
    return;
  }
  if (il.isSeen(s)) {
    ++stats_.duplicatesDropped;
    sendAck(self, sender, d.senderInc, &il);
    return;
  }

  if (s >= il.frontier) {
    // This arrival reveals [frontier, s) as holes. Each becomes overdue one
    // jitter bound from now: a copy merely reordered by the latency model
    // arrives before that and never draws a NACK.
    if (s > il.frontier) {
      const SimTime due = rt_.now() + linkClass(self, sender).jitter;
      for (uint64_t h = il.frontier; h < s; ++h) il.nackAt[il.slot(h)] = due;
      // Overdue times grow with the reveal order, so an armed timer is
      // never later than `due`.
      if (il.nackTimer == exec::kNoEvent) armNack(self, sender, il, due);
    }
    il.frontier = s + 1;
  }
  if (s == il.nextExpected) {
    // Advance past the seqs already delivered out of order, clearing their
    // bits so the ring only ever holds seqs above nextExpected.
    ++il.nextExpected;
    while (il.nextExpected < il.frontier && il.isSeen(il.nextExpected)) {
      il.seen[il.slot(il.nextExpected) / 64] &=
          ~(uint64_t{1} << (il.nextExpected % 64));
      ++il.nextExpected;
    }
  } else {
    il.seen[il.slot(s) / 64] |= uint64_t{1} << (s % 64);
  }
  rt_.deliverFromChannel(sender, self, d.inner, d.sendTs);
  ++stats_.delivered;
  sendAck(self, sender, d.senderInc, &il);
}

void Plane::armNack(ProcessId self, ProcessId sender, InLink& il,
                    SimTime at) {
  il.nackTimer = rt_.timer(self, at - rt_.now(),
                           [this, self, sender]() { onNackDue(self, sender); });
}

void Plane::onNackDue(ProcessId self, ProcessId sender) {
  InLink& il = in(self, sender);
  il.nackTimer = exec::kNoEvent;
  const SimTime now = rt_.now();
  SimTime next = kTimeNever;
  overdue_.clear();
  for (uint64_t s = il.nextExpected; s < il.frontier; ++s) {
    if (il.isSeen(s)) continue;
    SimTime& at = il.nackAt[il.slot(s)];
    if (at <= now) {
      // Overdue: name it once. A lost retransmission is the RTO's job.
      at = kTimeNever;
      if (!overdue_.empty() && overdue_.back().to == s) {
        ++overdue_.back().to;
      } else {
        overdue_.push_back({s, s + 1});
      }
    } else if (at != kTimeNever) {
      next = std::min(next, at);
    }
  }
  for (size_t i = 0; i < overdue_.size(); i += kNackRuns) {
    ++stats_.nacksSent;
    sendAck(self, sender, il.peerInc, &il, overdue_.data() + i,
            std::min(kNackRuns, overdue_.size() - i));
  }
  if (next != kTimeNever) armNack(self, sender, il, next);
}

WANMC_HOT void Plane::sendAck(ProcessId self, ProcessId sender,
                              uint32_t senderInc, const InLink* il,
                              const SeqRun* nack, size_t nackRuns) {
  auto ack = std::allocate_shared<AckPacket>(
      PoolAllocator<AckPacket>(&rt_.payloadArena()));
  ack->senderInc = senderInc;
  ack->receiverInc = rt_.incarnation(self);
  if (il != nullptr) {
    ack->cumAck = il->nextExpected;
    // The SACK words are the seen ring's words from the cumulative ack's
    // word upwards (bits below cumAck are always clear).
    const size_t words = il->seen.size();
    const size_t first = il->slot(ack->cumAck) / 64;
    for (size_t w = 0; w < std::min(kSackWords, words); ++w)
      ack->sack[w] = il->seen[(first + w) % words];
  }
  for (size_t i = 0; i < nackRuns; ++i) ack->nack[i] = nack[i];
  ack->nackRuns = static_cast<uint32_t>(nackRuns);
  ++stats_.acksSent;
  rt_.channelSend(self, sender, std::move(ack), Layer::kChannel);
}

void Plane::onReset(ProcessId pid) {
  // `pid` recovered as a fresh incarnation: both endpoints of every link it
  // touches forget the dead incarnation's state (its timers are guarded
  // and never fire). Its fresh sends open new sequence spaces (peers adopt
  // them on the incarnation change); peers' links TO it re-key when its
  // fresh ACKs reveal the incarnation.
  for (ProcessId peer = 0; peer < n_; ++peer) {
    out(pid, peer) = OutLink{};
    in(pid, peer) = InLink{};
  }
}

}  // namespace wanmc::channel
