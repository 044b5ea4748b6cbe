#include "verify/properties.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace wanmc::verify {

namespace {

// Built by append: avoids the GCC 12 -Wrestrict false positive on chained
// string operator+ (same workaround as standardFaultMatrix's name builder).
std::string pname(ProcessId p) {
  std::string s("p");
  s += std::to_string(p);
  return s;
}
std::string mname(MsgId m) {
  std::string s("m");
  s += std::to_string(m);
  return s;
}

// Everything the checks read from a trace, as flat arrays built in one
// pass, so that each check is a linear walk over them. Messages live in
// slots numbered in ascending MsgId order, so comparing or walking slots is
// comparing or walking ids.
class TraceIndex {
 public:
  explicit TraceIndex(const CheckContext& ctx) : topo_(*ctx.topo) {
    const RunTrace& t = *ctx.trace;
    for (const auto& [m, dest] : t.destOf) {
      ids.push_back(m);
      destBits.push_back(dest.bits());
    }
    if (std::vector<MsgId> extra = resolve(t); !extra.empty()) {
      // Cast or delivered ids missing from destOf (hand-built or damaged
      // traces only) get slots with no destination.
      std::sort(extra.begin(), extra.end());
      extra.erase(std::unique(extra.begin(), extra.end()), extra.end());
      std::vector<MsgId> merged(ids.size() + extra.size());
      std::merge(ids.begin(), ids.end(), extra.begin(), extra.end(),
                 merged.begin());
      std::vector<uint64_t> bits(merged.size(), 0);
      for (size_t s = 0, k = 0; s < merged.size(); ++s)
        if (k < ids.size() && ids[k] == merged[s]) bits[s] = destBits[k++];
      ids = std::move(merged);
      destBits = std::move(bits);
      resolve(t);
    }

    wasCast.assign(ids.size(), 0);
    for (uint32_t s : castSlot) wasCast[s] = 1;

    const auto n = static_cast<size_t>(topo_.numProcesses());
    words_ = (ids.size() + 63) / 64;
    delivered_.assign(n * words_, 0);
    seqs.resize(n);
    for (size_t i = 0; i < t.deliveries.size(); ++i) {
      const auto p = static_cast<size_t>(t.deliveries[i].process);
      const uint32_t s = deliverySlot[i];
      seqs[p].push_back(s);
      uint64_t& w = delivered_[p * words_ + s / 64];
      const uint64_t bit = uint64_t{1} << (s % 64);
      if ((w & bit) != 0) redelivered = true;
      w |= bit;
    }
  }

  [[nodiscard]] uint64_t groupBit(ProcessId p) const {
    return uint64_t{1} << topo_.group(p);
  }
  [[nodiscard]] bool isAddressee(ProcessId p, uint32_t s) const {
    return (destBits[s] & groupBit(p)) != 0;
  }
  [[nodiscard]] bool hasDelivered(ProcessId p, uint32_t s) const {
    return ((delivered_[static_cast<size_t>(p) * words_ + s / 64] >>
             (s % 64)) & 1u) != 0;
  }

  std::vector<MsgId> ids;         // slot -> id, ascending
  std::vector<uint64_t> destBits;  // per slot; 0 when the id has no destOf
  std::vector<uint8_t> wasCast;    // per slot
  std::vector<uint32_t> castSlot;            // per trace cast
  std::vector<uint32_t> deliverySlot;        // per trace delivery
  std::vector<std::vector<uint32_t>> seqs;   // per process, in order
  bool redelivered = false;  // some process delivered some slot twice

 private:
  // Binary-searches each cast's and delivery's id among the slots; returns
  // the ids that have none.
  std::vector<MsgId> resolve(const RunTrace& t) {
    std::vector<MsgId> missing;
    auto slotOf = [&](MsgId m) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), m);
      if (it == ids.end() || *it != m) missing.push_back(m);
      return static_cast<uint32_t>(it - ids.begin());
    };
    castSlot.clear();
    deliverySlot.clear();
    for (const auto& c : t.casts) castSlot.push_back(slotOf(c.msg));
    for (const auto& d : t.deliveries) deliverySlot.push_back(slotOf(d.msg));
    return missing;
  }

  const Topology& topo_;
  size_t words_ = 0;
  std::vector<uint64_t> delivered_;  // (process, slot) bits, row-major
};

// First divergence of each pair's sequences projected on the messages
// addressed to both: a message is kept iff its destination covers both
// processes' group bits.
Violations prefixOrderOver(const TraceIndex& ix,
                           const std::set<ProcessId>& procs) {
  Violations out;
  const std::vector<ProcessId> ps(procs.begin(), procs.end());
  for (size_t i = 0; i < ps.size(); ++i) {
    for (size_t j = i + 1; j < ps.size(); ++j) {
      const ProcessId p = ps[i];
      const ProcessId q = ps[j];
      const uint64_t mask = ix.groupBit(p) | ix.groupBit(q);
      const auto& sp = ix.seqs[static_cast<size_t>(p)];
      const auto& sq = ix.seqs[static_cast<size_t>(q)];
      auto next = [&](const std::vector<uint32_t>& seq, size_t k) {
        while (k < seq.size() && (ix.destBits[seq[k]] & mask) != mask) ++k;
        return k;
      };
      size_t a = next(sp, 0);
      size_t b = next(sq, 0);
      for (size_t x = 0; a < sp.size() && b < sq.size(); ++x) {
        if (sp[a] != sq[b]) {
          std::ostringstream os;
          os << "prefix order violated between " << pname(p) << " and "
             << pname(q) << " at position " << x << ": "
             << mname(ix.ids[sp[a]]) << " vs " << mname(ix.ids[sq[b]]);
          out.push_back(os.str());
          break;
        }
        a = next(sp, a + 1);
        b = next(sq, b + 1);
      }
    }
  }
  return out;
}

// Sorted recovery times per process, for incarnation segmentation.
std::map<ProcessId, std::vector<SimTime>> recoveryTimes(
    const CheckContext& ctx) {
  std::map<ProcessId, std::vector<SimTime>> out;
  for (const auto& r : ctx.trace->recoveries) out[r.process].push_back(r.when);
  for (auto& [p, times] : out) std::sort(times.begin(), times.end());
  return out;
}

// Incarnation index of a delivery: the number of recoveries of `p` at or
// before `when` (a recovery strictly precedes anything its fresh node
// delivers at the same instant).
int incarnationAt(const std::vector<SimTime>& times, SimTime when) {
  return static_cast<int>(
      std::upper_bound(times.begin(), times.end(), when) - times.begin());
}

Violations integrity(const CheckContext& ctx, const TraceIndex& ix) {
  Violations out;
  const auto& deliveries = ctx.trace->deliveries;
  for (size_t i = 0; i < deliveries.size(); ++i) {
    const DeliveryEvent& d = deliveries[i];
    const uint32_t s = ix.deliverySlot[i];
    if (ix.wasCast[s] == 0)
      out.push_back(pname(d.process) + " delivered " + mname(d.msg) +
                    " which was never A-XCast");
    if (!ix.isAddressee(d.process, s))
      out.push_back(pname(d.process) + " delivered " + mname(d.msg) +
                    " but is not an addressee");
  }
  if (!ix.redelivered) return out;

  // The duplicate check binds per (process, incarnation): an amnesiac
  // recovered process may re-deliver what its dead incarnation delivered,
  // but never the same message twice within one incarnation. Sorted keys
  // report each duplicate once, in (process, incarnation, id) order.
  struct Key {
    ProcessId p;
    int inc;
    uint32_t slot;
    auto operator<=>(const Key&) const = default;
  };
  const auto recTimes = recoveryTimes(ctx);
  std::vector<Key> keys;
  keys.reserve(deliveries.size());
  for (size_t i = 0; i < deliveries.size(); ++i) {
    const DeliveryEvent& d = deliveries[i];
    int inc = 0;
    if (auto it = recTimes.find(d.process); it != recTimes.end())
      inc = incarnationAt(it->second, d.when);
    keys.push_back(Key{d.process, inc, ix.deliverySlot[i]});
  }
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0, j = 0; i < keys.size(); i = j) {
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    if (j - i > 1)
      out.push_back(pname(keys[i].p) + " delivered " +
                    mname(ix.ids[keys[i].slot]) + " " +
                    std::to_string(j - i) + " times");
  }
  return out;
}

// Whether every correct addressee of slot `s` delivered it.
bool settledAtCorrect(const CheckContext& ctx, const TraceIndex& ix,
                      uint32_t s) {
  return std::all_of(ctx.correct.begin(), ctx.correct.end(),
                     [&](ProcessId q) {
                       return !ix.isAddressee(q, s) || ix.hasDelivered(q, s);
                     });
}

Violations recoveredDelivery(const CheckContext& ctx, const TraceIndex& ix) {
  Violations out;
  const auto recTimes = recoveryTimes(ctx);
  std::map<ProcessId, SimTime> lastCrash;
  for (const auto& c : ctx.trace->crashes)
    lastCrash[c.process] = std::max(lastCrash[c.process], c.when);

  for (const auto& [p, times] : recTimes) {
    const SimTime lastRecovery = times.back();
    // A process that crashed AGAIN after its final recovery ends the run
    // down: it owes no deliveries (crash-recover-crash is a legitimate
    // schedule, not a liveness failure).
    if (auto it = lastCrash.find(p);
        it != lastCrash.end() && it->second > lastRecovery)
      continue;
    const auto& casts = ctx.trace->casts;
    for (size_t i = 0; i < casts.size(); ++i) {
      const CastEvent& c = casts[i];
      if (c.when <= lastRecovery) continue;  // pre-recovery: no obligation
      const uint32_t s = ix.castSlot[i];
      if (!ix.isAddressee(p, s)) continue;
      // Only messages the correct addressees all delivered: the protocol
      // demonstrably completed them, so the recovered process — alive the
      // whole time — must have delivered too.
      if (settledAtCorrect(ctx, ix, s) && !ix.hasDelivered(p, s))
        out.push_back("recovery: " + pname(p) + " (recovered at t=" +
                      std::to_string(lastRecovery) + "us) never delivered " +
                      mname(c.msg) + " cast at t=" + std::to_string(c.when) +
                      "us although every correct addressee did");
    }
  }
  return out;
}

Violations validity(const CheckContext& ctx, const TraceIndex& ix) {
  Violations out;
  const auto& casts = ctx.trace->casts;
  for (size_t i = 0; i < casts.size(); ++i) {
    const CastEvent& c = casts[i];
    if (!ctx.correct.count(c.process)) continue;  // only correct senders
    const uint32_t s = ix.castSlot[i];
    for (ProcessId q : ctx.correct) {
      if (ix.isAddressee(q, s) && !ix.hasDelivered(q, s))
        out.push_back("validity: correct " + pname(q) + " never delivered " +
                      mname(c.msg) + " cast by correct " + pname(c.process));
    }
  }
  return out;
}

// Walks the slots in id order; a slot binds the correct addressees once
// anyone (uniform) or any correct process delivered it.
Violations agreement(const CheckContext& ctx, const TraceIndex& ix,
                     bool uniform) {
  Violations out;
  const std::vector<ProcessId> triggers =
      uniform ? ctx.topo->allProcesses()
              : std::vector<ProcessId>(ctx.correct.begin(), ctx.correct.end());
  for (uint32_t s = 0; s < ix.ids.size(); ++s) {
    if (std::none_of(triggers.begin(), triggers.end(),
                     [&](ProcessId p) { return ix.hasDelivered(p, s); }))
      continue;
    for (ProcessId q : ctx.correct) {
      if (ix.isAddressee(q, s) && !ix.hasDelivered(q, s))
        out.push_back(std::string(uniform ? "uniform " : "") +
                      "agreement: correct " + pname(q) +
                      " never delivered " + mname(ix.ids[s]) +
                      " although it was delivered elsewhere");
    }
  }
  return out;
}

Violations uniformPrefixOrder(const CheckContext& ctx, const TraceIndex& ix) {
  // Recovered processes are skipped: an amnesiac rejoin restarts its
  // sequence mid-run, so no prefix comparison across the gap is sound
  // (see recoveredProcesses). Their deliveries still bind under uniform
  // agreement and per-incarnation integrity.
  const std::set<ProcessId> recovered = recoveredProcesses(ctx);
  std::set<ProcessId> all;
  for (ProcessId p : ctx.topo->allProcesses())
    if (!recovered.count(p)) all.insert(p);
  return prefixOrderOver(ix, all);
}

}  // namespace

std::set<ProcessId> recoveredProcesses(const CheckContext& ctx) {
  std::set<ProcessId> out;
  for (const auto& r : ctx.trace->recoveries) out.insert(r.process);
  return out;
}

Violations checkUniformIntegrity(const CheckContext& ctx) {
  return integrity(ctx, TraceIndex(ctx));
}

Violations checkRecoveredDelivery(const CheckContext& ctx) {
  if (ctx.trace->recoveries.empty()) return {};
  return recoveredDelivery(ctx, TraceIndex(ctx));
}

Violations checkValidity(const CheckContext& ctx) {
  return validity(ctx, TraceIndex(ctx));
}

Violations checkUniformAgreement(const CheckContext& ctx) {
  return agreement(ctx, TraceIndex(ctx), /*uniform=*/true);
}

Violations checkAgreementCorrectOnly(const CheckContext& ctx) {
  return agreement(ctx, TraceIndex(ctx), /*uniform=*/false);
}

Violations checkUniformPrefixOrder(const CheckContext& ctx) {
  return uniformPrefixOrder(ctx, TraceIndex(ctx));
}

Violations checkPrefixOrderCorrectOnly(const CheckContext& ctx) {
  return prefixOrderOver(TraceIndex(ctx), ctx.correct);
}

Violations checkGenuineness(const CheckContext& ctx,
                            const GenuinenessInput& in) {
  Violations out;
  // Allowed participants: every sender and every addressee of cast messages.
  std::set<ProcessId> allowed;
  for (const auto& c : ctx.trace->casts) {
    allowed.insert(c.process);
    for (ProcessId p : ctx.topo->allProcesses())
      if (c.dest.contains(ctx.topo->group(p))) allowed.insert(p);
  }
  for (ProcessId p : in.sentAlgorithmic) {
    if (!allowed.count(p))
      out.push_back("genuineness: " + pname(p) +
                    " sent protocol messages but is neither sender nor "
                    "addressee of any cast message");
  }
  for (ProcessId p : in.receivedAlgorithmic) {
    if (!allowed.count(p))
      out.push_back("genuineness: " + pname(p) +
                    " received protocol messages but is neither sender nor "
                    "addressee of any cast message");
  }
  return out;
}

Violations checkQuiescence(const CheckContext& ctx, SimTime lastAlgoSend,
                           SimTime settleBudget) {
  Violations out;
  SimTime lastCast = 0;
  for (const auto& c : ctx.trace->casts)
    lastCast = std::max(lastCast, c.when);
  if (lastAlgoSend > lastCast + settleBudget) {
    std::ostringstream os;
    os << "quiescence: a protocol message was sent at t=" << lastAlgoSend
       << "us, more than " << settleBudget << "us after the last cast (t="
       << lastCast << "us)";
    out.push_back(os.str());
  }
  return out;
}

// One index, four linear checks.
Violations checkAtomicSuite(const CheckContext& ctx) {
  const TraceIndex ix(ctx);
  Violations out = integrity(ctx, ix);
  auto append = [&out](Violations v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  append(validity(ctx, ix));
  append(agreement(ctx, ix, /*uniform=*/true));
  append(uniformPrefixOrder(ctx, ix));
  return out;
}

}  // namespace wanmc::verify
