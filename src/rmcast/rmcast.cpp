#include "rmcast/rmcast.hpp"

#include <algorithm>

namespace wanmc::rmcast {

namespace {

std::vector<ProcessId> allBut(const std::vector<ProcessId>& v,
                              ProcessId self) {
  std::vector<ProcessId> out;
  out.reserve(v.size());
  for (ProcessId q : v)
    if (q != self) out.push_back(q);
  return out;
}

}  // namespace

void ReliableMulticast::rmcast(const AppMsgPtr& m) {
  Seen& s = entry(m, nullptr);
  auto payload = std::make_shared<const RmPayload>(m, /*relay=*/false);
  rt_.multicast(self_, allBut(s.dests, self_), payload);
  // The sender itself sees the message immediately (and R-Delivers it at
  // once if it is an addressee).
  onCopy(s, self_);
}

void ReliableMulticast::rmcastTo(const AppMsgPtr& m,
                                 const std::vector<ProcessId>& dests) {
  Seen& s = entry(m, &dests);
  auto payload = std::make_shared<const RmPayload>(m, /*relay=*/false, dests);
  rt_.multicast(self_, allBut(dests, self_), payload);
  onCopy(s, self_);
}

void ReliableMulticast::onMessage(ProcessId from, const RmPayload& p) {
  onCopy(entry(p.msg, p.explicitDests.empty() ? nullptr : &p.explicitDests),
         from);
}

ReliableMulticast::Seen& ReliableMulticast::entry(
    const AppMsgPtr& m, const std::vector<ProcessId>* explicitDests) {
  Seen& s = seen_[m->id];
  if (s.msg == nullptr) {
    s.msg = m;
    s.explicitScope = explicitDests != nullptr;
    s.dests = s.explicitScope ? *explicitDests
                              : rt_.topology().membersOf(m->dest);
  }
  return s;
}

void ReliableMulticast::onCopy(Seen& s, ProcessId copyFrom) {
  // Only the uniform variant counts copies.
  if (uniformity_ == Uniformity::kUniform &&
      rt_.topology().sameGroup(copyFrom, self_))
    s.copiesFrom.insert(copyFrom);

  if (!s.relayed) {
    s.relayed = true;
    auto relay = std::make_shared<const RmPayload>(
        s.msg, /*relay=*/true,
        s.explicitScope ? s.dests : std::vector<ProcessId>{});
    const GroupId myGroup = rt_.topology().group(self_);
    std::vector<ProcessId> tos;
    for (ProcessId q : s.dests) {
      if (q == self_) continue;
      const bool sameGroup = rt_.topology().group(q) == myGroup;
      if (relay_ == RelayPolicy::kEager || sameGroup) tos.push_back(q);
    }
    rt_.multicast(self_, tos, relay);
  }
  maybeDeliver(s);
}

void ReliableMulticast::maybeDeliver(Seen& s) {
  if (s.delivered) return;
  // Uniform integrity: only addressees R-Deliver. (Non-addressees can still
  // see the message, e.g. a sender that multicasts outside its own group.)
  if (s.explicitScope) {
    if (std::find(s.dests.begin(), s.dests.end(), self_) == s.dests.end())
      return;
  } else if (!s.msg->dest.contains(rt_.topology().group(self_))) {
    return;
  }

  if (uniformity_ == Uniformity::kUniform) {
    const auto groupSize = static_cast<size_t>(
        rt_.topology().groupSize(rt_.topology().group(self_)));
    const size_t need = groupSize / 2 + 1;
    // Our own sighting counts as one copy.
    const size_t copies =
        s.copiesFrom.size() + (s.copiesFrom.count(self_) == 0 ? 1 : 0);
    if (copies < need) return;
  }
  s.delivered = true;
  for (const auto& cb : deliverCbs_) cb(s.msg);
}

}  // namespace wanmc::rmcast
