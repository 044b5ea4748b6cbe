// Values decided by the per-group uniform consensus abstraction.
//
// Algorithm A1 proposes sets of (message, stage, timestamp) entries; A2
// proposes message bundles; the Rodrigues-et-al. baseline proposes a single
// timestamp. A std::variant keeps the abstraction strongly typed while the
// consensus implementations stay value-agnostic.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/message.hpp"

namespace wanmc {

// Stage of a message in Algorithm A1 (paper §4.1). Messages move
// s0 -> s1 -> s2 -> s3, possibly skipping s1/s2 (single-group messages) or
// s2 (groups whose proposal equals the final timestamp).
enum class Stage : uint8_t { s0 = 0, s1 = 1, s2 = 2, s3 = 3 };

[[nodiscard]] constexpr const char* stageName(Stage s) {
  switch (s) {
    case Stage::s0: return "s0";
    case Stage::s1: return "s1";
    case Stage::s2: return "s2";
    case Stage::s3: return "s3";
  }
  return "?";
}

// One entry of an A1 consensus proposal: a message together with the stage
// it was proposed in and its current timestamp. The AppMessage pointer
// travels with the entry so that a process that never R-Delivered m still
// learns m from the decision (paper line 30: "add message or update its
// fields").
struct A1Entry {
  AppMsgPtr msg;
  Stage stage = Stage::s0;
  uint64_t ts = 0;

  friend bool operator==(const A1Entry& a, const A1Entry& b) {
    return a.msg->id == b.msg->id && a.stage == b.stage && a.ts == b.ts;
  }
};

using A1EntrySet = std::vector<A1Entry>;       // canonical: sorted by msg id
using MsgBundle = std::vector<AppMsgPtr>;      // canonical: sorted by msg id

inline void canonicalize(A1EntrySet& s) {
  std::sort(s.begin(), s.end(), [](const A1Entry& a, const A1Entry& b) {
    return a.msg->id < b.msg->id;
  });
}
inline void canonicalize(MsgBundle& s) {
  std::sort(s.begin(), s.end(),
            [](const AppMsgPtr& a, const AppMsgPtr& b) { return a->id < b->id; });
}

inline bool sameBundle(const MsgBundle& a, const MsgBundle& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i]->id != b[i]->id) return false;
  return true;
}

// The value type carried through consensus. monostate is the "no proposal
// yet" placeholder inside consensus implementations; it is never decided.
using ConsensusValue =
    std::variant<std::monostate, A1EntrySet, MsgBundle, uint64_t>;

// A proposed value is wrapped once and then shared, never copied: by the
// PROPOSE/ACK/DECIDE payloads that carry it, the estimates and decisions
// that hold it, and the snapshots that hand decisions to a rejoiner.
using ConsensusValuePtr = std::shared_ptr<const ConsensusValue>;

inline bool valueEquals(const ConsensusValue& a, const ConsensusValue& b) {
  if (a.index() != b.index()) return false;
  if (std::holds_alternative<A1EntrySet>(a))
    return std::get<A1EntrySet>(a) == std::get<A1EntrySet>(b);
  if (std::holds_alternative<MsgBundle>(a))
    return sameBundle(std::get<MsgBundle>(a), std::get<MsgBundle>(b));
  if (std::holds_alternative<uint64_t>(a))
    return std::get<uint64_t>(a) == std::get<uint64_t>(b);
  return true;  // both monostate
}

[[nodiscard]] std::string valueDebugString(const ConsensusValue& v);

}  // namespace wanmc
