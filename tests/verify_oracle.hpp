// Reference oracle for the verify:: property checkers: the original
// per-process-set and per-delivery destOf-lookup implementations, kept
// verbatim so the indexed checkers in src/verify/properties.cpp can be
// diffed against them — on synthetic traces (tests/test_checker_oracle.cpp)
// and on every standard-matrix cell and damaged copies of its trace
// (expectMatchesOracle + mutants, tests/test_scenario_matrix.cpp).
// Quadratic in the number of process pairs times the trace length;
// test-only.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "verify/properties.hpp"

namespace wanmc::verify_oracle {

using verify::CheckContext;
using verify::Violations;
// Qualifies the calls that argument-dependent lookup would otherwise also
// resolve to the verify:: checkers of the same name.
namespace oracle = verify_oracle;

// Built by append: avoids the GCC 12 -Wrestrict false positive on chained
// string operator+ (same workaround as standardFaultMatrix's name builder).
inline std::string pname(ProcessId p) {
  std::string s("p");
  s += std::to_string(p);
  return s;
}
inline std::string mname(MsgId m) {
  std::string s("m");
  s += std::to_string(m);
  return s;
}

inline bool isAddressee(const CheckContext& ctx, ProcessId p, MsgId m) {
  auto it = ctx.trace->destOf.find(m);
  if (it == ctx.trace->destOf.end()) return false;
  return it->second.contains(ctx.topo->group(p));
}

// Final delivery sequence of every process.
inline std::map<ProcessId, std::vector<MsgId>> sequences(
    const CheckContext& ctx) {
  return ctx.trace->sequences();
}

inline Violations prefixOrderOver(const CheckContext& ctx,
                                  const std::set<ProcessId>& procs) {
  Violations out;
  auto seqs = sequences(ctx);
  std::vector<ProcessId> ps(procs.begin(), procs.end());
  for (size_t i = 0; i < ps.size(); ++i) {
    for (size_t j = i + 1; j < ps.size(); ++j) {
      const ProcessId p = ps[i];
      const ProcessId q = ps[j];
      // Project both sequences on messages addressed to BOTH p and q.
      auto project = [&](ProcessId self) {
        std::vector<MsgId> out2;
        for (MsgId m : seqs[self])
          if (isAddressee(ctx, p, m) && isAddressee(ctx, q, m))
            out2.push_back(m);
        return out2;
      };
      const auto sp = project(p);
      const auto sq = project(q);
      const size_t n = std::min(sp.size(), sq.size());
      for (size_t x = 0; x < n; ++x) {
        if (sp[x] != sq[x]) {
          std::ostringstream os;
          os << "prefix order violated between " << pname(p) << " and "
             << pname(q) << " at position " << x << ": " << mname(sp[x])
             << " vs " << mname(sq[x]);
          out.push_back(os.str());
          break;
        }
      }
    }
  }
  return out;
}

// Sorted recovery times per process, for incarnation segmentation.
inline std::map<ProcessId, std::vector<SimTime>> recoveryTimes(
    const CheckContext& ctx) {
  std::map<ProcessId, std::vector<SimTime>> out;
  for (const auto& r : ctx.trace->recoveries) out[r.process].push_back(r.when);
  for (auto& [p, times] : out) std::sort(times.begin(), times.end());
  return out;
}

// Incarnation index of a delivery: the number of recoveries of `p` at or
// before `when` (a recovery strictly precedes anything its fresh node
// delivers at the same instant).
inline int incarnationAt(const std::vector<SimTime>& times, SimTime when) {
  return static_cast<int>(
      std::upper_bound(times.begin(), times.end(), when) - times.begin());
}

inline std::set<ProcessId> recoveredProcesses(const CheckContext& ctx) {
  std::set<ProcessId> out;
  for (const auto& r : ctx.trace->recoveries) out.insert(r.process);
  return out;
}

inline Violations checkUniformIntegrity(const CheckContext& ctx) {
  Violations out;
  std::set<MsgId> cast;
  for (const auto& c : ctx.trace->casts) cast.insert(c.msg);
  const auto recTimes = recoveryTimes(ctx);

  // The duplicate check binds per (process, incarnation): an amnesiac
  // recovered process may re-deliver what its dead incarnation delivered,
  // but never the same message twice within one incarnation.
  std::map<std::tuple<ProcessId, int, MsgId>, int> count;
  for (const auto& d : ctx.trace->deliveries) {
    int inc = 0;
    if (auto it = recTimes.find(d.process); it != recTimes.end())
      inc = incarnationAt(it->second, d.when);
    ++count[{d.process, inc, d.msg}];
    if (!cast.count(d.msg))
      out.push_back(pname(d.process) + " delivered " + mname(d.msg) +
                    " which was never A-XCast");
    if (!isAddressee(ctx, d.process, d.msg))
      out.push_back(pname(d.process) + " delivered " + mname(d.msg) +
                    " but is not an addressee");
  }
  for (const auto& [key, n] : count) {
    if (n > 1)
      out.push_back(pname(std::get<0>(key)) + " delivered " +
                    mname(std::get<2>(key)) + " " + std::to_string(n) +
                    " times");
  }
  return out;
}

inline Violations checkRecoveredDelivery(const CheckContext& ctx) {
  Violations out;
  const auto recTimes = recoveryTimes(ctx);
  if (recTimes.empty()) return out;

  std::map<ProcessId, std::set<MsgId>> deliveredBy;
  for (const auto& d : ctx.trace->deliveries)
    deliveredBy[d.process].insert(d.msg);

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
    for (const auto& c : ctx.trace->casts) {
      if (c.when <= lastRecovery) continue;  // pre-recovery: no obligation
      if (!isAddressee(ctx, p, c.msg)) continue;
      // Only messages the correct addressees all delivered: the protocol
      // demonstrably completed them, so the recovered process — alive the
      // whole time — must have delivered too.
      bool settled = true;
      for (ProcessId q : ctx.correct) {
        if (!isAddressee(ctx, q, c.msg)) continue;
        if (!deliveredBy[q].count(c.msg)) {
          settled = false;
          break;
        }
      }
      if (!settled) continue;
      if (!deliveredBy[p].count(c.msg))
        out.push_back("recovery: " + pname(p) + " (recovered at t=" +
                      std::to_string(lastRecovery) + "us) never delivered " +
                      mname(c.msg) + " cast at t=" + std::to_string(c.when) +
                      "us although every correct addressee did");
    }
  }
  return out;
}

inline Violations checkValidity(const CheckContext& ctx) {
  Violations out;
  std::map<ProcessId, std::set<MsgId>> deliveredBy;
  for (const auto& d : ctx.trace->deliveries)
    deliveredBy[d.process].insert(d.msg);

  for (const auto& c : ctx.trace->casts) {
    if (!ctx.correct.count(c.process)) continue;  // only correct senders
    for (ProcessId q : ctx.correct) {
      if (!isAddressee(ctx, q, c.msg)) continue;
      if (!deliveredBy[q].count(c.msg))
        out.push_back("validity: correct " + pname(q) + " never delivered " +
                      mname(c.msg) + " cast by correct " + pname(c.process));
    }
  }
  return out;
}

inline Violations agreementImpl(const CheckContext& ctx, bool uniform) {
  Violations out;
  std::map<ProcessId, std::set<MsgId>> deliveredBy;
  std::set<MsgId> deliveredByAnyone;
  std::set<MsgId> deliveredByCorrect;
  for (const auto& d : ctx.trace->deliveries) {
    deliveredBy[d.process].insert(d.msg);
    deliveredByAnyone.insert(d.msg);
    if (ctx.correct.count(d.process)) deliveredByCorrect.insert(d.msg);
  }
  const auto& trigger = uniform ? deliveredByAnyone : deliveredByCorrect;
  for (MsgId m : trigger) {
    for (ProcessId q : ctx.correct) {
      if (!isAddressee(ctx, q, m)) continue;
      if (!deliveredBy[q].count(m))
        out.push_back(std::string(uniform ? "uniform " : "") +
                      "agreement: correct " + pname(q) +
                      " never delivered " + mname(m) +
                      " although it was delivered elsewhere");
    }
  }
  return out;
}

inline Violations checkUniformAgreement(const CheckContext& ctx) {
  return agreementImpl(ctx, /*uniform=*/true);
}

inline Violations checkAgreementCorrectOnly(const CheckContext& ctx) {
  return agreementImpl(ctx, /*uniform=*/false);
}

inline Violations checkUniformPrefixOrder(const CheckContext& ctx) {
  // Recovered processes are skipped: an amnesiac rejoin restarts its
  // sequence mid-run, so no prefix comparison across the gap is sound
  // (see recoveredProcesses). Their deliveries still bind under uniform
  // agreement and per-incarnation integrity.
  const std::set<ProcessId> recovered = oracle::recoveredProcesses(ctx);
  std::set<ProcessId> all;
  for (ProcessId p : ctx.topo->allProcesses())
    if (!recovered.count(p)) all.insert(p);
  return prefixOrderOver(ctx, all);
}

inline Violations checkPrefixOrderCorrectOnly(const CheckContext& ctx) {
  return prefixOrderOver(ctx, ctx.correct);
}

inline Violations checkAtomicSuite(const CheckContext& ctx) {
  Violations out;
  auto append = [&out](Violations v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  append(oracle::checkUniformIntegrity(ctx));
  append(oracle::checkValidity(ctx));
  append(oracle::checkUniformAgreement(ctx));
  append(oracle::checkUniformPrefixOrder(ctx));
  return out;
}

// EXPECT_EQs every trace checker against the oracle on `ctx`; returns the
// number of violations the suite and the seven checkers reported.
inline size_t expectMatchesOracle(const CheckContext& ctx,
                                  const std::string& label) {
  using Checker = Violations (*)(const CheckContext&);
  const std::pair<Checker, Checker> pairs[] = {
      {verify::checkUniformIntegrity, oracle::checkUniformIntegrity},
      {verify::checkRecoveredDelivery, oracle::checkRecoveredDelivery},
      {verify::checkValidity, oracle::checkValidity},
      {verify::checkUniformAgreement, oracle::checkUniformAgreement},
      {verify::checkAgreementCorrectOnly, oracle::checkAgreementCorrectOnly},
      {verify::checkUniformPrefixOrder, oracle::checkUniformPrefixOrder},
      {verify::checkPrefixOrderCorrectOnly,
       oracle::checkPrefixOrderCorrectOnly},
      {verify::checkAtomicSuite, oracle::checkAtomicSuite},
  };
  size_t found = 0;
  for (size_t i = 0; i < std::size(pairs); ++i) {
    const Violations fast = pairs[i].first(ctx);
    EXPECT_EQ(fast, pairs[i].second(ctx)) << label << " checker #" << i;
    found += fast.size();
  }
  return found;
}

// Damaged copies of a run's trace, one per kind of damage the checkers
// must see through; each lands at a seed-drawn position. A kind that the
// trace cannot express (too few deliveries, no process outside some
// destination) is left out.
inline std::vector<std::pair<std::string, RunTrace>> mutants(
    const core::RunResult& r, SplitMix64& rng) {
  std::vector<std::pair<std::string, RunTrace>> out;
  const auto& ds = r.trace.deliveries;
  if (ds.empty()) return out;
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.uniform(0, static_cast<int64_t>(n) - 1));
  };
  auto mutant = [&](const char* kind, auto&& edit) {
    RunTrace t = r.trace;
    edit(t.deliveries);
    out.emplace_back(kind, std::move(t));
  };
  auto insertAt = [&](std::vector<DeliveryEvent>& v, DeliveryEvent d) {
    const size_t at = pick(v.size() + 1);
    if (at < v.size()) d.when = v[at].when;
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(at), d);
  };

  if (ds.size() >= 2) {
    const size_t i = pick(ds.size() - 1);
    mutant("adjacent swap", [&](auto& v) { std::swap(v[i], v[i + 1]); });
  }
  {
    const size_t i = pick(ds.size());
    std::vector<size_t> later;
    for (size_t j = i + 1; j < ds.size(); ++j)
      if (ds[j].process == ds[i].process) later.push_back(j);
    if (!later.empty()) {
      const size_t j = later[pick(later.size())];
      mutant("same-process swap", [&](auto& v) { std::swap(v[i], v[j]); });
    }
  }
  mutant("duplicated delivery",
         [&](auto& v) { insertAt(v, v[pick(v.size())]); });
  mutant("dropped delivery", [&](auto& v) {
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(pick(v.size())));
  });
  {
    DeliveryEvent d = ds[pick(ds.size())];
    d.msg = r.trace.destOf.empty() ? 1 : r.trace.destOf.rbegin()->first + 1;
    mutant("never-cast delivery", [&](auto& v) { insertAt(v, d); });
  }
  {
    std::vector<std::pair<ProcessId, MsgId>> outsiders;
    for (const auto& c : r.trace.casts)
      for (ProcessId p = 0; p < r.topo.numProcesses(); ++p)
        if (!c.dest.contains(r.topo.group(p))) outsiders.emplace_back(p, c.msg);
    if (!outsiders.empty()) {
      const auto [p, m] = outsiders[pick(outsiders.size())];
      DeliveryEvent d = ds[pick(ds.size())];
      d.process = p;
      d.msg = m;
      mutant("non-addressee delivery", [&](auto& v) { insertAt(v, d); });
    }
  }
  return out;
}

}  // namespace wanmc::verify_oracle
