#include "metrics/summary.hpp"

#include <algorithm>
#include <cstdio>

namespace wanmc::metrics {

namespace {

double secondsOf(SimTime us) { return static_cast<double>(us) / 1e6; }

}  // namespace

double Summary::offeredPerSec() const {
  // Inverse of the mean inter-arrival gap over the casting window; a
  // single cast has no measurable rate.
  if (casts < 2 || lastCastAt <= firstCastAt) return 0;
  return static_cast<double>(casts - 1) /
         secondsOf(lastCastAt - firstCastAt);
}

double Summary::goodputPerSec() const {
  if (completed == 0 || lastDeliveryAt <= firstCastAt) return 0;
  return static_cast<double>(completed) /
         secondsOf(lastDeliveryAt - firstCastAt);
}

void Summary::merge(const Summary& other) {
  processes = std::max(processes, other.processes);
  groups = std::max(groups, other.groups);
  casts += other.casts;
  deliveries += other.deliveries;
  completed += other.completed;
  fullyDelivered += other.fullyDelivered;

  auto minTime = [](SimTime a, SimTime b) {
    if (a < 0) return b;
    if (b < 0) return a;
    return std::min(a, b);
  };
  firstCastAt = minTime(firstCastAt, other.firstCastAt);
  lastCastAt = std::max(lastCastAt, other.lastCastAt);
  lastDeliveryAt = std::max(lastDeliveryAt, other.lastDeliveryAt);
  lastAlgoSendAt = std::max(lastAlgoSendAt, other.lastAlgoSendAt);
  endTime = std::max(endTime, other.endTime);

  msgLatency.merge(other.msgLatency);
  deliveryLatency.merge(other.deliveryLatency);
  if (perGroup.size() < other.perGroup.size())
    perGroup.resize(other.perGroup.size());
  for (size_t g = 0; g < other.perGroup.size(); ++g)
    perGroup[g].merge(other.perGroup[g]);
  if (perDestSize.size() < other.perDestSize.size())
    perDestSize.resize(other.perDestSize.size());
  for (size_t k = 0; k < other.perDestSize.size(); ++k)
    perDestSize[k].merge(other.perDestSize[k]);
  for (const auto& [deg, n] : other.latencyDegrees) latencyDegrees[deg] += n;
  for (int l = 0; l < kNumLayers; ++l) {
    traffic.perLayer[l].intra += other.traffic.perLayer[l].intra;
    traffic.perLayer[l].inter += other.traffic.perLayer[l].inter;
  }
  faults.crashes += other.faults.crashes;
  faults.recoveries += other.faults.recoveries;
  faults.partitionsCut += other.faults.partitionsCut;
  faults.partitionsHealed += other.faults.partitionsHealed;
  faults.linkDrops += other.faults.linkDrops;
  faults.lossDrops += other.faults.lossDrops;
  channels.dataSent += other.channels.dataSent;
  channels.retransmits += other.channels.retransmits;
  channels.acksSent += other.channels.acksSent;
  channels.nacksSent += other.channels.nacksSent;
  channels.duplicatesDropped += other.channels.duplicatesDropped;
  channels.staleDropped += other.channels.staleDropped;
  channels.holdbackOverflow += other.channels.holdbackOverflow;
  channels.delivered += other.channels.delivered;
  bootstrap.snapshotsRequested += other.bootstrap.snapshotsRequested;
  bootstrap.snapshotsServed += other.bootstrap.snapshotsServed;
  bootstrap.snapshotsInstalled += other.bootstrap.snapshotsInstalled;
  bootstrap.snapshotBytes += other.bootstrap.snapshotBytes;
  bootstrap.suffixMessages += other.bootstrap.suffixMessages;
  bootstrap.retries += other.bootstrap.retries;
  bootstrap.denies += other.bootstrap.denies;
  bootstrap.staleDropped += other.bootstrap.staleDropped;
}

Summary summarizeTrace(const RunTrace& trace, const Topology& topo,
                       const TrafficStats& traffic, SimTime lastAlgoSend,
                       SimTime endTime) {
  Summary out;
  out.processes = topo.numProcesses();
  out.groups = topo.numGroups();
  out.traffic = traffic;
  out.faults = faultStatsOf(trace);
  out.lastAlgoSendAt = lastAlgoSend;
  out.endTime = endTime;
  out.perGroup.resize(static_cast<size_t>(topo.numGroups()));
  out.perDestSize.resize(static_cast<size_t>(topo.numGroups()) + 1);

  // Per-message state, folded into the message-level aggregates below.
  struct MsgStat {
    SimTime castAt = -1;
    SimTime lastDeliveryAt = -1;
    uint64_t castLamport = 0;
    int64_t maxLamportDelta = -1;
    uint32_t deliveries = 0;
    uint32_t addressees = 0;
    uint32_t destGroups = 0;
  };
  std::map<MsgId, MsgStat> stats;

  out.casts = trace.casts.size();
  for (const CastEvent& c : trace.casts) {
    if (out.firstCastAt < 0) out.firstCastAt = c.when;
    out.lastCastAt = std::max(out.lastCastAt, c.when);
    MsgStat& s = stats[c.msg];
    s.castAt = c.when;
    s.castLamport = c.lamport;
    s.destGroups = static_cast<uint32_t>(c.dest.size());
    s.addressees = 0;
    for (GroupId g : c.dest.groups())
      s.addressees += static_cast<uint32_t>(topo.groupSize(g));
  }

  out.deliveries = trace.deliveries.size();
  for (const DeliveryEvent& d : trace.deliveries) {
    out.lastDeliveryAt = std::max(out.lastDeliveryAt, d.when);
    auto it = stats.find(d.msg);
    if (it == stats.end() || it->second.castAt < 0) continue;
    MsgStat& s = it->second;
    const SimTime latency = d.when - s.castAt;
    out.deliveryLatency.add(latency);
    out.perGroup[static_cast<size_t>(topo.group(d.process))].add(latency);
    out.perDestSize[s.destGroups].add(latency);
    s.lastDeliveryAt = d.when;
    ++s.deliveries;
    const int64_t delta = static_cast<int64_t>(d.lamport) -
                          static_cast<int64_t>(s.castLamport);
    if (delta > s.maxLamportDelta) s.maxLamportDelta = delta;
  }

  for (const auto& [id, s] : stats) {
    if (s.castAt < 0 || s.deliveries == 0) continue;
    ++out.completed;
    if (s.deliveries >= s.addressees) ++out.fullyDelivered;
    out.msgLatency.add(s.lastDeliveryAt - s.castAt);
    ++out.latencyDegrees[s.maxLamportDelta];
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON.
// ---------------------------------------------------------------------------

namespace {

std::string fmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void writeStats(const LatencyStats& s, std::ostream& os) {
  os << "{\"count\": " << s.count << ", \"p50\": " << s.p50
     << ", \"p90\": " << s.p90 << ", \"p99\": " << s.p99
     << ", \"max\": " << s.max << ", \"mean\": " << fmtDouble(s.mean) << "}";
}

}  // namespace

void writeJson(const Summary& s, std::ostream& os, const std::string& indent) {
  const std::string in2 = indent + "  ";
  os << "{\n";
  os << in2 << "\"casts\": " << s.casts << ",\n";
  os << in2 << "\"deliveries\": " << s.deliveries << ",\n";
  os << in2 << "\"completed\": " << s.completed << ",\n";
  os << in2 << "\"fullyDelivered\": " << s.fullyDelivered << ",\n";
  os << in2 << "\"offeredPerSec\": " << fmtDouble(s.offeredPerSec()) << ",\n";
  os << in2 << "\"goodputPerSec\": " << fmtDouble(s.goodputPerSec()) << ",\n";
  os << in2 << "\"msgLatencyUs\": ";
  writeStats(s.msgStats(), os);
  os << ",\n";
  os << in2 << "\"deliveryLatencyUs\": ";
  writeStats(s.deliveryStats(), os);
  os << ",\n";
  os << in2 << "\"latencyDegreeHistogram\": {";
  bool first = true;
  for (const auto& [deg, n] : s.latencyDegrees) {
    if (!first) os << ", ";
    os << "\"" << deg << "\": " << n;
    first = false;
  }
  os << "},\n";
  os << in2 << "\"perGroupLatencyUs\": {";
  first = true;
  for (size_t g = 0; g < s.perGroup.size(); ++g) {
    if (s.perGroup[g].count() == 0) continue;
    if (!first) os << ", ";
    os << "\"" << g << "\": ";
    writeStats(LatencyStats::of(s.perGroup[g]), os);
    first = false;
  }
  os << "},\n";
  os << in2 << "\"perDestSizeLatencyUs\": {";
  first = true;
  for (size_t k = 0; k < s.perDestSize.size(); ++k) {
    if (s.perDestSize[k].count() == 0) continue;
    if (!first) os << ", ";
    os << "\"" << k << "\": ";
    writeStats(LatencyStats::of(s.perDestSize[k]), os);
    first = false;
  }
  os << "},\n";
  os << in2 << "\"faults\": {\"crashes\": " << s.faults.crashes
     << ", \"recoveries\": " << s.faults.recoveries
     << ", \"partitionsCut\": " << s.faults.partitionsCut
     << ", \"partitionsHealed\": " << s.faults.partitionsHealed
     << ", \"linkDrops\": " << s.faults.linkDrops
     << ", \"lossDrops\": " << s.faults.lossDrops << "},\n";
  os << in2 << "\"channels\": {\"dataSent\": " << s.channels.dataSent
     << ", \"retransmits\": " << s.channels.retransmits
     << ", \"acksSent\": " << s.channels.acksSent
     << ", \"nacksSent\": " << s.channels.nacksSent
     << ", \"duplicatesDropped\": " << s.channels.duplicatesDropped
     << ", \"staleDropped\": " << s.channels.staleDropped
     << ", \"holdbackOverflow\": " << s.channels.holdbackOverflow
     << ", \"delivered\": " << s.channels.delivered << "},\n";
  os << in2 << "\"bootstrap\": {\"snapshotsRequested\": "
     << s.bootstrap.snapshotsRequested
     << ", \"snapshotsServed\": " << s.bootstrap.snapshotsServed
     << ", \"snapshotsInstalled\": " << s.bootstrap.snapshotsInstalled
     << ", \"snapshotBytes\": " << s.bootstrap.snapshotBytes
     << ", \"suffixMessages\": " << s.bootstrap.suffixMessages
     << ", \"retries\": " << s.bootstrap.retries
     << ", \"denies\": " << s.bootstrap.denies
     << ", \"staleDropped\": " << s.bootstrap.staleDropped << "},\n";
  os << in2 << "\"quiescence\": {\"lastCastUs\": " << s.lastCastAt
     << ", \"lastAlgoSendUs\": " << s.lastAlgoSendAt << ", \"settleUs\": "
     << (s.lastAlgoSendAt >= 0 && s.lastCastAt >= 0
             ? s.lastAlgoSendAt - s.lastCastAt
             : -1)
     << "},\n";
  os << in2 << "\"endTimeUs\": " << s.endTime << "\n";
  os << indent << "}";
}

}  // namespace wanmc::metrics
