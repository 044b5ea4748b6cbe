#include "testing/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "common/rng.hpp"

namespace wanmc::testing {

// ---------------------------------------------------------------------------
// Latency presets.
// ---------------------------------------------------------------------------

sim::LatencyModel latencyModelFor(LatencyPreset p) {
  switch (p) {
    case LatencyPreset::kLan:
      return sim::LatencyModel{kMs, 2 * kMs, kMs, 2 * kMs};
    case LatencyPreset::kWan:
      return sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
    case LatencyPreset::kWanFixed:
      return sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
    case LatencyPreset::kMixed:
      return sim::LatencyModel{kMs, 2 * kMs, 20 * kMs, 80 * kMs};
  }
  return sim::LatencyModel{};
}

const char* latencyPresetName(LatencyPreset p) {
  switch (p) {
    case LatencyPreset::kLan: return "lan";
    case LatencyPreset::kWan: return "wan";
    case LatencyPreset::kWanFixed: return "wan-fixed";
    case LatencyPreset::kMixed: return "mixed";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Fault scripts.
// ---------------------------------------------------------------------------

std::vector<CrashSpec> materializeCrashes(const Topology& topo,
                                          const RandomCrashes& plan,
                                          uint64_t seed) {
  std::vector<CrashSpec> out;
  SplitMix64 rng(SplitMix64(seed).fork(plan.salt).next());
  for (GroupId g = 0; g < topo.numGroups(); ++g) {
    const auto& members = topo.members(g);
    // Strict minority: consensus inside the group must stay solvable.
    const int maxFaulty = (static_cast<int>(members.size()) - 1) / 2;
    const int victims = std::min(plan.perGroup, maxFaulty);
    std::vector<ProcessId> pool = members;
    for (int i = 0; i < victims; ++i) {
      const auto idx = static_cast<size_t>(rng.next() % pool.size());
      const ProcessId victim = pool[idx];
      pool.erase(pool.begin() + static_cast<ptrdiff_t>(idx));
      out.push_back(CrashSpec{
          victim, rng.uniform(plan.earliest, std::max(plan.earliest,
                                                      plan.latest))});
    }
  }
  return out;
}

std::vector<RecoverSpec> materializeRecoveries(
    const std::vector<CrashSpec>& crashes, const RandomRecoveries& plan,
    uint64_t seed) {
  std::vector<RecoverSpec> out;
  SplitMix64 rng(SplitMix64(seed).fork(plan.salt).next());
  for (const CrashSpec& c : crashes) {
    const SimTime delay =
        rng.uniform(plan.delayMin, std::max(plan.delayMin, plan.delayMax));
    out.push_back(RecoverSpec{c.pid, c.when + delay});
  }
  return out;
}

std::pair<std::vector<CrashSpec>, std::vector<RecoverSpec>>
materializeChurn(const Topology& topo, const ChurnSpec& plan,
                 uint64_t seed) {
  std::pair<std::vector<CrashSpec>, std::vector<RecoverSpec>> out;
  // Only processes whose group survives their crash are eligible: one
  // victim at a time, so any group of three or more keeps its majority.
  std::vector<ProcessId> eligible;
  for (ProcessId p : topo.allProcesses())
    if (topo.groupSize(topo.group(p)) >= 3) eligible.push_back(p);
  if (eligible.empty() || plan.cycles <= 0) return out;
  SplitMix64 rng(SplitMix64(seed).fork(plan.salt).next());
  for (int c = 0; c < plan.cycles; ++c) {
    const ProcessId victim =
        eligible[static_cast<size_t>(rng.next() % eligible.size())];
    const SimTime when = plan.start + c * plan.period;
    const SimTime down =
        rng.uniform(plan.downMin, std::max(plan.downMin, plan.downMax));
    out.first.push_back(CrashSpec{victim, when});
    out.second.push_back(RecoverSpec{victim, when + down});
  }
  return out;
}

std::vector<PartitionSpec> materializePartitions(const Topology& topo,
                                                 const RandomPartitions& plan,
                                                 uint64_t seed) {
  std::vector<PartitionSpec> out;
  if (topo.numGroups() < 2) return out;  // a lone group has no far side
  SplitMix64 rng(SplitMix64(seed).fork(plan.salt).next());
  for (int i = 0; i < plan.count; ++i) {
    const auto g = static_cast<GroupId>(
        rng.next() % static_cast<uint64_t>(topo.numGroups()));
    const SimTime from =
        rng.uniform(plan.earliest, std::max(plan.earliest, plan.latest));
    const SimTime dur =
        rng.uniform(plan.durMin, std::max(plan.durMin, plan.durMax));
    out.push_back(PartitionSpec{GroupSet::single(g), from, from + dur});
  }
  return out;
}

namespace {

// A deterministic per-rule coin: the k-th matching packet of a rule is
// dropped iff hash(seed, salt, k) < probability. The simulator processes
// packets in a deterministic order, so the whole filter is reproducible.
class DropEngine {
 public:
  DropEngine(std::vector<DropSpec> specs, const Topology& topo,
             uint64_t seed)
      : specs_(std::move(specs)), topo_(&topo) {
    for (const auto& s : specs_)
      coins_.emplace_back(SplitMix64(seed).fork(s.salt).next());
  }

  bool operator()(ProcessId from, ProcessId to, const Payload& p,
                  SimTime now) {
    bool drop = false;
    for (size_t i = 0; i < specs_.size(); ++i) {
      const DropSpec& s = specs_[i];
      if (s.layer && p.layer() != *s.layer) continue;
      if (s.from != kNoProcess && from != s.from) continue;
      if (s.to != kNoProcess && to != s.to) continue;
      if (s.fromGroup != kNoGroup && topo_->group(from) != s.fromGroup)
        continue;
      if (s.toGroup != kNoGroup && topo_->group(to) != s.toGroup) continue;
      if (s.interGroupOnly && topo_->sameGroup(from, to)) continue;
      if (now < s.activeFrom || now >= s.activeUntil) continue;
      // Matching rules consume their coin even if an earlier rule already
      // dropped the packet, so each rule's stream stays self-consistent.
      if (s.probability >= 1.0 || coins_[i].uniform01() < s.probability)
        drop = true;
    }
    return drop;
  }

 private:
  std::vector<DropSpec> specs_;
  const Topology* topo_;
  std::vector<SplitMix64> coins_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Protocol traits and expectations.
// ---------------------------------------------------------------------------

ProtocolTraits traitsOf(core::ProtocolKind kind, bool bootstrapArmed) {
  using core::ProtocolKind;
  ProtocolTraits t;
  switch (kind) {
    case ProtocolKind::kA1:
      // A1's stage-skip optimization is what blocks amnesiac rejoins: a
      // message whose own group proposed the max timestamp goes s1 -> s3
      // WITHOUT a second consensus, so its final order exists only in
      // the TS exchange the recovered process missed — it sticks at s1
      // and blocks the delivery test behind it. Full re-integration
      // needs TS-state transfer (ROADMAP).
      break;
    case ProtocolKind::kFritzke98:
    case ProtocolKind::kRodrigues98:
      // Crash-tolerant, uniform, genuine — and amnesia-recoverable:
      // Fritzke98 never skips stages, so the whole ordering history is
      // in the consensus-instance stream a rejoin replays (decision
      // retransmission + round timeouts); Rodrigues re-collects votes
      // after the retraction re-introduces pending messages. Verified by
      // the crash-recover matrix cells, which cast past the recovery.
      t.recoveredRejoins = true;
      break;
    case ProtocolKind::kDelporte00:
      break;  // ring-token state is lost with the incarnation
    case ProtocolKind::kSkeen87:
      t.toleratesCrashes = false;  // [2] assumes a failure-free system
      break;
    case ProtocolKind::kViaBcast:
    case ProtocolKind::kA2:
      // Broadcast-based: every process participates. Same replay gap as
      // A1 for the rejoin (observed in the crash-recover cells).
      t.genuine = false;
      break;
    case ProtocolKind::kVicente02:
      t.genuine = false;
      // Sequencer-based: a recovered process misses the sequence numbers
      // its dead incarnation consumed and can hold back later slots, so
      // post-recovery delivery is not guaranteed (observed in the
      // crash-recover-sweep cells).
      break;
    case ProtocolKind::kSousa02:
      t.genuine = false;
      t.uniform = false;  // optimistic, non-uniform by design [12]
      break;  // sequencer-based: same recovery gap as Vicente02
    case ProtocolKind::kDetMerge00:
      // [1]'s merge needs every publisher's frontier to advance: a crashed
      // publisher stalls delivery, so crash scenarios are out of scope.
      t.toleratesCrashes = false;
      t.genuine = false;
      break;
  }
  // The bootstrap plane transfers exactly the state whose loss is recorded
  // above (TS exchanges, ring tokens, sequencer counters, merge frontiers):
  // with it armed, every stack's recovered processes rejoin (pinned by the
  // RejoinSmoke suite in tests/test_bootstrap.cpp).
  if (bootstrapArmed) t.recoveredRejoins = true;
  return t;
}

PropertyExpectations defaultExpectations(core::ProtocolKind kind,
                                         bool anyCrashes, bool anyDrops) {
  const ProtocolTraits t = traitsOf(kind);
  PropertyExpectations e;
  e.uniform = t.uniform;
  // Arbitrary omission faults void the quasi-reliable-channel assumption:
  // delivery obligations (validity/agreement) no longer bind, but safety
  // (integrity + prefix order) must survive any loss pattern.
  e.checkLiveness = !anyDrops;
  // Genuineness only holds with its preconditions intact: a multicast
  // protocol may legitimately contact extra groups while handling faults.
  e.checkGenuineness = t.genuine && !anyCrashes && !anyDrops;
  return e;
}

Scenario& Scenario::withDefaultExpectations() {
  const bool anyChurn = churn.has_value() && churn->cycles > 0;
  const bool anyCrashes =
      !crashes.empty() || anyChurn ||
      (randomCrashes.has_value() && randomCrashes->perGroup > 0);
  bool anyDrops;
  if (config.stack.reliableChannels) {
    // The retransmitting substrate (src/channel/) restores the quasi-
    // reliable-channel assumption through transient faults: iid loss
    // (lossRate < 1) and HEALING partitions are masked by retransmission,
    // so the full delivery obligations bind. Only permanent omission still
    // voids them: DropSpec filters match retransmitted copies too (a
    // matched link stays lossy forever), and a partition that never heals
    // leaves the retransmit timers firing into a void.
    bool unhealedCut = false;
    for (const auto& p : partitions)
      if (p.until == kTimeNever) unhealedCut = true;
    anyDrops = !drops.empty() || unhealedCut;
  } else {
    // A partition (or raw wire loss) voids the quasi-reliable-channel
    // assumption exactly like an omission fault: copies sent across the
    // cut are lost for good, so delivery obligations no longer bind
    // (safety still must).
    anyDrops = !drops.empty() || !partitions.empty() ||
               randomPartitions.has_value() || config.lossRate > 0;
  }
  expect = defaultExpectations(config.protocol, anyCrashes, anyDrops);
  // Recovered-delivery is a LIVENESS obligation: it only binds where the
  // other delivery obligations do (drops/partitions void it too — a lost
  // copy can be exactly the one addressed to the recovered process).
  if (expect.checkLiveness &&
      (!recoveries.empty() || randomRecoveries.has_value() || anyChurn))
    expect.checkRecoveredDelivery =
        traitsOf(config.protocol, config.stack.bootstrap.armed)
            .recoveredRejoins;
  return *this;
}

// ---------------------------------------------------------------------------
// Checking and fingerprints.
// ---------------------------------------------------------------------------

verify::Violations checkExpectations(const core::RunResult& r,
                                     const PropertyExpectations& exp) {
  verify::Violations out;
  auto append = [&out](verify::Violations v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  const auto ctx = r.checkContext();
  append(verify::checkUniformIntegrity(ctx));
  append(exp.uniform ? verify::checkUniformPrefixOrder(ctx)
                     : verify::checkPrefixOrderCorrectOnly(ctx));
  if (exp.checkLiveness) {
    append(verify::checkValidity(ctx));
    append(exp.uniform ? verify::checkUniformAgreement(ctx)
                       : verify::checkAgreementCorrectOnly(ctx));
  }
  if (exp.checkRecoveredDelivery)
    append(verify::checkRecoveredDelivery(ctx));
  if (exp.checkGenuineness)
    append(verify::checkGenuineness(ctx, r.genuineness));
  if (exp.quiescenceBudget)
    append(verify::checkQuiescence(ctx, r.lastAlgoSend,
                                   *exp.quiescenceBudget));
  if (r.trace.deliveries.size() < exp.minDeliveries) {
    std::ostringstream os;
    os << "stall: only " << r.trace.deliveries.size() << " deliveries, "
       << "expected at least " << exp.minDeliveries;
    out.push_back(os.str());
  }
  return out;
}

std::string traceFingerprint(const core::RunResult& r) {
  std::ostringstream os;
  os << "topo n=" << r.topo.numProcesses() << " m=" << r.topo.numGroups();
  for (GroupId g = 0; g < r.topo.numGroups(); ++g)
    os << " " << r.topo.groupSize(g);
  os << "\ncorrect";
  for (ProcessId p : r.correct) os << " " << p;
  os << "\n";
  for (const auto& c : r.trace.casts)
    os << "C p" << c.process << " m" << c.msg << " d" << c.dest.bits()
       << " lc" << c.lamport << " t" << c.when << "\n";
  for (const auto& d : r.trace.deliveries)
    os << "D p" << d.process << " m" << d.msg << " lc" << d.lamport << " t"
       << d.when << " o" << d.order << "\n";
  // Fault-plane v2 lines are emitted ONLY when the corresponding events
  // exist: every pre-v2 run fingerprint stays byte-identical.
  for (const auto& rec : r.trace.recoveries)
    os << "R p" << rec.process << " t" << rec.when << "\n";
  for (const auto& p : r.trace.partitions)
    os << "P " << (p.cut ? "cut" : "heal") << " s" << p.side << " t"
       << p.when << "\n";
  if (r.trace.linkDrops != 0) os << "LD " << r.trace.linkDrops << "\n";
  if (r.trace.lossDrops != 0) os << "XD " << r.trace.lossDrops << "\n";
  for (int l = 0; l < kNumLayers; ++l) {
    const auto& c = r.traffic.at(static_cast<Layer>(l));
    // The channel and bootstrap layers postdate the golden corpus: their
    // lines appear only when such traffic exists, so channels-off /
    // bootstrap-unarmed fingerprints (and the loss-drop line above) stay
    // byte-identical to the pre-substrate runs.
    if ((static_cast<Layer>(l) == Layer::kChannel ||
         static_cast<Layer>(l) == Layer::kBootstrap) &&
        c.intra == 0 && c.inter == 0)
      continue;
    os << "T " << layerName(static_cast<Layer>(l)) << " intra=" << c.intra
       << " inter=" << c.inter << "\n";
  }
  os << "lastAlgoSend=" << r.lastAlgoSend << " end=" << r.endTime << "\n";
  return os.str();
}

std::string ScenarioResult::report() const {
  std::ostringstream os;
  os << name << " (seed " << seed << "): " << violations.size()
     << " violation(s)";
  for (const auto& v : violations) os << "\n  " << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// ScenarioRunner.
// ---------------------------------------------------------------------------

ScenarioResult ScenarioRunner::run() const {
  const Scenario& s = scenario_;
  core::RunConfig cfg = s.config;
  if (s.latency) cfg.latency = latencyModelFor(*s.latency);
  // Recovery runs need the consensus round timeout armed (an amnesiac
  // rejoin can be an alive-but-silent round coordinator; see StackConfig).
  // 500ms is ~2 worst-case preset round trips — long enough that only a
  // real stall fires it, short enough that an amnesiac catching up on a
  // backlog of decided instances (one timeout per instance) finishes
  // well inside the cell horizon.
  if ((!s.recoveries.empty() || s.randomRecoveries.has_value() ||
       s.churn.has_value()) &&
      cfg.stack.consensusRoundTimeout == 0)
    cfg.stack.consensusRoundTimeout = 500 * kMs;

  core::Experiment ex(cfg);
  const Topology& topo = ex.context().topology();

  ScenarioResult result;
  result.name = s.name;
  result.seed = cfg.seed;

  // Fault script: scripted crashes verbatim, random crashes derived from
  // the scenario seed.
  result.effectiveCrashes = s.crashes;
  if (s.randomCrashes) {
    auto extra = materializeCrashes(topo, *s.randomCrashes, cfg.seed);
    result.effectiveCrashes.insert(result.effectiveCrashes.end(),
                                   extra.begin(), extra.end());
  }

  // Recovery schedule: scripted verbatim, plus one seed-derived recovery
  // per effective crash.
  result.effectiveRecoveries = s.recoveries;
  if (s.randomRecoveries) {
    auto extra = materializeRecoveries(result.effectiveCrashes,
                                       *s.randomRecoveries, cfg.seed);
    result.effectiveRecoveries.insert(result.effectiveRecoveries.end(),
                                      extra.begin(), extra.end());
  }

  // Churn cycles: paired crash+recover schedules, appended to both.
  if (s.churn) {
    auto [crashes, recoveries] = materializeChurn(topo, *s.churn, cfg.seed);
    result.effectiveCrashes.insert(result.effectiveCrashes.end(),
                                   crashes.begin(), crashes.end());
    result.effectiveRecoveries.insert(result.effectiveRecoveries.end(),
                                      recoveries.begin(), recoveries.end());
  }

  for (const auto& c : result.effectiveCrashes) ex.crashAt(c.pid, c.when);
  for (const auto& rec : result.effectiveRecoveries)
    ex.recoverAt(rec.pid, rec.when);

  // Partition windows: scripted verbatim + seed-derived healing cuts.
  result.effectivePartitions = s.partitions;
  if (s.randomPartitions) {
    auto extra =
        materializePartitions(topo, *s.randomPartitions, cfg.seed);
    result.effectivePartitions.insert(result.effectivePartitions.end(),
                                      extra.begin(), extra.end());
  }
  for (const auto& p : result.effectivePartitions)
    ex.partitionAt(p.side, p.from, p.until);

  if (!s.drops.empty()) {
    // The engine lives in the filter closure; per-rule coin streams are
    // seeded from the scenario seed, so reruns replay identical drops.
    auto engine =
        std::make_shared<DropEngine>(s.drops, topo, cfg.seed);
    auto* rt = &ex.runtime();
    ex.runtime().setDropFilter(
        [engine, rt](ProcessId from, ProcessId to, const Payload& p) {
          return (*engine)(from, to, p, rt->now());
        });
  }

  // Workload: generated casts re-derive from the scenario seed so sweeps
  // explore different sender/destination/arrival patterns per seed.
  if (s.workload) {
    workload::Spec spec = *s.workload;
    spec.seed = SplitMix64(cfg.seed).fork(spec.seed).next();
    ex.addWorkload(std::move(spec));
  }
  for (const auto& c : s.casts) {
    const GroupSet dest = c.dest.empty() ? topo.allGroups() : c.dest;
    ex.castAt(c.when, c.sender, dest, c.body);
  }

  result.run = ex.run(s.runUntil);
  result.violations = checkExpectations(result.run, s.expect);
  result.fingerprint = traceFingerprint(result.run);
  return result;
}

int resolveJobs(int jobs, int maxUseful) {
  if (maxUseful < 1) maxUseful = 1;
  if (jobs <= 0) {
    if (const char* env = std::getenv("WANMC_JOBS")) jobs = std::atoi(env);
    if (jobs <= 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      jobs = hw > 0 ? static_cast<int>(hw) : 1;
    }
  }
  return std::min(jobs, maxUseful);
}

namespace {

// Runs task(0..count-1) on `workers` threads (serially when <= 1). Each
// task writes only its own output slot, so results are independent of
// worker scheduling.
template <typename Task>
void forEachIndex(int count, int workers, const Task& task) {
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) task(i);
    return;
  }
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&]() {
      for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1))
        task(i);
    });
  }
  for (auto& t : pool) t.join();
}

// `s` under `seed`, named "<name>/seed<seed>".
ScenarioResult runWithSeed(Scenario s, uint64_t seed) {
  s.config.seed = seed;
  s.name += "/seed";
  s.name += std::to_string(seed);
  return ScenarioRunner(std::move(s)).run();
}

}  // namespace

std::vector<ScenarioResult> ScenarioRunner::sweepSeeds(uint64_t firstSeed,
                                                       int count,
                                                       int jobs) const {
  std::vector<ScenarioResult> out(static_cast<size_t>(std::max(count, 0)));
  // Each seed builds its own Experiment/Runtime from a private Scenario
  // copy, and the library holds no mutable globals, so seeds are
  // embarrassingly parallel. A threaded-backend seed already runs one OS
  // thread per process; fanning seeds out on top would oversubscribe the
  // machine AND distort the very wall-clock latencies the backend exists
  // to measure. Serial, always.
  const int workers = scenario_.config.backend == exec::Backend::kSim
                          ? resolveJobs(jobs, count)
                          : 1;
  forEachIndex(count, workers, [&](int i) {
    out[static_cast<size_t>(i)] =
        runWithSeed(scenario_, firstSeed + static_cast<uint64_t>(i));
  });
  return out;
}

// ---------------------------------------------------------------------------
// The standard fault matrix.
// ---------------------------------------------------------------------------

namespace {

constexpr int kMatrixGroups = 3;
constexpr int kMatrixProcsPerGroup = 3;
constexpr int kMatrixCasts = 8;
constexpr SimTime kMatrixCastInterval = 70 * kMs;

// Horizons. The fault-plane v2 and later cells stop 30 simulated seconds
// in (~50 WAN round trips past the last arrival): several never quiesce —
// a heartbeat detector ticks forever, retransmit and consensus-round
// timers outlive lost copies. The earlier cells run until the scheduler
// drains.
constexpr SimTime kDrain = 900 * kSec;
constexpr SimTime kBounded = 30 * kSec;

// Named fragments the cells share.

void unchanged(Scenario&) {}

// Group `g` cut off for three WAN round trips, then healed.
void cutGroup(Scenario& s, GroupId g) {
  s.partitions.push_back(
      PartitionSpec{GroupSet::single(g), 150 * kMs, 450 * kMs});
}

// Process 1 (group 0) crashes at `crash` and rejoins with reset state at
// `recover`. Arrivals are extended past the recovery instant: the
// recovered-delivery obligation is vacuous unless messages are cast AFTER
// the rejoin (the rotating senders include the recovered process itself —
// alive again, it casts again).
void crashRecoverP1(Scenario& s, SimTime crash, SimTime recover,
                    int extraCasts) {
  s.crashes.push_back(CrashSpec{1, crash});
  s.recoveries.push_back(RecoverSpec{1, recover});
  s.workload->count = kMatrixCasts + extraCasts;
}

void heartbeat(Scenario& s) { s.config.stack.fdKind = fd::FdKind::kHeartbeat; }

// Up to one victim per group (RandomCrashes' defaults: a strict minority,
// crashing between 50ms and 1s).
void minorityCrashes(Scenario& s) { s.randomCrashes = RandomCrashes{}; }

void openPoisson(Scenario& s, SimTime meanGap) {
  s.workload->model = workload::Model::kOpenLoopPoisson;
  s.workload->meanGap = meanGap;
}

// Batching under dense, Zipf-skewed Poisson arrivals, so multi-cast
// batches actually form — uniform draws spread the batch keys and
// degenerate to singleton batches.
void batchedZipfPoisson(Scenario& s, SimTime window, int maxSize,
                        SimTime meanGap) {
  s.config.stack.batchWindow = window;
  s.config.stack.batchMaxSize = maxSize;
  openPoisson(s, meanGap);
  s.workload->senderZipf = 1.5;
  s.workload->destZipf = 1.5;
}

void channels(Scenario& s) { s.config.stack.reliableChannels = true; }

// Seed-derived crash+recover cycles with the bootstrap plane armed, under
// open-loop arrivals stretched to span the whole churn window (a cycle
// every 2.5s for ~15s).
void churnOpen(Scenario& s) {
  s.config.stack.bootstrap.armed = true;
  s.churn = ChurnSpec{};
  openPoisson(s, 600 * kMs);
  s.workload->count = kMatrixCasts + 20;
}

void channelLoss(Scenario& s, double p) {
  channels(s);
  s.config.lossRate = p;
}

struct Cell {
  const char* tag;
  LatencyPreset latency;
  bool needsCrashTolerance;  // omitted for protocols that assume no crashes
  SimTime horizon;
  void (*delta)(Scenario&);  // applied to the closed-loop base
};

using L = LatencyPreset;

// Omission and partition cells check safety only — lost packets
// legitimately stall bare stacks — unless reliable channels mask the loss
// (see withDefaultExpectations).
const Cell kCells[] = {
    // Failure-free, every latency preset.
    {"ok", L::kLan, false, kDrain, unchanged},
    {"ok", L::kWan, false, kDrain, unchanged},
    {"ok", L::kMixed, false, kDrain, unchanged},
    // Random minority crashes per group, WAN and mixed jitter.
    {"crash-minority", L::kWan, true, kDrain, minorityCrashes},
    {"crash-minority", L::kMixed, true, kDrain, minorityCrashes},
    // The sender crashes right after its first cast (process 0 casts at
    // t=1ms). Broadcast protocols address all groups (empty dest = all).
    {"crash-sender", L::kWan, true, kDrain,
     [](Scenario& s) {
       s.workload.reset();
       const GroupSet dest = core::isBroadcastProtocol(s.config.protocol)
                                 ? GroupSet{}
                                 : GroupSet::of({0, 1});
       s.casts.push_back(ScheduledCast{kMs, 0, dest, "x"});
       for (int i = 1; i < kMatrixCasts; ++i) {
         std::string body = "w";  // append: GCC 12 -Wrestrict
         body += std::to_string(i);
         s.casts.push_back(ScheduledCast{kMs + i * kMatrixCastInterval, 1,
                                         dest, std::move(body)});
       }
       s.crashes.push_back(CrashSpec{0, kMs + 1});
     }},
    {"drop-protocol-lossy", L::kWan, false, kDrain,
     [](Scenario& s) {
       DropSpec d;
       d.layer = Layer::kProtocol;
       d.interGroupOnly = true;
       d.probability = 0.3;
       s.drops.push_back(d);
     }},
    {"drop-window-blackout", L::kWan, false, kDrain,
     [](Scenario& s) {
       DropSpec d;  // total inter-group blackout for a WAN round-trip
       d.interGroupOnly = true;
       d.activeFrom = 150 * kMs;
       d.activeUntil = 400 * kMs;
       s.drops.push_back(d);
     }},
    // Crashes AND probabilistic loss together.
    {"crash-plus-drop", L::kMixed, true, kDrain,
     [](Scenario& s) {
       minorityCrashes(s);
       DropSpec d;
       d.interGroupOnly = true;
       d.probability = 0.15;
       s.drops.push_back(d);
     }},
    // Workload realism: open-loop Poisson arrivals (bursts and quiet
    // stretches at the closed-loop mean rate), on/off bursts with silences
    // longer than a WAN round trip (quiescence/restart paths), and
    // Zipf-skewed hotspots (one hot sender, popular destination groups).
    {"open-poisson", L::kWan, false, kDrain,
     [](Scenario& s) { openPoisson(s, kMatrixCastInterval); }},
    {"open-burst", L::kMixed, false, kDrain,
     [](Scenario& s) {
       s.workload->model = workload::Model::kBursty;
       s.workload->onDuration = kMatrixCastInterval;
       s.workload->offDuration = 300 * kMs;
       s.workload->burstGap = kMatrixCastInterval / 4;
     }},
    {"skew-zipf", L::kWan, false, kDrain,
     [](Scenario& s) {
       s.workload->senderZipf = 1.2;
       s.workload->destZipf = 0.8;
     }},
    // Open-loop load does not pause for fault handling.
    {"open-poisson-crash", L::kWan, true, kDrain,
     [](Scenario& s) {
       openPoisson(s, kMatrixCastInterval);
       minorityCrashes(s);
     }},
    // The heartbeat detector instead of the oracle: heartbeat traffic (and,
    // for cross-group stacks, the remote lanes) under WAN jitter with no
    // suspicion ever justified; then minority crashes, where suspicion
    // comes from timeouts — for Rodrigues-style cross-group consensus the
    // remote-lane path (a remote crash must be suspected or the vote
    // quorum hangs).
    {"hb-ok", L::kWan, false, kBounded, heartbeat},
    {"hb-crash-minority", L::kWan, true, kBounded,
     [](Scenario& s) {
       heartbeat(s);
       minorityCrashes(s);
     }},
    // A partition that heals. Copies crossing the cut are lost for good
    // (no retransmission below the protocols).
    {"partition-heal", L::kWan, false, kBounded,
     [](Scenario& s) { cutGroup(s, 0); }},
    {"partition-heal-hb", L::kWan, false, kBounded,
     [](Scenario& s) {
       heartbeat(s);
       cutGroup(s, 0);
     }},
    // Crash + recovery: integrity binds per incarnation, uniform order
    // skips the amnesiac, and when the protocol re-integrates recovered
    // processes they must deliver the post-recovery messages every correct
    // addressee delivered.
    {"crash-recover", L::kWan, true, kBounded,
     [](Scenario& s) { crashRecoverP1(s, 200 * kMs, 500 * kMs, 4); }},
    {"crash-recover-hb", L::kWan, true, kBounded,
     [](Scenario& s) {
       heartbeat(s);
       crashRecoverP1(s, 200 * kMs, 500 * kMs, 4);
     }},
    // Seed-derived minority crashes, every victim recovering after a
    // seed-derived delay, under adversarial jitter.
    {"crash-recover-sweep", L::kMixed, true, kBounded,
     [](Scenario& s) {
       minorityCrashes(s);
       s.randomRecoveries = RandomRecoveries{};
     }},
    // The healing cut and the amnesiac rejoin interact: suspicion from the
    // partition must retract while the recovered process re-integrates.
    {"partition-recover", L::kWan, true, kBounded,
     [](Scenario& s) {
       cutGroup(s, 1);
       crashRecoverP1(s, 200 * kMs, 600 * kMs, 4);
     }},
    // Batching: the stacks order ONE carrier per (sender, destination-set)
    // window. Failure-free, every window must flush. Under crashes,
    // dead-sender batches are dropped (their casts bind no obligations)
    // while correct senders' batches still flush and deliver. Across a
    // healing cut, a lost carrier must lose its casts ATOMICALLY (prefix
    // order over constituents survives partial connectivity).
    {"batch-open-poisson", L::kWan, false, kDrain,
     [](Scenario& s) {
       batchedZipfPoisson(s, 50 * kMs, 4, kMatrixCastInterval / 8);
     }},
    {"batch-crash", L::kWan, true, kDrain,
     [](Scenario& s) {
       batchedZipfPoisson(s, 60 * kMs, 3, kMatrixCastInterval / 4);
       minorityCrashes(s);
     }},
    {"batch-partition-heal", L::kWan, false, kBounded,
     [](Scenario& s) {
       batchedZipfPoisson(s, 60 * kMs, 4, kMatrixCastInterval / 8);
       cutGroup(s, 0);
     }},
    // Reliable channels under the faults that void liveness for bare
    // stacks: transient loss and healing cuts must be masked, so these run
    // the FULL property suite. The healing cut first — retransmit timers
    // outlive it, so every copy lost across it is re-sent after the heal.
    {"chan-partition-heal", L::kWan, false, kBounded,
     [](Scenario& s) {
       channels(s);
       cutGroup(s, 0);
     }},
    // iid per-copy wire loss at 1%, 5% and 10%, the classic lossy-WAN
    // regime: the selective-repeat machinery must recover every gap.
    {"chan-loss-p1", L::kWan, false, kBounded,
     [](Scenario& s) { channelLoss(s, 0.01); }},
    {"chan-loss-p5", L::kWan, false, kBounded,
     [](Scenario& s) { channelLoss(s, 0.05); }},
    {"chan-loss-p10", L::kWan, false, kBounded,
     [](Scenario& s) { channelLoss(s, 0.10); }},
    // Incarnation keying keeps a recovered endpoint from replaying its
    // dead incarnation's sequence space.
    {"chan-crash-recover", L::kWan, true, kBounded,
     [](Scenario& s) {
       channels(s);
       crashRecoverP1(s, 200 * kMs, 500 * kMs, 4);
     }},
    // Bootstrap: with the state-transfer plane armed, traitsOf(kind, armed)
    // flips recoveredRejoins for every stack, so checkRecoveredDelivery
    // binds across the whole protocol zoo. First the crash-recover script.
    {"boot-crash-recover", L::kWan, true, kBounded,
     [](Scenario& s) {
       s.config.stack.bootstrap.armed = true;
       crashRecoverP1(s, 200 * kMs, 500 * kMs, 4);
     }},
    // Partition + recovery with BOTH substrates armed: retransmission masks
    // the healing cut (liveness binds again, unlike partition-recover),
    // then a crash+rejoin runs on the healed network, so the transferred
    // state spans the partition era. The crash sits well past the heal: a
    // victim that dies while its partition-dropped copies are still on the
    // ARQ's backed-off retry schedule loses them forever (its channel state
    // dies with it), which non-uniform stacks without a second data path —
    // Sousa02 has no echo — legitimately cannot mask. The in-partition
    // handshake path is covered by test_bootstrap.
    {"boot-partition-recover", L::kWan, true, kBounded,
     [](Scenario& s) {
       s.config.stack.bootstrap.armed = true;
       channels(s);
       cutGroup(s, 1);
       crashRecoverP1(s, 1500 * kMs, 1900 * kMs, 20);
     }},
    // Long-horizon churn: every victim must rejoin mid-traffic, cycle
    // after cycle, under the oracle and the heartbeat detector alike.
    {"churn-open", L::kWan, true, kBounded, churnOpen},
    {"churn-open-hb", L::kWan, true, kBounded,
     [](Scenario& s) {
       heartbeat(s);
       churnOpen(s);
     }},
};

}  // namespace

std::vector<Scenario> standardFaultMatrix(core::ProtocolKind kind) {
  const bool toleratesCrashes = traitsOf(kind).toleratesCrashes;
  std::vector<Scenario> out;
  for (const Cell& c : kCells) {
    if (c.needsCrashTolerance && !toleratesCrashes) continue;
    Scenario s;
    s.name = core::protocolName(kind);  // built by append: avoids the GCC
    s.name += "/";                      // 12 -Wrestrict false positive on
    s.name += c.tag;                    // chained operator+
    s.name += "/";
    s.name += latencyPresetName(c.latency);
    s.config.groups = kMatrixGroups;
    s.config.procsPerGroup = kMatrixProcsPerGroup;
    s.config.protocol = kind;
    s.latency = c.latency;
    s.workload = workload::Spec::closedLoop(kMatrixCasts, kMatrixCastInterval);
    s.runUntil = c.horizon;
    c.delta(s);
    s.withDefaultExpectations();
    // No cell may stall flat where delivery obligations bind.
    if (s.expect.checkLiveness) s.expect.minDeliveries = 1;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ScenarioResult> runStandardMatrix(core::ProtocolKind kind,
                                              int seedsPerCell) {
  const std::vector<Scenario> cells = standardFaultMatrix(kind);
  const int seeds = std::max(seedsPerCell, 0);
  const int count = static_cast<int>(cells.size()) * seeds;
  std::vector<ScenarioResult> out(static_cast<size_t>(count));
  forEachIndex(count, resolveJobs(0, count), [&](int i) {
    out[static_cast<size_t>(i)] =
        runWithSeed(cells[static_cast<size_t>(i / seeds)],
                    1 + static_cast<uint64_t>(i % seeds));
  });
  return out;
}

}  // namespace wanmc::testing
