// costbench: the cost-ledger benchmark.
//
// Runs one named workload through wanmc's public API the way a user would
// (core::Experiment construction, Experiment::run, which harvests, then
// RunResult::checkAtomicSuite) and reports what each delivered message
// cost: wall time, CPU time, latency from the cast's due time, inter-group
// wire messages (the paper's WAN cost) and memory. The traced mode
// (--trace 1) times each public call on its own, reads the counters the
// layers already expose (TrafficStats per Layer, ChannelStats, the fired-
// event count of sim::Runtime::run, a bench-side sim::RunObserver and the
// operator new hook below) and writes the spans as Chrome trace events.
//
//   costbench --workload a1_wan_open --seed 1 --seconds 10 --trace 0
//             [--trace-out run.trace.json]
//
// The bench owns the arrival schedule: it draws Poisson arrivals from
// --seed and hands the program only the resulting trace-replay spec. Every
// repetition of a run replays the same schedule; the last line of stdout
// is one JSON object {correct, attempted, failed, metrics}, and the exit
// code is 0 iff the run was correct. README.md explains each workload and
// metric.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "metrics/summary.hpp"
#include "sim/observer.hpp"
#include "verify/properties.hpp"
#include "workload/spec.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every operator new in the process, all threads.
// ---------------------------------------------------------------------------

static std::atomic<uint64_t> g_allocs{0};

// The replaced operator new allocates with std::malloc, so std::free is its
// deallocator; GCC's -Wmismatched-new-delete cannot see that.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace wanmc::costbench {
namespace {

using Clock = std::chrono::steady_clock;

double wallS() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}
double cpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  core::ProtocolKind protocol;
  exec::Backend backend;
  std::vector<int> groupSizes;
  sim::LatencyModel latency;
  int casts;
  SimTime meanGap;  // Poisson inter-arrival mean
  bool arq;         // reliable channels armed
  double loss;      // iid per-copy loss
};

const sim::LatencyModel kWan{1 * kMs, 2 * kMs, 95 * kMs, 110 * kMs};
const sim::LatencyModel kLan{200, 400, 2 * kMs, 3 * kMs};

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"a1_wan_open", core::ProtocolKind::kA1, exec::Backend::kSim,
       {3, 3, 3}, kWan, 10000, 3 * kMs, false, 0.0},
      {"a2_bcast_open", core::ProtocolKind::kA2, exec::Backend::kSim,
       {3, 3, 3}, kWan, 50000, 1 * kMs, false, 0.0},
      {"a1_lossy_arq", core::ProtocolKind::kA1, exec::Backend::kSim,
       {3, 3, 3}, kWan, 5000, 3 * kMs, true, 0.02},
      {"a1_threaded_lan", core::ProtocolKind::kA1, exec::Backend::kThreaded,
       {2, 1}, kLan, 3000, 1 * kMs, false, 0.0},
  };
  return defs;
}

bool isSim(const WorkloadDef& w) { return w.backend == exec::Backend::kSim; }

// Open-loop Poisson arrivals drawn from the bench's seed. Senders are
// uniform over processes; a multicast addresses the sender's own group
// plus one other uniformly drawn group; a broadcast leaves dest empty
// ("all groups").
std::vector<workload::TraceCast> makeSchedule(const WorkloadDef& w,
                                              uint64_t seed) {
  const Topology topo(w.groupSizes);
  SplitMix64 rng = SplitMix64(seed).fork(0xc057beef);
  const bool broadcast = core::isBroadcastProtocol(w.protocol);
  std::vector<workload::TraceCast> out;
  out.reserve(static_cast<size_t>(w.casts));
  double t = static_cast<double>(10 * kMs);
  for (int i = 0; i < w.casts; ++i) {
    if (i > 0)
      t += std::max(1.0, -std::log1p(-rng.uniform01()) *
                             static_cast<double>(w.meanGap));
    workload::TraceCast c;
    c.when = static_cast<SimTime>(std::llround(t));
    c.sender = static_cast<ProcessId>(rng.uniform(0, topo.numProcesses() - 1));
    if (!broadcast) {
      const GroupId own = topo.group(c.sender);
      auto other = static_cast<GroupId>(rng.uniform(0, topo.numGroups() - 2));
      if (other >= own) ++other;
      c.dest = GroupSet::of({own, other});
    }
    out.push_back(c);
  }
  return out;
}

core::RunConfig makeConfig(const WorkloadDef& w, uint64_t seed,
                           const std::vector<workload::TraceCast>& sched) {
  core::RunConfig c;
  c.backend = w.backend;
  c.groupSizes = w.groupSizes;
  c.latency = w.latency;
  c.seed = seed;
  c.protocol = w.protocol;
  c.stack.reliableChannels = w.arq;
  c.lossRate = w.loss;
  c.workload = workload::Spec::traceReplay(sched);
  return c;
}

// Run horizon: simulated time on the sim, a real-time budget (a safety net;
// the run ends when every addressee has delivered) on the threaded backend.
SimTime horizon(const WorkloadDef& w,
                const std::vector<workload::TraceCast>& sched) {
  return sched.back().when + (isSim(w) ? 120 * kSec : 20 * kSec);
}

// ---------------------------------------------------------------------------
// Per-repetition outcome.
// ---------------------------------------------------------------------------

struct Outcome {
  double spanS = 0;  // run + harvest + verify, wall
  double cpuS = 0;   // the same span, process CPU (all threads)
  uint64_t casts = 0;
  uint64_t deliveries = 0;
  uint64_t undelivered = 0;
  std::vector<std::string> violations;
  // Per message in issue order: due -> last addressee's A-Deliver (fully
  // delivered messages only), and recorded cast time - due time.
  std::vector<SimTime> latency;
  std::vector<SimTime> lag;
  TrafficStats traffic;
  ChannelStats channels;
  std::map<int64_t, uint64_t> degrees;
  uint64_t spanAllocs = 0;
};

// Everything about a run that must repeat exactly on the sim backend.
bool sameDeterministic(const Outcome& a, const Outcome& b, bool withAllocs,
                       std::string& what) {
  if (a.casts != b.casts || a.deliveries != b.deliveries)
    what = "casts/deliveries";
  else if (!(a.traffic == b.traffic)) what = "TrafficStats";
  else if (!(a.channels == b.channels)) what = "ChannelStats";
  else if (a.degrees != b.degrees) what = "latency degrees";
  else if (a.latency != b.latency) what = "message latencies";
  else if (a.lag != b.lag) what = "generator lag";
  else if (withAllocs && a.spanAllocs != b.spanAllocs) what = "allocations";
  else return true;
  return false;
}

void analyse(const core::RunResult& r, const std::vector<MsgId>& ids,
             const std::vector<workload::TraceCast>& sched, Outcome& o) {
  o.casts = ids.size();
  o.deliveries = r.trace.deliveries.size();
  o.traffic = r.traffic;
  o.channels = r.metrics.channels;
  o.degrees = r.metrics.latencyDegrees;
  MsgId maxId = 0;
  for (MsgId id : ids) maxId = std::max(maxId, id);
  std::vector<SimTime> due(maxId + 1, -1), castAt(maxId + 1, -1),
      last(maxId + 1, -1);
  std::vector<int> got(maxId + 1, 0);
  for (size_t i = 0; i < ids.size() && i < sched.size(); ++i)
    due[ids[i]] = sched[i].when;
  for (const CastEvent& c : r.trace.casts)
    if (c.msg <= maxId) castAt[c.msg] = c.when;
  for (const DeliveryEvent& d : r.trace.deliveries) {
    if (d.msg > maxId) continue;
    ++got[d.msg];
    last[d.msg] = std::max(last[d.msg], d.when);
  }
  o.latency.clear();
  o.lag.clear();
  o.undelivered = 0;
  for (MsgId id : ids) {
    int owed = 0;
    const auto dest = r.trace.destOf.find(id);
    if (dest != r.trace.destOf.end())
      for (ProcessId p : r.topo.membersOf(dest->second))
        owed += r.correct.count(p) ? 1 : 0;
    if (castAt[id] < 0 || owed == 0 || got[id] < owed) {
      ++o.undelivered;
      continue;
    }
    o.latency.push_back(last[id] - due[id]);
    o.lag.push_back(castAt[id] - due[id]);
  }
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Exact nearest-rank percentile of integer samples.
SimTime percentile(const std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

double ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Best-case latency-degree probe (paper §4 Theorem 4.1, §5 Theorem 5.1).
// ---------------------------------------------------------------------------

// Jitter-free WAN so the paper's favourable interleaving is deterministic.
core::RunConfig probeConfig(core::ProtocolKind p) {
  core::RunConfig c;
  c.groups = 2;
  c.procsPerGroup = 2;
  c.protocol = p;
  c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
  return c;
}

// A1: one cast to two groups on an idle system. A2: a one-cast idle probe
// reads 2 (the cold start of Theorem 5.2 wakes the remote groups first),
// so A2's best case is probed while rounds run: a steady stream, minimum
// degree over it.
bool probeDegrees(int& a1, int& a2) {
  {
    core::Experiment ex(probeConfig(core::ProtocolKind::kA1));
    const MsgId id = ex.castAt(kMs, 0, GroupSet::of({0, 1}), "probe");
    const core::RunResult r = ex.run();
    a1 = static_cast<int>(r.trace.latencyDegree(id).value_or(-1));
    if (!r.checkAtomicSuite().empty()) return false;
  }
  {
    core::Experiment ex(probeConfig(core::ProtocolKind::kA2));
    for (int i = 0; i < 30; ++i)
      ex.castAllAt(kMs + i * 40 * kMs, static_cast<ProcessId>(i % 4), "probe");
    const core::RunResult r = ex.run(600 * kSec);
    a2 = static_cast<int>(r.trace.minLatencyDegree().value_or(-1));
    if (!r.checkAtomicSuite().empty()) return false;
  }
  return a1 == 2 && a2 == 1;
}

// ---------------------------------------------------------------------------
// Tracing: spans around each public call plus per-layer send counts at the
// same boundaries, kept in memory and written as Chrome trace events.
// ---------------------------------------------------------------------------

// Counts wire copies per layer as the sim runtime hands them to the
// network (the same accounting as TrafficStats).
class SendCounter final : public sim::RunObserver {
 public:
  void onSend(const WireEvent& ev) override {
    TrafficStats::Counter& c = perLayer_.at(ev.layer);
    ++(ev.interGroup ? c.inter : c.intra);
  }
  [[nodiscard]] const TrafficStats& counts() const { return perLayer_; }

 private:
  TrafficStats perLayer_;
};

class Tracer {
 public:
  explicit Tracer(double origin) : origin_(origin) {}

  // Sends observed so far on the current rep (nullptr: none observable).
  void observe(const SendCounter* sends) { sends_ = sends; }

  template <class F>
  double span(const char* name, F&& fn) {
    const double t0 = wallS();
    sample(t0);
    fn();
    const double t1 = wallS();
    sample(t1);
    spans_.push_back(Span{name, t0, t1});
    return t1 - t0;
  }

  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    bool first = true;
    auto sep = [&]() {
      std::fprintf(f, first ? "  " : ",\n  ");
      first = false;
    };
    for (const Span& s : spans_) {
      sep();
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f}",
                   s.name, us(s.t0), (s.t1 - s.t0) * 1e6);
    }
    for (const Sample& c : samples_) {
      sep();
      std::fprintf(f,
                   "{\"name\": \"sends\", \"ph\": \"C\", \"pid\": 1, "
                   "\"ts\": %.3f, \"args\": {",
                   us(c.t));
      for (int l = 0; l < kNumLayers; ++l)
        std::fprintf(f, "%s\"%s\": %llu", l == 0 ? "" : ", ",
                     layerName(static_cast<Layer>(l)),
                     static_cast<unsigned long long>(c.total[l]));
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double t0, t1;
  };
  struct Sample {
    double t;
    uint64_t total[kNumLayers];
  };

  [[nodiscard]] double us(double t) const { return (t - origin_) * 1e6; }

  void sample(double t) {
    if (sends_ == nullptr) return;
    Sample s{t, {}};
    for (int l = 0; l < kNumLayers; ++l)
      s.total[l] = sends_->counts().perLayer[l].total();
    samples_.push_back(s);
  }

  double origin_;
  const SendCounter* sends_ = nullptr;
  std::vector<Span> spans_;
  std::vector<Sample> samples_;
};

// Per-layer figures of one traced repetition.
struct LayerRep {
  double loopS = 0;     // event loop (sim) / run minus harvest (threaded)
  uint64_t events = 0;  // fired sim events; 0 on the threaded backend
  uint64_t loopAllocs = 0;
  double harvestS = 0;
  double traceMb = 0;
  double summarizeS = 0;
  double integrityS = 0, validityS = 0, agreementS = 0, prefixOrderS = 0;
  double execRunS = 0, execCpuS = 0;
  double spanS = 0;  // the traced counterpart of Outcome::spanS
};

// Bytes held by a harvested trace: vector capacities plus map nodes
// (payload + a 32-byte red-black node header).
double traceMb(const RunTrace& t) {
  const double bytes =
      static_cast<double>(t.casts.capacity() * sizeof(CastEvent) +
                          t.deliveries.capacity() * sizeof(DeliveryEvent) +
                          t.wire.capacity() * sizeof(WireEvent)) +
      static_cast<double>(t.destOf.size()) *
          (sizeof(std::pair<const MsgId, GroupSet>) + 32) +
      static_cast<double>(t.senderOf.size()) *
          (sizeof(std::pair<const MsgId, ProcessId>) + 32);
  return bytes / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// The benchmark.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string traceOut;
};

class Bench {
 public:
  Bench(const WorkloadDef& w, const Args& a)
      : w_(w), args_(a), sched_(makeSchedule(w, a.seed)),
        horizon_(horizon(w, sched_)), tracer_(wallS()) {}

  int run() {
    const double start = wallS();
    int a1 = 0, a2 = 0;
    if (!probeDegrees(a1, a2))
      fail("best-case latency degree probe: A1=" + std::to_string(a1) +
           " (want 2), A2=" + std::to_string(a2) + " (want 1)");
    std::printf("# workload %s seed %llu: %zu casts, probe A1=%d A2=%d\n",
                w_.name, static_cast<unsigned long long>(args_.seed),
                sched_.size(), a1, a2);
    // Repeat until the measuring time is spent. Past kHardStopS no new rep
    // starts, so one slow rep cannot push a run past three minutes.
    constexpr int kMinReps = 3;
    constexpr double kHardStopS = 120;
    for (int rep = 0;; ++rep) {
      const double el = wallS() - start;
      if (rep >= kMinReps && el >= args_.seconds) break;
      if (rep > 0 && el >= kHardStopS) break;
      untracedRep();
      if (args_.trace != 0) tracedRep();
      if (!errors_.empty()) break;
    }
    if (args_.trace != 0 && !args_.traceOut.empty() &&
        !tracer_.write(args_.traceOut))
      fail("cannot write trace file " + args_.traceOut);
    return report();
  }

 private:
  void fail(const std::string& why) {
    if (errors_.size() < 8) errors_.push_back(why);
  }

  // One Experiment construction (workload install included), timed. The
  // extra constructions per rep only feed the setup_s median.
  std::unique_ptr<core::Experiment> construct() {
    core::RunConfig cfg = makeConfig(w_, args_.seed, sched_);
    const double t0 = wallS();
    auto ex = std::make_unique<core::Experiment>(std::move(cfg));
    setupS_.push_back(wallS() - t0);
    return ex;
  }

  void untracedRep() {
    constexpr int kSetupSamples = 25;
    for (int i = 1; i < kSetupSamples; ++i) construct();
    std::unique_ptr<core::Experiment> ex = construct();
    Outcome o;
    const uint64_t a0 = allocs();
    const double c0 = cpuS();
    const double t0 = wallS();
    const core::RunResult r = ex->run(horizon_);
    o.violations = r.checkAtomicSuite();
    o.spanS = wallS() - t0;
    o.cpuS = cpuS() - c0;
    o.spanAllocs = allocs() - a0;
    analyse(r, ex->workloadIds(), sched_, o);
    record(o);
  }

  void record(Outcome& o) {
    for (const std::string& v : o.violations) fail("verify: " + v);
    attempted_ += o.casts;
    failed_ += o.undelivered;
    if (o.undelivered > 0)
      fail(std::to_string(o.undelivered) + " casts undelivered at the horizon");
    if (o.casts != sched_.size()) fail("not every scheduled cast was issued");
    if (isSim(w_) && !reps_.empty()) {
      std::string what;
      if (!sameDeterministic(reps_.front(), o, true, what))
        fail("deterministic counter drift between identical reps: " + what);
    }
    reps_.push_back(std::move(o));
  }

  // The same run again, each public call in its own span. Must reproduce
  // the untraced rep's counters exactly on the sim backend.
  void tracedRep() {
    LayerRep L;
    Outcome o;
    SendCounter sends;
    // The enclosing span nests every public call of this rep.
    tracer_.span("rep", [&] {
      std::unique_ptr<core::Experiment> ex;
      tracer_.span("core.Experiment()", [&] {
        ex = std::make_unique<core::Experiment>(
            makeConfig(w_, args_.seed, sched_));
      });
      core::RunResult r;
      const double c0 = cpuS();
      if (isSim(w_)) {
        ex->runtime().addObserver(&sends, sim::kObserveSends);
        tracer_.observe(&sends);
        // Experiment::run split at its seams: start (run to t=0), the
        // event loop, then a run that finds nothing left and harvests.
        const double startS =
            tracer_.span("core.Experiment::run(0)", [&] { ex->run(0); });
        L.loopS = tracer_.span("sim.Runtime::run", [&] {
          const uint64_t a0 = allocs();
          L.events = ex->runtime().run(horizon_);
          L.loopAllocs = allocs() - a0;
        });
        L.harvestS = tracer_.span("core.Experiment::run (harvest)",
                                  [&] { r = ex->run(horizon_); });
        L.execRunS = startS + L.loopS + L.harvestS;
      } else {
        uint64_t runAllocs = 0, harvestAllocs = 0;
        L.execRunS = tracer_.span("core.Experiment::run", [&] {
          const uint64_t a0 = allocs();
          r = ex->run(horizon_);
          runAllocs = allocs() - a0;
        });
        // A second run() on the finished threaded backend only harvests.
        L.harvestS = tracer_.span("core.Experiment::run (harvest)", [&] {
          const uint64_t a0 = allocs();
          r = ex->run(horizon_);
          harvestAllocs = allocs() - a0;
        });
        L.loopS = L.execRunS - L.harvestS;
        L.loopAllocs = runAllocs - std::min(runAllocs, harvestAllocs);
      }
      L.execCpuS = cpuS() - c0;
      const verify::CheckContext ctx = r.checkContext();
      auto check = [&](const char* span, verify::Violations (*fn)(
                                             const verify::CheckContext&)) {
        verify::Violations v;
        const double s = tracer_.span(span, [&] { v = fn(ctx); });
        o.violations.insert(o.violations.end(), v.begin(), v.end());
        return s;
      };
      L.integrityS = check("verify.checkUniformIntegrity",
                           verify::checkUniformIntegrity);
      L.validityS = check("verify.checkValidity", verify::checkValidity);
      L.agreementS = check("verify.checkUniformAgreement",
                           verify::checkUniformAgreement);
      L.prefixOrderS = check("verify.checkUniformPrefixOrder",
                             verify::checkUniformPrefixOrder);
      L.spanS = L.execRunS + L.integrityS + L.validityS + L.agreementS +
                L.prefixOrderS;
      metrics::Summary s;
      L.summarizeS = tracer_.span("metrics.summarizeTrace", [&] {
        s = metrics::summarizeTrace(r.trace, r.topo, r.traffic,
                                    r.lastAlgoSend, r.endTime);
      });
      if (s.deliveries != r.metrics.deliveries ||
          s.latencyDegrees != r.metrics.latencyDegrees)
        fail("metrics::summarizeTrace disagrees with the run's Summary");
      if (isSim(w_) && !(sends.counts() == r.traffic))
        fail("observed sends disagree with TrafficStats");
      L.traceMb = traceMb(r.trace);
      analyse(r, ex->workloadIds(), sched_, o);
    });
    tracer_.observe(nullptr);  // `sends` dies with this rep
    for (const std::string& v : o.violations) fail("verify (traced): " + v);
    if (isSim(w_)) {
      std::string what;
      if (!sameDeterministic(reps_.back(), o, false, what))
        fail("traced run diverged from the untraced run: " + what);
      if (!layers_.empty() && (layers_.front().events != L.events ||
                               layers_.front().loopAllocs != L.loopAllocs))
        fail("deterministic counter drift between traced reps: "
             "events/allocations");
    }
    if (o.undelivered > 0) fail("traced run left casts undelivered");
    layers_.push_back(L);
  }

  // Median over traced reps of one LayerRep field.
  [[nodiscard]] double layerMedian(double LayerRep::*field) const {
    std::vector<double> xs;
    for (const LayerRep& l : layers_) xs.push_back(l.*field);
    return median(xs);
  }

  int report() {
    struct Metric {
      std::string name, unit;
      double value;
    };
    std::vector<Metric> e2e, layer;
    std::vector<SimTime> lat, lag;
    std::vector<double> dps, cpu, span;
    for (const Outcome& o : reps_) {
      lat.insert(lat.end(), o.latency.begin(), o.latency.end());
      lag.insert(lag.end(), o.lag.begin(), o.lag.end());
      const double d = static_cast<double>(std::max<uint64_t>(o.deliveries, 1));
      dps.push_back(d / o.spanS);
      cpu.push_back(o.cpuS * 1e6 / d);
      span.push_back(o.spanS);
    }
    std::printf("# per-rep deliveries_per_s:");
    for (double d : dps) std::printf(" %.0f", d);
    std::printf("\n");
    std::sort(lat.begin(), lat.end());
    std::sort(lag.begin(), lag.end());
    const Outcome& o = reps_.front();
    const double casts = static_cast<double>(std::max<uint64_t>(o.casts, 1));
    const double dlv =
        static_cast<double>(std::max<uint64_t>(o.deliveries, 1));

    e2e = {
        {"setup_s", "s", median(setupS_)},
        {"deliveries_per_s", "1/s", median(dps)},
        {"cpu_us_per_delivery", "us", median(cpu)},
        {"msg_latency_p50_ms", "ms",
         static_cast<double>(percentile(lat, 0.50)) / 1e3},
        {"msg_latency_p99_ms", "ms",
         static_cast<double>(percentile(lat, 0.99)) / 1e3},
        {"inter_msgs_per_cast", "msg/cast",
         static_cast<double>(o.traffic.interAlgorithmic()) / casts},
        {"peak_rss_mb", "MB", peakRssMb()},
    };

    std::printf("# %zu reps, %zu setup samples, %zu latency samples "
                "(%s time)\n",
                reps_.size(), setupS_.size(), lat.size(),
                isSim(w_) ? "simulated" : "real");
    std::printf("# undelivered_frac %.6g (%llu of %llu casts), "
                "generator_lag_p99_ms %.6g, violations %zu\n",
                ratio(failed_, attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_),
                static_cast<double>(percentile(lag, 0.99)) / 1e3,
                errors_.size());

    if (!layers_.empty()) {
      const ChannelStats& ch = o.channels;
      const TrafficStats& t = o.traffic;
      auto perCast = [&](uint64_t n) {
        return static_cast<double>(n) / casts;
      };
      std::vector<SimTime> degs;
      for (const auto& [deg, n] : o.degrees) degs.insert(degs.end(), n, deg);
      std::vector<double> allocs, cpuPerWall;
      for (const LayerRep& l : layers_) {
        allocs.push_back(static_cast<double>(l.loopAllocs));
        cpuPerWall.push_back(l.execCpuS / l.execRunS);
      }
      const double untraced = median(span);
      const double traced = layerMedian(&LayerRep::spanS);
      layer = {
          {"sim.loop_s", "s", layerMedian(&LayerRep::loopS)},
          {"sim.events_per_delivery", "events/delivery",
           static_cast<double>(layers_.front().events) / dlv},
          {"sim.allocs_per_delivery", "allocs/delivery", median(allocs) / dlv},
          {"consensus.intra_per_cast", "msg/cast",
           perCast(t.at(Layer::kConsensus).intra)},
          {"rmcast.intra_per_cast", "msg/cast",
           perCast(t.at(Layer::kReliableMulticast).intra)},
          {"rmcast.inter_per_cast", "msg/cast",
           perCast(t.at(Layer::kReliableMulticast).inter)},
          {"protocol.inter_per_cast", "msg/cast",
           perCast(t.at(Layer::kProtocol).inter)},
          {"protocol.latency_degree_p50", "degree",
           static_cast<double>(percentile(degs, 0.50))},
          {"channel.retransmit_ratio", "ratio",
           ratio(ch.retransmits, ch.dataSent)},
          {"channel.useful_ratio", "ratio",
           ratio(ch.delivered, ch.dataSent + ch.retransmits)},
          {"channel.acks_per_data", "ratio", ratio(ch.acksSent, ch.dataSent)},
          {"core.harvest_s", "s", layerMedian(&LayerRep::harvestS)},
          {"core.trace_mb", "MB", layers_.front().traceMb},
          {"metrics.summarize_s", "s", layerMedian(&LayerRep::summarizeS)},
          {"verify.integrity_s", "s", layerMedian(&LayerRep::integrityS)},
          {"verify.validity_s", "s", layerMedian(&LayerRep::validityS)},
          {"verify.agreement_s", "s", layerMedian(&LayerRep::agreementS)},
          {"verify.prefix_order_s", "s",
           layerMedian(&LayerRep::prefixOrderS)},
          {"exec.cpu_per_wall", "ratio", median(cpuPerWall)},
          {"exec.run_s", "s", layerMedian(&LayerRep::execRunS)},
          {"trace.overhead_pct", "%", (traced - untraced) / untraced * 100.0},
      };
    }

    for (const std::vector<Metric>* ms : {&e2e, &layer})
      for (const Metric& m : *ms)
        std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string& e : errors_)
      std::printf("# FAIL: %s\n", e.c_str());

    const bool correct = errors_.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    const std::vector<Metric>& out = args_.trace != 0 ? layer : e2e;
    for (size_t i = 0; i < out.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                  out[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  const WorkloadDef& w_;
  Args args_;
  std::vector<workload::TraceCast> sched_;
  SimTime horizon_;
  Tracer tracer_;
  std::vector<double> setupS_;
  std::vector<Outcome> reps_;
  std::vector<LayerRep> layers_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "costbench: %s\nusage: costbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               why);
  for (const WorkloadDef& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace wanmc::costbench

int main(int argc, char** argv) {
  using namespace wanmc::costbench;
  // Keep freed heap memory in the process: repetitions after the first
  // then reuse pages instead of returning them to the OS and faulting
  // them back in, which made identical reps differ by up to 30%. The
  // first rep still pays every fault; the median sets it aside.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), &end, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), &end);
    else if (k == "--trace")
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    else if (k == "--trace-out") a.traceOut = v;
    else return usage(("unknown flag " + k).c_str());
    if (end != nullptr && *end != '\0')
      return usage(("bad value for " + k).c_str());
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1))
    return usage("--seconds must be > 0 and --trace 0 or 1");
  for (const WorkloadDef& w : workloads())
    if (a.workload == w.name) {
      try {
        Bench b(w, a);
        return b.run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "costbench: %s\n", e.what());
        return 1;
      }
    }
  return usage(("unknown workload '" + a.workload + "'").c_str());
}
