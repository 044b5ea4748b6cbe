// metrics::Recorder — streaming, observer-driven run measurement.
//
// One Recorder subscribes to the runtime's cast/delivery/send hooks
// (sim/observer.hpp) and maintains every aggregate of metrics::Summary
// online: latency histograms bin each delivery the instant it happens,
// per-message state lives in a dense msg-id-indexed table (message ids are
// allocated sequentially from 1 by core::Experiment), and traffic/
// quiescence counters ride the send hook. Nothing rescans the RunTrace and
// nothing requires recordWire.
//
// Hot-path discipline: onDeliver/onSend are allocation-free at steady
// state (the per-message table grows geometrically, like a vector), never
// draw from the runtime RNG, and never schedule events — observation never
// perturbs the run (pinned by the golden fingerprints).
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/summary.hpp"
#include "sim/observer.hpp"

namespace wanmc::sim {
class Runtime;
}

namespace wanmc::metrics {

class Recorder final : public sim::RunObserver {
 public:
  // Registers with `rt` for casts, deliveries, and sends. The recorder
  // must stay alive while the runtime dispatches events and while
  // summary() is called (core::Experiment owns both and destroys the
  // runtime first).
  explicit Recorder(sim::Runtime& rt);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void onCast(const CastEvent& ev) override;
  void onDeliver(const DeliveryEvent& ev) override;
  void onSend(const WireEvent& ev) override;

  // Snapshot of everything measured so far. Message-level aggregates
  // (final-latency histogram, latency-degree tally, completion counters)
  // are folded here from the per-message table — O(#messages), not
  // O(trace) — so summary() may be called mid-run and again later.
  [[nodiscard]] Summary summary(SimTime endTime) const;

 private:
  // Per-message running state, indexed by MsgId. POD, 48 bytes.
  struct MsgStat {
    SimTime castAt = -1;          // -1: not cast (or id not seen)
    SimTime lastDeliveryAt = -1;  // -1: no delivery yet
    uint64_t castLamport = 0;
    int64_t maxLamportDelta = -1;
    uint32_t deliveries = 0;
    uint32_t addressees = 0;   // processes in the destination groups
    uint32_t destGroups = 0;   // |dest|, the perDestSize bucket
    uint32_t reserved_ = 0;
  };

  [[nodiscard]] MsgStat* statOf(MsgId id) {
    const size_t idx = static_cast<size_t>(id);
    return idx < stats_.size() ? &stats_[idx] : nullptr;
  }

  sim::Runtime& rt_;
  std::vector<MsgStat> stats_;  // dense by MsgId; slot 0 unused

  // Streaming aggregates (delivery-level histograms fill in place;
  // message-level ones are derived from stats_ in summary()).
  LogHistogram deliveryLatency_;
  std::vector<LogHistogram> perGroup_;
  std::vector<LogHistogram> perDestSize_;
  TrafficStats traffic_;
  uint64_t casts_ = 0;
  uint64_t deliveries_ = 0;
  SimTime firstCastAt_ = -1;
  SimTime lastCastAt_ = -1;
  SimTime lastDeliveryAt_ = -1;
  SimTime lastAlgoSendAt_ = -1;
};

}  // namespace wanmc::metrics
