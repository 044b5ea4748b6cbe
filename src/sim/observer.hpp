// Typed run-observer registry: the simulator's live event hooks.
//
// A RunObserver subscribes to the runtime's delivery and wire-send
// instrumentation points and sees each event exactly once, at the instant
// the runtime records it. Observers are PASSIVE: they must not draw from
// the runtime RNG and anything they schedule goes through the
// deterministic scheduler, so observation never perturbs a run (the golden
// fingerprints pin this).
//
// The experiment's capped closed-loop workload feeds off the delivery
// hook; the send hook serves bench-side per-layer wire counters. A run's
// metrics::Summary does not come from this plane: metrics::summarizeTrace
// builds it from the trace at harvest.
#pragma once

#include <cstdint>

#include "common/trace.hpp"

namespace wanmc::sim {

// Which instrumentation points an observer wants. Passed at registration so
// the runtime only walks the lists that are non-empty — an unobserved run
// pays one empty-vector check per event kind, nothing per observer.
enum ObserverInterest : uint32_t {
  kObserveDeliveries = 1u << 0,  // every recordDelivery (A-Deliver)
  kObserveSends = 1u << 1,       // every wire copy handed to the network
};

class RunObserver {
 public:
  virtual ~RunObserver() = default;

  // An A-Deliver was recorded. `ev` is the trace entry (already stamped).
  virtual void onDeliver(const DeliveryEvent& ev) { (void)ev; }
  // One wire copy was handed to the network (counted even if a drop filter
  // later discards it — this mirrors the TrafficStats accounting).
  virtual void onSend(const WireEvent& ev) { (void)ev; }
};

}  // namespace wanmc::sim
