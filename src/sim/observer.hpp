// Typed run-observer registry: the simulator's measurement plane.
//
// A RunObserver subscribes to the runtime's instrumentation points — cast,
// delivery, and wire-send events — and sees each event exactly once, at the
// instant the runtime records it. Observers are PASSIVE: they must not draw
// from the runtime RNG and anything they schedule goes through the
// deterministic scheduler, so observation never perturbs a run (the golden
// fingerprints pin this).
//
// This generalizes (and since PR 10 fully replaces) the PR 3
// addDeliveryObserver hook: the metrics recorder (src/metrics/) and the
// experiment's closed-loop workload feedback feed off this plane instead of
// rescanning the RunTrace after the fact.
#pragma once

#include <cstdint>

#include "common/trace.hpp"

namespace wanmc::sim {

// Which instrumentation points an observer wants. Passed at registration so
// the runtime only walks the lists that are non-empty — an unobserved run
// pays one empty-vector check per event kind, nothing per observer.
enum ObserverInterest : uint32_t {
  kObserveCasts = 1u << 0,       // every recordCast (A-XCast)
  kObserveDeliveries = 1u << 1,  // every recordDelivery (A-Deliver)
  kObserveSends = 1u << 2,       // every wire copy handed to the network
};

class RunObserver {
 public:
  virtual ~RunObserver() = default;

  // An A-XCast was recorded. `ev` is the trace entry (already stamped).
  virtual void onCast(const CastEvent& ev) { (void)ev; }
  // An A-Deliver was recorded.
  virtual void onDeliver(const DeliveryEvent& ev) { (void)ev; }
  // One wire copy was handed to the network (counted even if a drop filter
  // later discards it — this mirrors the TrafficStats accounting).
  virtual void onSend(const WireEvent& ev) { (void)ev; }
};

}  // namespace wanmc::sim
