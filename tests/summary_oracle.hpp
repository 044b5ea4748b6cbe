// An independent check of a harvested metrics::Summary: its message-level
// figures against RunTrace's per-id helpers (allLatencyDegrees,
// wallLatency), which compute each message's latency degree and wall
// latency on their own, without metrics::summarizeTrace. Quadratic in the
// number of casts; test-only.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "core/experiment.hpp"

namespace wanmc::summary_oracle {

inline void expectMatchesTrace(const core::RunResult& r,
                               const std::string& label) {
  std::map<int64_t, uint64_t> degrees;
  uint64_t delivered = 0;
  for (int64_t d : r.trace.allLatencyDegrees()) {
    ++degrees[d];
    ++delivered;
  }
  SimTime maxWall = 0;
  for (const CastEvent& c : r.trace.casts)
    if (const auto w = r.trace.wallLatency(c.msg))
      maxWall = std::max(maxWall, *w);

  const metrics::Summary& m = r.metrics;
  EXPECT_EQ(m.latencyDegrees, degrees) << label;
  EXPECT_EQ(m.completed, delivered) << label;
  EXPECT_EQ(m.msgLatency.count(), delivered) << label;
  EXPECT_EQ(m.msgLatency.max(), maxWall) << label;
}

}  // namespace wanmc::summary_oracle
