// core::RunOptions — the shared experiment knob set, parsed and validated
// in exactly ONE place.
//
// Before PR 10 the same ~10 knobs (protocol, topology shape, seed, link
// latencies, batching, loss, channels) were plumbed three times: once per
// hand-rolled flag loop in wanmc_cli (single-run and sweep), and once more
// by every harness that built a RunConfig by hand. Each copy had its own
// validation (or none), and adding a knob meant touching all of them. The
// backend axis would have made it four.
//
// RunOptions is the one struct all of those now share:
//   * consumeFlag() is the single CLI parse path — both wanmc_cli loops
//     feed every flag through it first and only handle their own extras.
//   * validate() is the single shape check — ranges, positivity, the
//     lossRate domain — throwing std::invalid_argument with the same
//     message no matter which entry point the knob came through.
//     (Backend-capability rejections live in Experiment::validateBackend,
//     which sees the full RunConfig.)
//   * serialize()/parse() round-trip the options as one "k=v ..." line, so
//     a bench or CSV header can record the exact configuration and a test
//     can rebuild it.
//   * toRunConfig() produces the core::RunConfig everything downstream
//     (Experiment, ScenarioRunner, the sweep API) consumes.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>

#include "core/experiment.hpp"

namespace wanmc::core {

// The one number reader of every flag parser and of parse(): the WHOLE
// token must be a number of type T in range ("3x", "0.1abc", "5ms" and ""
// are not).
template <typename T>
[[nodiscard]] std::optional<T> readNumber(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

// readNumber for a command-line flag's value: a malformed value exits(2)
// with "<flag>: '<value>' is not a number".
template <typename T>
T numberOrDie(const std::string& s, const char* flag) {
  const auto v = readNumber<T>(s);
  if (!v) {
    std::fprintf(stderr, "%s: '%s' is not a number\n", flag, s.c_str());
    std::exit(2);
  }
  return *v;
}

// nullopt on an unknown name. The inverses are protocolInfo(k).key
// (experiment.hpp) and exec::backendName.
[[nodiscard]] std::optional<ProtocolKind> protocolFromName(
    const std::string& name);
[[nodiscard]] std::optional<exec::Backend> backendFromName(
    const std::string& name);

struct RunOptions {
  exec::Backend backend = exec::Backend::kSim;
  ProtocolKind protocol = ProtocolKind::kA1;
  int groups = 2;
  int procsPerGroup = 2;
  uint64_t seed = 1;
  // Link latency bounds (the CLI's --inter-ms/--intra-us set fixed values;
  // the full jittered model stays reachable through the struct).
  exec::LatencyModel latency = exec::LatencyModel::fixed(kMs, 100 * kMs);
  SimTime batchWindow = 0;      // 0: batching off
  int batchMaxSize = 0;         // 0: no size trigger
  double lossRate = 0;          // iid wire-copy drop probability, [0, 1)
  bool reliableChannels = false;
  int destGroups = 2;           // groups per multicast (workload/sweep knob)

  // The one CLI parse path. If `arg` is a shared knob flag, consumes its
  // value via `next` (which must return the following argv token, exiting
  // on a missing value) and returns true; unknown flags return false so
  // the caller can handle its own extras. Malformed values exit(2) with a
  // message, like the rest of the CLI.
  bool consumeFlag(const std::string& arg,
                   const std::function<std::string()>& next);

  // The one shape check: throws std::invalid_argument naming the knob.
  void validate() const;

  // One-line "k=v" serialization (stable key order), and its inverse.
  // parse() accepts exactly the keys serialize() emits, in any order, and
  // returns nullopt on an unknown key, a token without '=', or a malformed
  // value: a number must be the whole value ("groups=3x" and
  // "batch-window=5ms" are rejected) and channels is 0 or 1.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static std::optional<RunOptions> parse(
      const std::string& text);

  // Validates, then builds the RunConfig downstream consumers take.
  [[nodiscard]] RunConfig toRunConfig() const;

  // The usage text for the shared flags (one source for both --help's).
  [[nodiscard]] static const char* flagHelp();
};

}  // namespace wanmc::core
