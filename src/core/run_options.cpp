#include "core/run_options.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace wanmc::core {

std::optional<ProtocolKind> protocolFromName(const std::string& name) {
  for (const ProtocolInfo& p : kProtocols)
    if (name == p.key) return p.kind;
  return std::nullopt;
}

std::optional<exec::Backend> backendFromName(const std::string& name) {
  if (name == "sim") return exec::Backend::kSim;
  if (name == "threaded") return exec::Backend::kThreaded;
  return std::nullopt;
}

namespace {

// "lo:hi" with both bounds whole numbers.
bool readRange(const std::string& s, SimTime& lo, SimTime& hi) {
  const auto colon = s.find(':');
  if (colon == std::string::npos) return false;
  const auto l = readNumber<SimTime>(s.substr(0, colon));
  const auto h = readNumber<SimTime>(s.substr(colon + 1));
  if (!l || !h) return false;
  lo = *l;
  hi = *h;
  return true;
}

}  // namespace

bool RunOptions::consumeFlag(const std::string& arg,
                             const std::function<std::string()>& next) {
  if (arg == "--backend") {
    const std::string v = next();
    const auto b = backendFromName(v);
    if (!b) {
      std::fprintf(stderr, "--backend: unknown backend '%s' (sim|threaded)\n",
                   v.c_str());
      std::exit(2);
    }
    backend = *b;
  } else if (arg == "--protocol") {
    const std::string v = next();
    const auto p = protocolFromName(v);
    if (!p) {
      std::fprintf(stderr, "--protocol: unknown protocol '%s'\n", v.c_str());
      std::exit(2);
    }
    protocol = *p;
  } else if (arg == "--groups") {
    groups = numberOrDie<int>(next(), "--groups");
  } else if (arg == "--procs") {
    procsPerGroup = numberOrDie<int>(next(), "--procs");
  } else if (arg == "--seed") {
    seed = numberOrDie<uint64_t>(next(), "--seed");
  } else if (arg == "--dest-groups") {
    destGroups = numberOrDie<int>(next(), "--dest-groups");
  } else if (arg == "--inter-ms") {
    const SimTime v = numberOrDie<SimTime>(next(), "--inter-ms") * kMs;
    latency.interMin = latency.interMax = v;
  } else if (arg == "--intra-us") {
    const SimTime v = numberOrDie<SimTime>(next(), "--intra-us");
    latency.intraMin = latency.intraMax = v;
  } else if (arg == "--batch-window") {
    batchWindow = numberOrDie<SimTime>(next(), "--batch-window") * kMs;
  } else if (arg == "--batch-max") {
    batchMaxSize = numberOrDie<int>(next(), "--batch-max");
  } else if (arg == "--loss") {
    lossRate = numberOrDie<double>(next(), "--loss");
  } else if (arg == "--reliable-channels") {
    reliableChannels = true;
  } else {
    return false;
  }
  return true;
}

void RunOptions::validate() const {
  std::ostringstream os;
  if (groups <= 0 || procsPerGroup <= 0) {
    os << "RunOptions: topology " << groups << "x" << procsPerGroup
       << " needs positive group and process counts";
    throw std::invalid_argument(os.str());
  }
  if (destGroups <= 0 || destGroups > groups) {
    os << "RunOptions: dest-groups " << destGroups << " outside [1, "
       << groups << "]";
    throw std::invalid_argument(os.str());
  }
  if (!(lossRate >= 0.0 && lossRate < 1.0)) {
    os << "RunOptions: loss rate " << lossRate
       << " outside [0, 1) - a lossless link needs 0, a dead one a cut";
    throw std::invalid_argument(os.str());
  }
  if (batchWindow < 0 || batchMaxSize < 0) {
    os << "RunOptions: batch window " << batchWindow << "us / max size "
       << batchMaxSize << " must be non-negative";
    throw std::invalid_argument(os.str());
  }
  latency.validate();
}

std::string RunOptions::serialize() const {
  std::ostringstream os;
  os << "backend=" << exec::backendName(backend)
     << " protocol=" << protocolInfo(protocol).key << " groups=" << groups
     << " procs=" << procsPerGroup << " seed=" << seed
     << " intra=" << latency.intraMin << ":" << latency.intraMax
     << " inter=" << latency.interMin << ":" << latency.interMax
     << " batch-window=" << batchWindow << " batch-max=" << batchMaxSize
     << " loss=" << lossRate
     << " channels=" << (reliableChannels ? 1 : 0)
     << " dest-groups=" << destGroups;
  return os.str();
}

std::optional<RunOptions> RunOptions::parse(const std::string& text) {
  RunOptions out;
  std::istringstream is(text);
  std::string tok;
  // Reads `v` into `field`; false (reject the line) when it is malformed.
  auto read = [](const std::string& v, auto& field) {
    const auto n = readNumber<std::remove_reference_t<decltype(field)>>(v);
    if (n) field = *n;
    return n.has_value();
  };
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string k = tok.substr(0, eq);
    const std::string v = tok.substr(eq + 1);
    bool ok = false;
    if (k == "backend") {
      const auto b = backendFromName(v);
      if (b) out.backend = *b;
      ok = b.has_value();
    } else if (k == "protocol") {
      const auto p = protocolFromName(v);
      if (p) out.protocol = *p;
      ok = p.has_value();
    } else if (k == "groups") {
      ok = read(v, out.groups);
    } else if (k == "procs") {
      ok = read(v, out.procsPerGroup);
    } else if (k == "seed") {
      ok = read(v, out.seed);
    } else if (k == "intra") {
      ok = readRange(v, out.latency.intraMin, out.latency.intraMax);
    } else if (k == "inter") {
      ok = readRange(v, out.latency.interMin, out.latency.interMax);
    } else if (k == "batch-window") {
      ok = read(v, out.batchWindow);
    } else if (k == "batch-max") {
      ok = read(v, out.batchMaxSize);
    } else if (k == "loss") {
      ok = read(v, out.lossRate);
    } else if (k == "channels") {
      ok = v == "0" || v == "1";
      out.reliableChannels = v == "1";
    } else if (k == "dest-groups") {
      ok = read(v, out.destGroups);
    }
    if (!ok) return std::nullopt;
  }
  return out;
}

RunConfig RunOptions::toRunConfig() const {
  validate();
  RunConfig cfg;
  cfg.backend = backend;
  cfg.protocol = protocol;
  cfg.groups = groups;
  cfg.procsPerGroup = procsPerGroup;
  cfg.seed = seed;
  cfg.latency = latency;
  cfg.stack.batchWindow = batchWindow;
  cfg.stack.batchMaxSize = batchMaxSize;
  cfg.stack.reliableChannels = reliableChannels;
  cfg.lossRate = lossRate;
  return cfg;
}

const char* RunOptions::flagHelp() {
  return "[--backend sim|threaded] [--protocol P] [--groups N] [--procs D] "
         "[--seed S] [--dest-groups G] [--inter-ms L] [--intra-us U] "
         "[--batch-window MS] [--batch-max N] [--loss P] "
         "[--reliable-channels]";
}

}  // namespace wanmc::core
