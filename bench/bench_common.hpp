// Shared plumbing for the experiment binaries: every bench accepts
// --key=value overrides (see keys below) so the whole evaluation is
// scriptable; defaults reproduce the configuration recorded in
// EXPERIMENTS.md.
#pragma once

#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "playback/experiment.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"
#include "util/config.hpp"
#include "util/sim_time.hpp"

namespace dg::bench {

inline util::Config parseArgs(int argc, char** argv) {
  util::Config config;
  config.applyArgs(argc, argv);
  return config;
}

/// Generator parameters from config keys: seed, days, node_events_per_day,
/// link_events_per_day, steady_prob, blackout_prob, severity_min/max,
/// flutter_min/max, coverage_min/max, placement_exponent,
/// latency_event_prob, event_median_s.
inline trace::GeneratorParams makeGeneratorParams(
    const util::Config& config) {
  trace::GeneratorParams params;
  params.seed =
      static_cast<std::uint64_t>(config.getInt("seed", 20170605));
  params.duration = util::hours(
      static_cast<std::int64_t>(config.getDouble("days", 28.0) * 24.0));
  params.nodeEventsPerDay =
      config.getDouble("node_events_per_day", params.nodeEventsPerDay);
  params.linkEventsPerDay =
      config.getDouble("link_events_per_day", params.linkEventsPerDay);
  params.nodeSteadyProb =
      config.getDouble("steady_prob", params.nodeSteadyProb);
  params.nodeBlackoutProb =
      config.getDouble("blackout_prob", params.nodeBlackoutProb);
  params.lossSeverityMin =
      config.getDouble("severity_min", params.lossSeverityMin);
  params.lossSeverityMax =
      config.getDouble("severity_max", params.lossSeverityMax);
  params.nodeFlutterActivityMin =
      config.getDouble("flutter_min", params.nodeFlutterActivityMin);
  params.nodeFlutterActivityMax =
      config.getDouble("flutter_max", params.nodeFlutterActivityMax);
  params.nodePartialOutageProb =
      config.getDouble("partial_outage_prob", params.nodePartialOutageProb);
  params.outageAliveLinksMin = static_cast<int>(
      config.getInt("outage_alive_min", params.outageAliveLinksMin));
  params.outageAliveLinksMax = static_cast<int>(
      config.getInt("outage_alive_max", params.outageAliveLinksMax));
  params.nodePlacementDegreeExponent = config.getDouble(
      "placement_exponent", params.nodePlacementDegreeExponent);
  params.latencyEventProb =
      config.getDouble("latency_event_prob", params.latencyEventProb);
  params.nodeEventMedianSeconds =
      config.getDouble("event_median_s", params.nodeEventMedianSeconds);
  return params;
}

/// Experiment configuration from config keys: mc_samples, staleness,
/// deadline_ms, threads, recovery.
inline playback::ExperimentConfig makeExperimentConfig(
    const util::Config& config, const trace::Topology& topology) {
  playback::ExperimentConfig experiment;
  experiment.flows = playback::transcontinentalFlows(topology);
  experiment.playback.mcSamples =
      static_cast<int>(config.getInt("mc_samples", 1000));
  experiment.playback.viewStaleness =
      static_cast<int>(config.getInt("staleness", 1));
  experiment.playback.delivery.recoveryEnabled =
      config.getBool("recovery", true);
  experiment.schemeParams.deadline = util::milliseconds(
      config.getInt("deadline_ms", 65));
  experiment.playback.delivery.deadline =
      experiment.schemeParams.deadline;
  experiment.threads =
      static_cast<unsigned>(config.getInt("threads", 0));
  return experiment;
}

inline void printRunHeader(const std::string& title,
                           const trace::SyntheticTrace& synthetic,
                           const playback::ExperimentConfig& config) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "trace: "
            << util::toSeconds(synthetic.trace.duration()) / 86'400.0
            << " days, " << synthetic.trace.intervalCount()
            << " intervals, " << synthetic.events.size() << " events; "
            << config.flows.size() << " flows, "
            << config.schemes.size() << " schemes\n\n";
}

#ifndef DG_BENCH_BUILD_TYPE
#define DG_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef DG_SOURCE_DIR
#define DG_SOURCE_DIR "."
#endif

/// `s` as a JSON string literal (control characters become spaces).
inline std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

/// First line of a shell command's output, "unknown" when it fails.
inline std::string commandLine(const std::string& command) {
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  std::array<char, 256> buffer{};
  std::string line;
  if (std::fgets(buffer.data(), static_cast<int>(buffer.size()), pipe))
    line = buffer.data();
  const int status = ::pclose(pipe);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return status == 0 && !line.empty() ? line : "unknown";
}

inline std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

/// Writes the `"machine"` member of a bench JSON: CPU model, AVX2 and
/// AVX-512F support, hardware threads, compiler, build type and the git
/// revision of the source tree (suffixed -dirty when it has uncommitted
/// changes, "unknown" outside a git checkout). A number is only comparable
/// with one recorded on the same machine fingerprint.
inline void appendMachineJson(std::ostream& json) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  const bool avx512f = __builtin_cpu_supports("avx512f") != 0;
#else
  const bool avx2 = false;
  const bool avx512f = false;
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  const std::string gitSha =
      commandLine("git -C '" DG_SOURCE_DIR
                  "' describe --always --dirty --abbrev=40 2>/dev/null");
  json << "  \"machine\": {\n"
       << "    \"cpu_model\": " << jsonString(cpuModel()) << ",\n"
       << "    \"avx2\": " << (avx2 ? "true" : "false") << ",\n"
       << "    \"avx512f\": " << (avx512f ? "true" : "false") << ",\n"
       << "    \"cores\": " << std::thread::hardware_concurrency() << ",\n"
       << "    \"compiler\": " << jsonString(compiler) << ",\n"
       << "    \"build_type\": " << jsonString(DG_BENCH_BUILD_TYPE) << ",\n"
       << "    \"git_sha\": " << jsonString(gitSha) << "\n"
       << "  }";
}

}  // namespace dg::bench
