// Layer probes: each drives one library module's public functions
// directly, on the inputs of the workload being traced, and times every
// call from the benchmark's side. Probes never change src/; they see
// exactly what a caller of the module sees.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "live/fleet.hpp"
#include "mcast/group.hpp"
#include "perfbench.hpp"
#include "playback/playback.hpp"
#include "routing/decision_memo.hpp"
#include "routing/scheme.hpp"
#include "trace/topology.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/// The inputs of one workload, as the probes need them.
struct ProbeInputs {
  const dg::graph::Graph* overlay = nullptr;
  const dg::trace::Trace* trace = nullptr;
  /// The same trace packed into a dgtrace container.
  std::string packedPath;
  /// True when the workload's runner reads conditions from the packed
  /// container (the cursor probes then seek a source-backed timeline).
  bool packedRunner = false;
  std::vector<dg::routing::Flow> flows;
  std::vector<dg::mcast::Group> groups;
  dg::routing::SchemeParams schemeParams;
  dg::playback::PlaybackParams playback;
  std::size_t chunkIntervals = 0;
  /// Intervals of the trace the per-call probes replay (from 0).
  std::size_t probeIntervals = 0;
  std::uint64_t seed = 1;
  /// Receives the probes' work counters (traced runs).
  Recorder* recorder = nullptr;
};

/// store: reader construction + contentFingerprint, and chunk decode.
void probeStore(const ProbeInputs& in, RunReport& report);

/// trace: sequential cursor seeks and jumps to chunk starts.
void probeCursor(const ProbeInputs& in, RunReport& report);

/// routing select and playback delivery evaluators, by a shadow replay
/// of the playback engine's per-interval calls (select on the stale view,
/// evaluate under the current conditions) over the probe intervals.
void probeUnicastReplay(const ProbeInputs& in, RunReport& report);

/// Decision-memo hits over lookups (0 when nothing was looked up).
double hitRatio(const dg::routing::DecisionMemo::Stats& memo);

/// routing: mean nanoseconds per lookup of every decision stored in
/// `memo` (looked up in a copy, so the source's hit counters stay as the
/// run left them).
double memoLookupNs(const dg::routing::DecisionMemo& memo);

/// playback: chunk warm-up share (runChunkPartial vs runRange over the
/// same range) on the last chunk of every job; optionally the partial
/// merge cost, and the hit ratio and lookup cost of the probe engine's
/// decision memo.
void probeChunkWarmup(const ProbeInputs& in, RunReport& report,
                      bool includeMerge, bool includeMemo);

/// playback: Monte-Carlo share of engine stage time over the probe
/// intervals (for workloads whose own runner keeps no stage timings).
void probeStageShare(const ProbeInputs& in, RunReport& report);

/// mcast: group evaluators by shadow replay, plus (when `jobTimes`) the
/// median group job over the probe intervals.
void probeGroupReplay(const ProbeInputs& in, RunReport& report,
                      bool jobTimes);

/// live: wire encode/decode, LiveNode forwarding through a counting
/// sender, and event-loop timer lateness.
void probeLiveCalls(std::uint64_t seed, RunReport& report, Recorder* recorder);

/// The playback prediction a fleet run performs internally
/// (compileToTrace + one engine run per flow), re-run and timed from the
/// benchmark.
struct FleetPrediction {
  double seconds = 0.0;
  std::vector<double> jobSeconds;
  std::uint64_t allocations = 0;
  std::size_t intervals = 0;
  double mcSeconds = 0.0;
};
FleetPrediction replayFleetPrediction(const dg::live::FleetParams& params,
                                      Recorder* recorder, int parent);

/// live: loop wake-ups and timers per datagram from the fleet's node
/// counters, and the prediction's share of the fleet call.
void reportFleetLayers(const dg::live::FleetResult& result,
                       double fleetSeconds, const FleetPrediction& prediction,
                       RunReport& report, Recorder* recorder);

/// Seed of the soak's chaos schedule. The schedule is part of the
/// workload's definition, like the topology: which faults land decides
/// how many datagrams are dropped versus sent, and so moves both the
/// on-time ratio and the CPU per datagram by tens of percent between
/// schedules. The run seed drives the impairment loss draws and the
/// prediction's Monte-Carlo stream instead.
inline constexpr std::uint64_t kSoakScheduleSeed = 7;

/// The live-soak fleet: mesh5, four open-loop flows at one packet per
/// 400 us each, under the fixed chaos schedule of `faults` link and site
/// impairments on a 1-s grid over `soakSeconds`.
dg::live::FleetParams soakFleetParams(std::uint64_t seed, int soakSeconds,
                                      int faults, int mcSamples);

/// Datagrams a fleet handled: socket sends plus impairment drops.
std::uint64_t fleetDatagrams(const dg::live::FleetResult& result);

/// live: a short in-process fleet soak on mesh5 for the loop counters and
/// the prediction share (workloads that run no fleet themselves).
void probeMiniFleet(std::uint64_t seed, bool small, RunReport& report,
                    Recorder* recorder);

}  // namespace perfbench
