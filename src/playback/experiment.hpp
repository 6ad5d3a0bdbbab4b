// Experiment runner: the full flows x schemes sweep over one trace, with
// gap-coverage aggregation (experiment E3 / the paper's headline table).
#pragma once

#include <string>
#include <vector>

#include "playback/memo_cache.hpp"
#include "playback/playback.hpp"
#include "playback/sweep.hpp"
#include "routing/scheme.hpp"
#include "trace/topology.hpp"

namespace dg::playback {

struct ExperimentConfig {
  std::vector<routing::Flow> flows;
  /// Per-flow active windows for open-loop fleet workloads. Empty =
  /// every flow scores the whole trace (the historical behavior).
  /// Otherwise must parallel `flows` with a non-empty clamped window per
  /// flow. Windowed jobs are decided over the pre-window history too,
  /// in both runners, so the two agree bit for bit when their
  /// accumulation block lengths match.
  std::vector<FlowWindow> flowWindows;
  std::vector<routing::SchemeKind> schemes = routing::allSchemeKinds();
  routing::SchemeParams schemeParams;
  PlaybackParams playback;
  /// The "traditional" end of the gap (abstract: single-path approach).
  routing::SchemeKind gapBaseline = routing::SchemeKind::StaticSinglePath;
  /// The optimal-but-expensive end of the gap.
  routing::SchemeKind gapOptimal =
      routing::SchemeKind::TimeConstrainedFlooding;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Packed runner only: when non-empty, the persistent decision-memo
  /// sidecar at this path is loaded (and validated against the trace's
  /// content fingerprint) before the sweep and rewritten afterwards.
  /// Ignored when PlaybackParams::decisionMemo is off.
  std::string memoCachePath;
};

struct SchemeSummary {
  routing::SchemeKind scheme{};
  /// Mean unavailability across flows (flows weighted equally).
  double unavailability = 0.0;
  /// Total expected unavailable seconds, summed across flows.
  double unavailableSeconds = 0.0;
  std::size_t problematicIntervals = 0;
  /// Mean transmissions per packet across flows.
  double averageCost = 0.0;
  /// Fraction of the baseline->optimal unavailability gap this scheme
  /// covers: (unavail(baseline) - unavail(scheme)) /
  ///         (unavail(baseline) - unavail(optimal)).
  double gapCoverage = 0.0;
  /// Cost relative to the static two-disjoint-paths scheme.
  double costVsTwoDisjoint = 0.0;
};

struct ExperimentResult {
  /// flows-major: perFlow[f * schemes.size() + s].
  std::vector<FlowSchemeResult> perFlow;
  std::vector<SchemeSummary> summary;  ///< in config.schemes order

  /// Packed runner, when ExperimentConfig::memoCachePath was set: what
  /// happened to the sidecar on load (kMissing also when no path given).
  MemoCacheLoadResult memoCacheLoad = MemoCacheLoadResult::kMissing;
  /// Decision-memo traffic of this run (hit rates; packed runner only).
  routing::DecisionMemo::Stats memoStats;
  /// Per-stage wall-clock totals summed over all workers (populated when
  /// PlaybackParams::collectStageTimings is set; see StageTimings).
  StageBreakdown stages;

  const FlowSchemeResult& at(std::size_t flowIndex,
                             std::size_t schemeIndex,
                             std::size_t schemeCount) const {
    return perFlow[flowIndex * schemeCount + schemeIndex];
  }
};

/// Runs every (flow, scheme) pair of the config over the trace;
/// deterministic regardless of thread count. When `telemetry` is given,
/// each worker job records into its own private Telemetry and the
/// per-job objects are folded into `telemetry` sequentially in job-index
/// order after the join -- so the merged metrics and trace log (and
/// therefore every export format) are byte-identical for any `threads`
/// setting.
ExperimentResult runExperiment(const graph::Graph& overlay,
                               const trace::Trace& trace,
                               const ExperimentConfig& config,
                               telemetry::Telemetry* telemetry = nullptr);

/// Chunk-parallel variant of runExperiment over a packed dgtrace file:
/// the scoring unit is (flow, scheme, chunk) rather than (flow, scheme),
/// so a sweep saturates cores even with a single flow/scheme. The file
/// is opened and decoded once, and the sweep is runExperiment's over
/// that trace with the container's chunks: each (flow, scheme) job is
/// decided once, and its chunks are scored from that job's selection
/// timeline (see sweep.hpp). PlaybackParams::accumBlockIntervals is
/// forced to the container's chunk length, so the per-job fold of chunk
/// partials (done in ascending chunk order) reproduces the
/// single-threaded blocked run bit for bit at any thread count. Telemetry follows the runExperiment discipline:
/// per-task private instruments, merged sequentially in job order --
/// metric and trace exports are byte-identical for any `threads`, and
/// equal to the in-memory runner's.
///
/// When config.memoCachePath is non-empty, the decision-memo sidecar is
/// loaded (validated against the trace's content fingerprint; a bad file
/// just means a cold start) before the sweep and rewritten afterwards.
ExperimentResult runPackedExperiment(const graph::Graph& overlay,
                                     const std::string& packedPath,
                                     const ExperimentConfig& config,
                                     telemetry::Telemetry* telemetry = nullptr);

/// The default 16 transcontinental evaluation flows on the ltn12
/// topology: four east-coast sites paired with four western sites, both
/// directions.
std::vector<routing::Flow> transcontinentalFlows(
    const trace::Topology& topology);

}  // namespace dg::playback
