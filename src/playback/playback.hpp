// The playback engine: replays a recorded (or synthetic) condition trace
// for one flow under one routing scheme and computes, per 10-second
// interval, the probability that a packet sent in that interval arrives
// within the deadline -- plus the scheme's cost in transmissions per
// packet.
//
// This mirrors the paper's Playback Network Simulator methodology: all
// schemes replay the *identical* condition stream; adaptive schemes see
// conditions with a configurable staleness (default one interval, since
// loss statistics cannot be acted upon before they are collected).
//
// Healthy intervals (the overwhelming majority) take an exact fast path;
// intervals where any member link of the current dissemination graph is
// lossy are evaluated by Monte-Carlo over the per-hop outcome model.
//
// Hot-path architecture (see DESIGN.md, "Playback performance
// architecture"): the replay itself is playback::ReplayCore
// (replay.hpp), shared with the group engine; this engine supplies the
// per-interval unicast evaluation. Replay is driven by
// trace::ConditionTimeline cursors (O(changes) per interval, zero
// allocation) handing out fingerprinted borrowed NetworkViews; routing
// decisions and deterministic interval evaluations are memoized across
// jobs in engine-owned, exact-keyed, internally synchronized memos.
// Monte-Carlo evaluations are never memoized -- each interval draws from
// its own deterministic RNG stream -- so results are bit-identical with
// the memos and cursor on or off.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "playback/delivery_model.hpp"
#include "playback/replay.hpp"
#include "routing/decision_memo.hpp"
#include "routing/scheme.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/condition_timeline.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace dg::playback {

/// One problematic interval of a flow/scheme run (sparse record).
struct ProblematicInterval {
  std::size_t interval = 0;
  double missProbability = 0.0;
};

struct FlowSchemeResult {
  routing::Flow flow;
  routing::SchemeKind scheme{};

  /// Packet-weighted mean miss probability over the whole trace.
  double unavailability = 0.0;
  /// Sum over intervals of missProbability * interval length, in seconds:
  /// the expected total unavailable time ("unavailable seconds").
  double unavailableSeconds = 0.0;
  /// Number of intervals with miss probability > problematicThreshold.
  std::size_t problematicIntervals = 0;
  /// Mean transmissions per packet (the paper's cost metric).
  double averageCost = 0.0;
  /// Mean on-time one-way latency proxy: earliest-arrival latency of the
  /// selected graph under current conditions, averaged over intervals
  /// where delivery is possible, in microseconds.
  double averageLatencyUs = 0.0;

  /// Sparse list of the problematic intervals (for classification and
  /// case-study plots).
  std::vector<ProblematicInterval> problems;
  /// Dense per-interval delivery latency (microseconds; only intervals
  /// where delivery is possible). Populated only when
  /// PlaybackParams::collectIntervalLatencies is set.
  std::vector<double> intervalLatenciesUs;
};

/// Partial accumulation of one contiguous interval range of a (flow,
/// scheme) run. Chunk-parallel sweeps compute one RunPartial per chunk
/// and fold them in chunk order; merging partials of adjacent ranges in
/// ascending order reproduces the single-threaded blocked accumulation
/// bit for bit (see PlaybackParams::accumBlockIntervals).
struct RunPartial {
  util::WeightedMean missMean;
  util::OnlineStats costStats;
  util::OnlineStats latencyStats;
  double unavailableSeconds = 0.0;
  std::size_t problematicIntervals = 0;
  std::vector<ProblematicInterval> problems;
  std::vector<double> intervalLatenciesUs;

  /// Folds a partial covering the range immediately *after* this one.
  void merge(RunPartial&& later);
};

class PlaybackEngine {
 public:
  PlaybackEngine(const graph::Graph& overlay, const trace::Trace& trace,
                 PlaybackParams params);

  /// Replays the whole trace for one flow under one scheme. `telemetry`
  /// (nullable) collects per-interval counters and histograms labeled
  /// {flow="src->dst", scheme=...}, classification counts from the
  /// scheme, and GraphSwitch trace events; `telemetry->now` tracks the
  /// sim-time start of the interval being replayed.
  FlowSchemeResult run(routing::Flow flow, routing::SchemeKind kind,
                       const routing::SchemeParams& schemeParams,
                       telemetry::Telemetry* telemetry = nullptr) const;

  /// Replays an interval range [first, last) -- used by the case-study
  /// experiment and by tests.
  FlowSchemeResult runRange(routing::Flow flow, routing::SchemeKind kind,
                            const routing::SchemeParams& schemeParams,
                            std::size_t first, std::size_t last,
                            telemetry::Telemetry* telemetry = nullptr) const;

  /// Per-interval miss probabilities over a range (dense; for timelines).
  /// Every interval is evaluated fresh (no run-local reuse), so
  /// Monte-Carlo intervals reflect their own per-interval RNG streams.
  std::vector<double> missTimeline(routing::Flow flow,
                                   routing::SchemeKind kind,
                                   const routing::SchemeParams& schemeParams,
                                   std::size_t first, std::size_t last) const;

  /// Chunk-parallel building block: replays [first, last) and returns the
  /// partial accumulation, after rolling the scheme's decision state
  /// forward over [0, first) exactly as a full run would (telemetry
  /// detached, clean steady spans skipped in O(log deviations) via the
  /// schemes' steadyOnBaseline() fixed-point contract). `decisionSource`
  /// and `truthSource` (nullable -> replay from the in-memory trace) let
  /// each worker cursor over its own PackedConditionSource so no decode
  /// state is shared across threads.
  ///
  /// With params().accumBlockIntervals == B > 0 and chunks aligned to B,
  /// merging the partials of a run's chunks in ascending order yields the
  /// same bits as runRange over the union -- at any thread count.
  /// `telemetry` (nullable) collects this range's counters/events; chunk
  /// boundaries reset the per-run "last classification" trace-event
  /// dedup, so chunked trace *event* streams can differ from unchunked
  /// ones (counters and results do not).
  RunPartial runChunkPartial(routing::Flow flow, routing::SchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             std::size_t first, std::size_t last,
                             trace::ConditionSource* decisionSource,
                             trace::ConditionSource* truthSource,
                             telemetry::Telemetry* telemetry = nullptr) const;

  /// Converts a fully merged partial into the result record.
  FlowSchemeResult finalizePartial(routing::Flow flow,
                                   routing::SchemeKind kind,
                                   RunPartial&& total) const;

  const trace::Trace& trace() const { return core_.trace(); }
  const PlaybackParams& params() const { return core_.params(); }

  /// The per-interval content index built over the trace (exact
  /// memoization fingerprints; also useful for deviation statistics).
  const trace::ConditionIndex& conditionIndex() const {
    return core_.conditionIndex();
  }
  /// The engine's cross-job decision memo (for hit-rate reporting).
  const routing::DecisionMemo& decisionMemo() const { return decisionMemo_; }
  /// Mutable handle for the persistent sidecar cache (memo_cache.*):
  /// absorb a loaded snapshot before runs, snapshot after. Memoized
  /// decisions are pure functions of their keys, so pre-seeding cannot
  /// change results.
  routing::DecisionMemo& decisionMemoMutable() const { return decisionMemo_; }

  /// Per-stage wall-clock tallies (populated only when
  /// PlaybackParams::collectStageTimings is set).
  const StageTimings& stageTimings() const { return core_.stageTimings(); }
  /// Lets the sweep account its partial fold as merge work; ignored
  /// unless timings are collected.
  void addStageMergeNs(std::uint64_t ns) const { core_.addMergeNs(ns); }

 private:
  struct IntervalEval {
    double miss = 0.0;
    double cost = 0.0;
    util::SimTime latency = util::kNever;
    bool monteCarlo = false;  ///< the lossy path actually sampled
  };
  /// Exact key of a memoized deterministic interval evaluation:
  /// {flow source, flow destination, interned edge-list id, interval
  /// content id}. Engine-level delivery params are fixed per engine, so
  /// these four components determine the evaluation completely.
  using EvalKey = std::array<std::uint32_t, 4>;
  /// The unicast evaluation step plugged into ReplayCore::score.
  class EvalStep;

  /// One scoring pass of `flow` under a fresh scheme. `timelineOut`
  /// (nullable) receives every interval's miss probability.
  RunPartial replay(routing::Flow flow, routing::SchemeKind kind,
                    const routing::SchemeParams& schemeParams,
                    const ScoreSpec& spec,
                    std::vector<double>* timelineOut) const;

  std::optional<IntervalEval> findEval(const EvalKey& key) const;
  void storeEval(const EvalKey& key, const IntervalEval& eval) const;

  ReplayCore core_;

  // Cross-job memos. Mutable + internally synchronized: one const engine
  // is shared across experiment worker threads, and every memoized value
  // is a pure function of its exact key, so results are independent of
  // thread count and insertion order.
  mutable routing::DecisionMemo decisionMemo_;
  mutable std::mutex evalMutex_;
  mutable std::map<EvalKey, IntervalEval> evalMemo_;
};

}  // namespace dg::playback
