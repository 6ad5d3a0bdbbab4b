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
// architecture"): the replay and the evaluation step are
// playback::ReplayCore and playback::EvalStep (replay.hpp), shared with
// the group engine -- a flow is scored as the one-receiver group
// {source, {destination}, {deadline}} and its result is read from
// receiver 0. Every run is two passes: decide() records the scheme's
// selections as a SelectionTimeline, and score() evaluates a range of
// it with no scheme object. Replay is driven by trace::ConditionTimeline
// cursors (O(changes) per interval, zero allocation) handing out
// fingerprinted borrowed NetworkViews; routing decisions are memoized
// across jobs in an engine-owned, exact-keyed, internally synchronized
// memo. Evaluations are never memoized across jobs -- each Monte-Carlo
// interval draws from its own deterministic RNG stream -- so results are
// bit-identical with the memo and cursor on or off.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "playback/replay.hpp"
#include "routing/decision_memo.hpp"
#include "routing/scheme.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/condition_timeline.hpp"
#include "trace/trace.hpp"

namespace dg::playback {

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

  /// Chunk building block: decides [0, last) exactly as a full run would
  /// (telemetry attached from `first`), then scores [first, last) and
  /// returns the partial accumulation. `decisionSource` and `truthSource`
  /// (nullable -> replay from the in-memory trace) cursor over any
  /// ConditionSource, e.g. a store::PackedConditionSource that decodes a
  /// packed file one chunk at a time; the two passes never overlap, so
  /// one source may serve both, but a source is not thread-safe. The
  /// experiment runners do not call this: runSweep calls decide() once
  /// per job and score() per chunk, over the in-memory trace.
  ///
  /// With params().accumBlockIntervals == B > 0 and chunks aligned to B,
  /// merging the partials of a run's chunks in ascending order yields the
  /// same bits as runRange over the union -- at any thread count.
  /// `telemetry` (nullable) collects this range's counters and events.
  RunPartial runChunkPartial(routing::Flow flow, routing::SchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             std::size_t first, std::size_t last,
                             trace::ConditionSource* decisionSource,
                             trace::ConditionSource* truthSource,
                             telemetry::Telemetry* telemetry = nullptr) const;

  /// Pass 1 (ReplayCore::decide): `flow`'s decisions over [from,
  /// spec.last) under a fresh `kind` scheme, observed over spec's range.
  SelectionTimeline decide(routing::Flow flow, routing::SchemeKind kind,
                           const routing::SchemeParams& schemeParams,
                           std::size_t from, const ScoreSpec& spec) const;
  /// Pass 2 (ReplayCore::score): scores a range of a timeline decide()
  /// made for the same flow and kind.
  RunPartial score(routing::Flow flow, routing::SchemeKind kind,
                   const SelectionTimeline& timeline,
                   const ScoreSpec& spec) const;

  /// Converts a fully merged partial into the result record (receiver 0
  /// is the destination).
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
  /// The step and telemetry labels of `flow` (receivers borrow `flow`).
  EvalSpec evalSpec(const routing::Flow& flow, routing::SchemeKind kind) const;

  ReplayCore core_;

  // Cross-job decision memo. Mutable + internally synchronized: one const
  // engine is shared across experiment worker threads, and every memoized
  // selection is a pure function of its exact key, so results are
  // independent of thread count and insertion order.
  mutable routing::DecisionMemo decisionMemo_;
};

}  // namespace dg::playback
