// Group playback: replays a condition trace for one receiver set under
// one group scheme. The replay and the evaluation step -- decision
// staleness, warm-up, steady fast path, blocked accumulation, per-receiver
// miss/latency plus group-level delivered-to-all and delivered-to-k
// accounting -- are playback::ReplayCore and playback::EvalStep, the same
// core and step the unicast engine runs (a unicast flow is the
// one-receiver group); this engine builds the step from the group and
// the group scheme and reads the result record out of the partial.
//
// A single-receiver group is bit-identical to the unicast engine run of
// the scheme's unicastEquivalent() for every scheme pair (pinned by
// test): both engines run the same step, and the Monte-Carlo stream is
// seeded with the unicast-equivalent scheme kind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "mcast/group.hpp"
#include "mcast/scheme.hpp"
#include "playback/playback.hpp"
#include "routing/decision_memo.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/condition_timeline.hpp"
#include "trace/trace.hpp"

namespace dg::mcast {

struct GroupPlaybackParams {
  playback::PlaybackParams base;
  /// Delivered-to-k accounting: an interval's group miss (the "K" line)
  /// is the probability that fewer than k receivers get the packet on
  /// time. 0 (default) means k = receiver count, i.e. delivered-to-all.
  std::size_t deliveredK = 0;
};

/// Per-receiver slice of a group run (FlowStats-style).
struct GroupReceiverResult {
  graph::NodeId receiver = graph::kInvalidNode;
  util::SimTime deadline = 0;
  double unavailability = 0.0;
  double unavailableSeconds = 0.0;
  std::size_t problematicIntervals = 0;
  double averageLatencyUs = 0.0;
};

struct GroupSchemeResult {
  Group group;
  GroupSchemeKind scheme{};

  /// Packet-weighted mean P(some receiver misses) -- delivered-to-all.
  double unavailabilityAll = 0.0;
  /// Packet-weighted mean P(fewer than k receivers on time).
  double unavailabilityK = 0.0;
  /// Expected seconds in which not every receiver is served.
  double unavailableAllSeconds = 0.0;
  /// Intervals whose delivered-to-all miss exceeds the threshold.
  std::size_t problematicIntervals = 0;
  /// Mean transmissions per packet on the group graph.
  double averageCost = 0.0;

  std::vector<GroupReceiverResult> receivers;
  std::vector<playback::ProblematicInterval> problems;
};

/// Partial accumulation of one contiguous interval range of a (group,
/// scheme) run: the one playback::RunPartial both engines fold.
using GroupRunPartial = playback::RunPartial;

class GroupPlaybackEngine {
 public:
  GroupPlaybackEngine(const graph::Graph& overlay, const trace::Trace& trace,
                      GroupPlaybackParams params);

  /// Replays the whole trace for one group under one scheme. `telemetry`
  /// (nullable) collects per-interval counters and histograms labeled
  /// {group="src->r1+r2", scheme=...} plus GraphSwitch trace events.
  GroupSchemeResult run(const Group& group, GroupSchemeKind kind,
                        const routing::SchemeParams& schemeParams,
                        telemetry::Telemetry* telemetry = nullptr) const;

  /// Replays an interval range [first, last).
  GroupSchemeResult runRange(const Group& group, GroupSchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             std::size_t first, std::size_t last,
                             telemetry::Telemetry* telemetry = nullptr) const;

  /// Chunk-parallel building block, with the same contract as
  /// PlaybackEngine::runChunkPartial (warm-up replay over [0, first) with
  /// steady-span jumps, worker-private condition sources, GraphSwitch
  /// continuity).
  GroupRunPartial runChunkPartial(
      const Group& group, GroupSchemeKind kind,
      const routing::SchemeParams& schemeParams, std::size_t first,
      std::size_t last, trace::ConditionSource* decisionSource,
      trace::ConditionSource* truthSource,
      telemetry::Telemetry* telemetry = nullptr) const;

  /// Converts a fully merged partial into the result record.
  GroupSchemeResult finalizePartial(const Group& group, GroupSchemeKind kind,
                                    GroupRunPartial&& total) const;

  const trace::Trace& trace() const { return core_.trace(); }
  const GroupPlaybackParams& params() const { return params_; }
  const trace::ConditionIndex& conditionIndex() const {
    return core_.conditionIndex();
  }
  const routing::DecisionMemo& decisionMemo() const { return decisionMemo_; }

  /// Per-stage wall-clock tallies (populated only when the base
  /// PlaybackParams::collectStageTimings is set).
  const playback::StageTimings& stageTimings() const {
    return core_.stageTimings();
  }
  /// Lets the sweep account its partial fold as merge work; ignored
  /// unless timings are collected.
  void addStageMergeNs(std::uint64_t ns) const { core_.addMergeNs(ns); }

 private:
  GroupRunPartial replay(const Group& group, GroupSchemeKind kind,
                         const routing::SchemeParams& schemeParams,
                         const playback::ScoreSpec& spec) const;

  GroupPlaybackParams params_;
  playback::ReplayCore core_;

  /// Cross-job decision memo shared by the per-receiver sub-schemes
  /// (keyed by their unicast-equivalent contexts).
  mutable routing::DecisionMemo decisionMemo_;
};

}  // namespace dg::mcast
