#include "mcast/playback.hpp"

#include <utility>
#include <vector>

namespace dg::mcast {

namespace {

constexpr playback::ReplayMetricNames kGroupMetrics{
    "group",
    "dg_mcast_intervals_total",
    "dg_mcast_mc_intervals_total",
    "dg_mcast_mc_samples_total",
    "dg_mcast_graph_switches_total",
    "dg_mcast_miss_all_probability"};

}  // namespace

GroupPlaybackEngine::GroupPlaybackEngine(const graph::Graph& overlay,
                                         const trace::Trace& trace,
                                         GroupPlaybackParams params)
    : params_(params),
      core_(overlay, trace, params_.base, "GroupPlaybackEngine") {}

GroupSchemeResult GroupPlaybackEngine::run(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams,
    telemetry::Telemetry* telemetry) const {
  return runRange(group, kind, schemeParams, 0, trace().intervalCount(),
                  telemetry);
}

GroupSchemeResult GroupPlaybackEngine::runRange(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, telemetry::Telemetry* telemetry) const {
  const playback::ScoreSpec spec{.caller = "GroupPlaybackEngine::runRange",
                                 .first = first,
                                 .last = last,
                                 .telemetry = telemetry};
  const playback::SelectionTimeline timeline =
      decide(group, kind, schemeParams, first, spec);
  return finalizePartial(group, kind, score(group, kind, timeline, spec));
}

// dgcheck: hot
GroupRunPartial GroupPlaybackEngine::runChunkPartial(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  // dgcheck: setup begin
  const char* caller = "GroupPlaybackEngine::runChunkPartial";
  const playback::SelectionTimeline timeline =
      decide(group, kind, schemeParams, 0,
             {caller, first, last, decisionSource, telemetry});
  // dgcheck: setup end
  return score(group, kind, timeline,
               {caller, first, last, truthSource, telemetry});
}

// dgcheck: cold: one decision pass per job, before any interval is scored
playback::SelectionTimeline GroupPlaybackEngine::decide(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t from,
    const playback::ScoreSpec& spec) const {
  auto scheme = makeGroupScheme(kind, core_.overlay(), group, schemeParams);
  if (params_.base.decisionMemo) scheme->attachDecisionMemo(&decisionMemo_);
  return core_.decide(*scheme, from, spec, evalSpec(group, kind));
}

// dgcheck: hot
GroupRunPartial GroupPlaybackEngine::score(
    const Group& group, GroupSchemeKind kind,
    const playback::SelectionTimeline& timeline,
    const playback::ScoreSpec& spec) const {
  // dgcheck: setup begin
  playback::EvalStep step(params_.base, evalSpec(group, kind));
  // dgcheck: setup end
  return core_.score(timeline, step, spec);
}

playback::EvalSpec GroupPlaybackEngine::evalSpec(const Group& group,
                                                 GroupSchemeKind kind) const {
  std::vector<util::SimTime> deadlines(group.receivers.size());
  for (std::size_t r = 0; r < deadlines.size(); ++r)
    deadlines[r] = receiverDeadline(group, r, params_.base.delivery.deadline);
  return {.source = group.source,
          .receivers = group.receivers,
          .deadlines = std::move(deadlines),
          .deliveredK = params_.deliveredK,
          .seedKind = unicastEquivalent(kind),
          .label = groupLabel(group),
          .schemeName = groupSchemeName(kind),
          .metrics = kGroupMetrics};
}

GroupSchemeResult GroupPlaybackEngine::finalizePartial(
    const Group& group, GroupSchemeKind kind, GroupRunPartial&& total) const {
  total.resize(group.receivers.size());
  GroupSchemeResult result;
  result.group = group;
  result.scheme = kind;
  result.unavailabilityAll = total.missAllMean.mean();
  result.unavailabilityK = total.missKMean.mean();
  result.unavailableAllSeconds = total.unavailableAllSeconds;
  result.problematicIntervals = total.problematicIntervals;
  result.averageCost = total.costStats.mean();
  result.receivers.resize(group.receivers.size());
  for (std::size_t r = 0; r < group.receivers.size(); ++r) {
    GroupReceiverResult& out = result.receivers[r];
    out.receiver = group.receivers[r];
    out.deadline = receiverDeadline(group, r, params_.base.delivery.deadline);
    out.unavailability = total.receiverMiss[r].mean();
    out.unavailableSeconds = total.receiverUnavailableSeconds[r];
    out.problematicIntervals = total.receiverProblematic[r];
    out.averageLatencyUs = total.receiverLatency[r].mean();
  }
  result.problems = std::move(total.problems);
  return result;
}

}  // namespace dg::mcast
