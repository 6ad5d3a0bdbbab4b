#include "playback/playback.hpp"

#include <string>
#include <utility>

namespace dg::playback {

namespace {

constexpr ReplayMetricNames kFlowMetrics{
    "flow",
    "dg_playback_intervals_total",
    "dg_playback_mc_intervals_total",
    "dg_playback_mc_samples_total",
    "dg_routing_graph_switches_total",
    "dg_playback_miss_probability"};

}  // namespace

PlaybackEngine::PlaybackEngine(const graph::Graph& overlay,
                               const trace::Trace& trace,
                               PlaybackParams params)
    : core_(overlay, trace, params, "PlaybackEngine") {}

FlowSchemeResult PlaybackEngine::run(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams,
    telemetry::Telemetry* telemetry) const {
  return runRange(flow, kind, schemeParams, 0, trace().intervalCount(),
                  telemetry);
}

FlowSchemeResult PlaybackEngine::runRange(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, telemetry::Telemetry* telemetry) const {
  const ScoreSpec spec{.caller = "PlaybackEngine::runRange",
                       .historyStart = first,
                       .first = first,
                       .last = last,
                       .telemetry = telemetry};
  return finalizePartial(flow, kind, replay(flow, kind, schemeParams, spec));
}

std::vector<double> PlaybackEngine::missTimeline(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last) const {
  std::vector<double> timeline;
  timeline.reserve(last > first ? last - first : 0);
  const ScoreSpec spec{.caller = "PlaybackEngine::missTimeline",
                       .historyStart = first,
                       .first = first,
                       .last = last,
                       .reuseCleanEvals = false,
                       .missTimeline = &timeline};
  replay(flow, kind, schemeParams, spec);
  return timeline;
}

// dgcheck: hot
RunPartial PlaybackEngine::runChunkPartial(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  const ScoreSpec spec{.caller = "PlaybackEngine::runChunkPartial",
                       .first = first,
                       .last = last,
                       .decisionSource = decisionSource,
                       .truthSource = truthSource,
                       .telemetry = telemetry};
  return replay(flow, kind, schemeParams, spec);
}

RunPartial PlaybackEngine::replay(routing::Flow flow, routing::SchemeKind kind,
                                  const routing::SchemeParams& schemeParams,
                                  const ScoreSpec& spec) const {
  // dgcheck: setup begin
  auto scheme = routing::makeScheme(kind, core_.overlay(), flow, schemeParams);
  if (params().decisionMemo) {
    scheme->setDecisionMemo(
        &decisionMemo_, decisionMemo_.contextKey(kind, flow, schemeParams));
  }
  EvalStep step(params(),
                {.source = flow.source,
                 .receivers = {&flow.destination, 1},
                 .deadlines = {params().delivery.deadline},
                 .seedKind = kind,
                 .label = std::to_string(flow.source) + "->" +
                          std::to_string(flow.destination),
                 .schemeName = routing::schemeName(kind),
                 .metrics = kFlowMetrics});
  // dgcheck: setup end
  return core_.score(*scheme, step, spec);
}

FlowSchemeResult PlaybackEngine::finalizePartial(routing::Flow flow,
                                                 routing::SchemeKind kind,
                                                 RunPartial&& total) const {
  total.resize(1);
  FlowSchemeResult result;
  result.flow = flow;
  result.scheme = kind;
  result.unavailability = total.receiverMiss[0].mean();
  result.unavailableSeconds = total.receiverUnavailableSeconds[0];
  result.problematicIntervals = total.receiverProblematic[0];
  result.averageCost = total.costStats.mean();
  result.averageLatencyUs = total.receiverLatency[0].mean();
  result.problems = std::move(total.problems);
  result.intervalLatenciesUs = std::move(total.intervalLatenciesUs);
  return result;
}

}  // namespace dg::playback
