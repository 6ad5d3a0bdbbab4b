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
                       .first = first,
                       .last = last,
                       .telemetry = telemetry};
  const SelectionTimeline timeline =
      decide(flow, kind, schemeParams, first, spec);
  return finalizePartial(flow, kind, score(flow, kind, timeline, spec));
}

std::vector<double> PlaybackEngine::missTimeline(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last) const {
  std::vector<double> misses;
  misses.reserve(last > first ? last - first : 0);
  const ScoreSpec spec{.caller = "PlaybackEngine::missTimeline",
                       .first = first,
                       .last = last,
                       .reuseCleanEvals = false,
                       .missTimeline = &misses};
  score(flow, kind, decide(flow, kind, schemeParams, first, spec), spec);
  return misses;
}

// dgcheck: hot
RunPartial PlaybackEngine::runChunkPartial(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  // dgcheck: setup begin
  const char* caller = "PlaybackEngine::runChunkPartial";
  const SelectionTimeline timeline =
      decide(flow, kind, schemeParams, 0,
             {caller, first, last, decisionSource, telemetry});
  // dgcheck: setup end
  return score(flow, kind, timeline,
               {caller, first, last, truthSource, telemetry});
}

// dgcheck: cold: one decision pass per job, before any interval is scored
SelectionTimeline PlaybackEngine::decide(
    routing::Flow flow, routing::SchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t from,
    const ScoreSpec& spec) const {
  auto scheme = routing::makeScheme(kind, core_.overlay(), flow, schemeParams);
  if (params().decisionMemo) {
    scheme->setDecisionMemo(
        &decisionMemo_, decisionMemo_.contextKey(kind, flow, schemeParams));
  }
  return core_.decide(*scheme, from, spec, evalSpec(flow, kind));
}

// dgcheck: hot
RunPartial PlaybackEngine::score(routing::Flow flow, routing::SchemeKind kind,
                                 const SelectionTimeline& timeline,
                                 const ScoreSpec& spec) const {
  // dgcheck: setup begin
  EvalStep step(params(), evalSpec(flow, kind));
  // dgcheck: setup end
  return core_.score(timeline, step, spec);
}

EvalSpec PlaybackEngine::evalSpec(const routing::Flow& flow,
                                  routing::SchemeKind kind) const {
  return {.source = flow.source,
          .receivers = {&flow.destination, 1},
          .deadlines = {params().delivery.deadline},
          .seedKind = kind,
          .label = std::to_string(flow.source) + "->" +
                   std::to_string(flow.destination),
          .schemeName = routing::schemeName(kind),
          .metrics = kFlowMetrics};
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
