#include "playback/playback.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace dg::playback {

std::uint64_t intervalSeed(std::uint64_t seed, graph::NodeId source,
                           std::span<const graph::NodeId> receivers,
                           routing::SchemeKind kind, std::size_t interval) {
  std::uint64_t x = seed;
  const auto mix = [&x](std::uint64_t v) {
    x ^= v + 0x9E3779B97F4A7C15ULL + (x << 6) + (x >> 2);
  };
  mix(source);
  for (const graph::NodeId r : receivers) mix(r);
  mix(static_cast<std::uint64_t>(kind));
  mix(interval);
  return x;
}

// dgcheck: cold: runs once per chunk at merge time, not per interval
void RunPartial::merge(RunPartial&& later) {
  missMean.merge(later.missMean);
  costStats.merge(later.costStats);
  latencyStats.merge(later.latencyStats);
  unavailableSeconds += later.unavailableSeconds;
  problematicIntervals += later.problematicIntervals;
  appendInOrder(problems, std::move(later.problems));
  appendInOrder(intervalLatenciesUs, std::move(later.intervalLatenciesUs));
}

ReplayCore::ReplayCore(const graph::Graph& overlay, const trace::Trace& trace,
                       const PlaybackParams& params, std::string_view owner)
    : overlay_(&overlay),
      trace_(&trace),
      params_(params),
      staleness_(static_cast<std::size_t>(std::max(params.viewStaleness, 0))),
      conditionIndex_(trace) {
  if (trace.edgeCount() != overlay.edgeCount())
    throw std::invalid_argument(std::string(owner) +
                                ": trace edge count does not match overlay");
  if (params.viewStaleness < 0)
    throw std::invalid_argument(std::string(owner) + ": negative staleness");
  for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
    if (trace.hasDeviation(t)) deviatingIntervals_.push_back(t);
  }
}

std::size_t ReplayCore::nextDeviatingDecision(std::size_t fromInterval) const {
  // The decision at t sees interval t - staleness, so the first candidate
  // deviation is at view interval max(fromInterval, staleness) -
  // staleness.
  const std::size_t fromView =
      fromInterval > staleness_ ? fromInterval - staleness_ : 0;
  const auto it = std::lower_bound(deviatingIntervals_.begin(),
                                   deviatingIntervals_.end(), fromView);
  if (it == deviatingIntervals_.end()) return trace_->intervalCount();
  return std::max(fromInterval, *it + staleness_);
}

/// Unicast evaluation: the deterministic near-lossless path (memoized
/// across jobs) or Monte-Carlo over the interval's own RNG stream, plus
/// the optional miss timeline.
class PlaybackEngine::EvalStep {
 public:
  using Eval = IntervalEval;
  using Partial = RunPartial;
  static constexpr ReplayMetricNames kMetrics{
      "flow",
      "dg_playback_intervals_total",
      "dg_playback_mc_intervals_total",
      "dg_playback_mc_samples_total",
      "dg_routing_graph_switches_total",
      "dg_playback_miss_probability"};

  EvalStep(const PlaybackEngine& engine, routing::Flow flow,
           routing::SchemeKind kind, std::vector<double>* timelineOut)
      : engine_(engine),
        params_(engine.params()),
        flow_(flow),
        kind_(kind),
        timelineOut_(timelineOut) {}

  std::string label() const {
    return std::to_string(flow_.source) + "->" +
           std::to_string(flow_.destination);
  }
  graph::NodeId source() const { return flow_.source; }
  std::string_view schemeName() const { return routing::schemeName(kind_); }
  double observedMiss(const Eval& eval) const { return eval.miss; }

  void evaluateInterval(std::size_t t, const graph::DisseminationGraph& dg,
                        std::span<const double> lossRates,
                        std::span<const util::SimTime> latencies,
                        IntervalEval& eval, StageClock& clock) {
    eval = IntervalEval{};
    // Deterministic (near-lossless) evaluations are pure functions of
    // (flow, graph edges, interval content) and shared across jobs;
    // Monte-Carlo evaluations are always computed fresh from their own
    // per-(flow, scheme, interval) RNG stream.
    const bool deterministic =
        nearLossless(dg, lossRates, params_.lossEpsilon);
    const bool memoized = deterministic && params_.decisionMemo;
    EvalKey evalKey{};
    if (memoized) {
      clock.start();
      if (!haveInterned_ || dg.edges() != internedEdges_) {
        internedId_ = engine_.decisionMemo_.internEdgeList(dg.edges());
        internedEdges_ = dg.edges();
        haveInterned_ = true;
      }
      evalKey = EvalKey{flow_.source, flow_.destination, internedId_,
                        engine_.core_.conditionIndex().contentId(t)};
      const auto hit = engine_.findEval(evalKey);
      clock.stop(clock.memoNs);
      if (hit) {
        eval = *hit;
        return;
      }
    }
    // Legacy mode evaluates through the frozen reference implementations
    // so the benchmark's baseline arm reproduces pre-optimization behavior
    // (and the equivalence tests pit the optimized evaluators against the
    // originals).
    const bool useCursor = params_.conditionCursor;
    if (deterministic) {
      clock.start();
      eval.miss = useCursor ? missProbabilityNearLossless(
                                  dg, lossRates, latencies,
                                  params_.delivery, workspace_)
                            : missProbabilityNearLosslessReference(
                                  dg, lossRates, latencies, params_.delivery);
      clock.stop(clock.memoNs);
    } else {
      clock.start();
      util::Rng rng(intervalSeed(params_.seed, flow_.source,
                                 {&flow_.destination, 1}, kind_, t));
      const double onTime =
          useCursor ? onTimeProbabilityMC(dg, lossRates, latencies,
                                          params_.delivery,
                                          params_.mcSamples, rng, workspace_)
                    : onTimeProbabilityMCReference(
                          dg, lossRates, latencies, params_.delivery,
                          params_.mcSamples, rng);  // dgcheck: ok(R6): ternary branches are mutually exclusive; exactly one callee draws from this rng
      eval.miss = 1.0 - onTime;
      eval.monteCarlo = true;
      clock.stop(clock.mcNs);
    }
    eval.cost = static_cast<double>(dg.cost(latencies));
    eval.latency = dg.latencyToDestination(latencies);
    if (memoized) {
      clock.start();
      engine_.storeEval(evalKey, eval);
      clock.stop(clock.memoNs);
    }
  }

  void accumulate(RunPartial& acc, std::size_t t, const IntervalEval& eval,
                  double intervalSeconds) const {
    if (timelineOut_ != nullptr) timelineOut_->push_back(eval.miss);  // dgcheck: ok(R5): diagnostic miss-timeline output; absent in benchmark runs
    acc.missMean.add(eval.miss, 1.0);
    acc.costStats.add(eval.cost);
    if (eval.latency != util::kNever) {
      acc.latencyStats.add(static_cast<double>(eval.latency));
      if (params_.collectIntervalLatencies) {
        acc.intervalLatenciesUs.push_back(  // dgcheck: ok(R5): opt-in interval-latency capture; amortized push on the diagnostic path
            static_cast<double>(eval.latency));
      }
    }
    acc.unavailableSeconds += eval.miss * intervalSeconds;
    if (eval.miss > params_.problematicThreshold) {
      ++acc.problematicIntervals;
      acc.problems.push_back(ProblematicInterval{t, eval.miss});  // dgcheck: ok(R5): bounded by problematic intervals; diagnostic record with amortized growth
    }
  }

 private:
  const PlaybackEngine& engine_;
  const PlaybackParams& params_;
  routing::Flow flow_;
  routing::SchemeKind kind_;
  std::vector<double>* timelineOut_;
  DeliveryWorkspace workspace_;
  // Run-local interned edge-list id of the current selection (graph
  // switches are rare, so interning is amortized away).
  std::vector<graph::EdgeId> internedEdges_;
  std::uint32_t internedId_ = 0;
  bool haveInterned_ = false;
};

PlaybackEngine::PlaybackEngine(const graph::Graph& overlay,
                               const trace::Trace& trace,
                               PlaybackParams params)
    : core_(overlay, trace, params, "PlaybackEngine") {}

std::optional<PlaybackEngine::IntervalEval> PlaybackEngine::findEval(
    const EvalKey& key) const {
  const std::scoped_lock lock(evalMutex_);
  const auto it = evalMemo_.find(key);
  if (it == evalMemo_.end()) return std::nullopt;
  return it->second;
}

void PlaybackEngine::storeEval(const EvalKey& key,
                               const IntervalEval& eval) const {
  const std::scoped_lock lock(evalMutex_);
  evalMemo_.emplace(key, eval);
}

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
  return finalizePartial(flow, kind,
                         replay(flow, kind, schemeParams, spec, nullptr));
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
                       .reuseCleanEvals = false};
  replay(flow, kind, schemeParams, spec, &timeline);
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
  return replay(flow, kind, schemeParams, spec, nullptr);
}

RunPartial PlaybackEngine::replay(routing::Flow flow, routing::SchemeKind kind,
                                  const routing::SchemeParams& schemeParams,
                                  const ScoreSpec& spec,
                                  std::vector<double>* timelineOut) const {
  // dgcheck: setup begin
  auto scheme = routing::makeScheme(kind, core_.overlay(), flow, schemeParams);
  if (params().decisionMemo) {
    scheme->setDecisionMemo(
        &decisionMemo_, decisionMemo_.contextKey(kind, flow, schemeParams));
  }
  EvalStep step(*this, flow, kind, timelineOut);
  // dgcheck: setup end
  return core_.score(*scheme, step, spec);
}

FlowSchemeResult PlaybackEngine::finalizePartial(routing::Flow flow,
                                                 routing::SchemeKind kind,
                                                 RunPartial&& total) const {
  FlowSchemeResult result;
  result.flow = flow;
  result.scheme = kind;
  result.unavailability = total.missMean.mean();
  result.unavailableSeconds = total.unavailableSeconds;
  result.problematicIntervals = total.problematicIntervals;
  result.averageCost = total.costStats.mean();
  result.averageLatencyUs = total.latencyStats.mean();
  result.problems = std::move(total.problems);
  result.intervalLatenciesUs = std::move(total.intervalLatenciesUs);
  return result;
}

}  // namespace dg::playback
