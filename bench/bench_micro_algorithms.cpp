// Experiment E8: google-benchmark microbenchmarks of the core algorithms
// -- engineering due diligence rather than a paper artifact. Covers path
// computation, targeted-graph construction, dissemination-graph
// evaluation, Monte-Carlo delivery sampling and the packet-level
// forwarding engine.
#include <benchmark/benchmark.h>

#include "core/transport.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/k_shortest.hpp"
#include "graph/shortest_path.hpp"
#include "mcast/scheme.hpp"
#include "playback/playback.hpp"
#include "routing/targeted_graphs.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace {

using namespace dg;

const trace::Topology& ltn() {
  static const trace::Topology topology = trace::Topology::ltn12();
  return topology;
}

routing::Flow nycSjc() {
  return routing::Flow{ltn().at("NYC"), ltn().at("SJC")};
}

void BM_Dijkstra(benchmark::State& state) {
  const auto& g = ltn().graph();
  const auto weights = g.baseLatencies();
  const auto flow = nycSjc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::shortestPath(g, flow.source, flow.destination, weights));
  }
}
BENCHMARK(BM_Dijkstra);

void BM_NodeDisjointPair(benchmark::State& state) {
  const auto& g = ltn().graph();
  const auto weights = g.baseLatencies();
  const auto flow = nycSjc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::nodeDisjointPaths(
        g, flow.source, flow.destination, weights, 2));
  }
}
BENCHMARK(BM_NodeDisjointPair);

void BM_YenK8(benchmark::State& state) {
  const auto& g = ltn().graph();
  const auto weights = g.baseLatencies();
  const auto flow = nycSjc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::kShortestPaths(g, flow.source, flow.destination, weights, 8));
  }
}
BENCHMARK(BM_YenK8);

void BM_TargetedGraphConstruction(benchmark::State& state) {
  const auto& g = ltn().graph();
  const auto weights = g.baseLatencies();
  const auto flow = nycSjc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::buildTargetedGraphs(
        g, flow, weights, util::milliseconds(65)));
  }
}
BENCHMARK(BM_TargetedGraphConstruction);

void BM_EarliestArrival(benchmark::State& state) {
  const auto& g = ltn().graph();
  const auto weights = g.baseLatencies();
  const auto flow = nycSjc();
  auto flooding = graph::floodingGraph(g, flow.source, flow.destination);
  flooding.pruneDeadlineInfeasible(weights, util::milliseconds(65));
  for (auto _ : state) {
    benchmark::DoNotOptimize(flooding.earliestArrival(weights));
  }
}
BENCHMARK(BM_EarliestArrival);

void BM_MonteCarloDelivery(benchmark::State& state) {
  const auto& g = ltn().graph();
  const auto flow = nycSjc();
  const auto targeted = routing::buildTargetedGraphs(
      g, flow, g.baseLatencies(), util::milliseconds(65));
  std::vector<double> losses(g.edgeCount(), 0.0);
  for (const graph::EdgeId e : g.outEdges(flow.source)) losses[e] = 0.3;
  const auto latencies = g.baseLatencies();
  util::Rng rng(1);
  const playback::DeliveryModelParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(playback::onTimeProbabilityMC(
        targeted.sourceProblem, losses, latencies, params,
        static_cast<int>(state.range(0)), rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonteCarloDelivery)->Arg(100)->Arg(1000);

// The group twin: one send on the group-flooding graph of an 8-receiver
// ltn12 group, scored against every receiver (ns per call / per sample).
void BM_MonteCarloDeliveryGroup(benchmark::State& state) {
  const auto& g = ltn().graph();
  const mcast::Group group =
      mcast::parseGroupSpec("NYC:LAX+SJC+SEA+DEN+DFW+CHI+LON+FRA", ltn());
  const routing::NetworkView baseline(std::vector<double>(g.edgeCount(), 0.0),
                                      g.baseLatencies());
  const auto scheme = mcast::makeGroupScheme(
      mcast::GroupSchemeKind::kGroupFlooding, g, group, routing::SchemeParams{});
  scheme->initialize(baseline);
  const graph::DisseminationGraph& flooding = scheme->select(baseline);
  std::vector<double> losses(g.edgeCount(), 0.0);
  for (const graph::EdgeId e : g.outEdges(group.source)) losses[e] = 0.3;
  const auto latencies = g.baseLatencies();
  const playback::DeliveryModelParams params;
  const std::size_t receivers = group.receivers.size();
  std::vector<util::SimTime> deadlines(receivers);
  for (std::size_t r = 0; r < receivers; ++r)
    deadlines[r] = mcast::receiverDeadline(group, r, params.deadline);
  std::vector<int> onTime(receivers);
  std::vector<int> histogram(receivers + 1);
  playback::DeliveryWorkspace ws;
  util::Rng rng(1);
  for (auto _ : state) {
    playback::onTimeCountsMCGroup(flooding, group.receivers, deadlines, losses,
                                  latencies, params,
                                  static_cast<int>(state.range(0)), rng, ws,
                                  onTime, histogram);
    benchmark::DoNotOptimize(histogram.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonteCarloDeliveryGroup)->Arg(100)->Arg(1000);

void BM_PlaybackHealthyDay(benchmark::State& state) {
  const auto& g = ltn().graph();
  static const trace::Trace tr(util::seconds(10), 8640,
                               trace::healthyBaseline(g, 1e-4));
  playback::PlaybackParams params;
  const playback::PlaybackEngine engine(g, tr, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(
        nycSjc(), routing::SchemeKind::TargetedRedundancy,
        routing::SchemeParams{}));
  }
  state.SetItemsProcessed(state.iterations() * 8640);
}
BENCHMARK(BM_PlaybackHealthyDay)->Unit(benchmark::kMillisecond);

void BM_EventSimSecond(benchmark::State& state) {
  // One simulated second of a 100 pkt/s flow through the full
  // packet-level overlay (forwarding, dedup, probes, monitor).
  const auto& topology = ltn();
  static const trace::Trace tr(util::seconds(10), 360,
                               trace::healthyBaseline(topology.graph(),
                                                      1e-4));
  for (auto _ : state) {
    state.PauseTiming();
    core::TransportService service(topology, tr);
    const auto id = service.openFlow("NYC", "SJC",
                                     routing::SchemeKind::TargetedRedundancy);
    state.ResumeTiming();
    service.run(util::seconds(1));
    benchmark::DoNotOptimize(service.stats(id).sent);
  }
}
BENCHMARK(BM_EventSimSecond)->Unit(benchmark::kMillisecond);

// Telemetry overhead guards: the same workloads as BM_PlaybackHealthyDay
// and BM_EventSimSecond with a full Telemetry attached. The registry's
// design target is <5% slowdown on these hot paths (cached handles; one
// add per event) -- compare against the un-instrumented twins above.
void BM_PlaybackHealthyDayTelemetry(benchmark::State& state) {
  const auto& g = ltn().graph();
  static const trace::Trace tr(util::seconds(10), 8640,
                               trace::healthyBaseline(g, 1e-4));
  playback::PlaybackParams params;
  const playback::PlaybackEngine engine(g, tr, params);
  for (auto _ : state) {
    telemetry::Telemetry telemetry;
    benchmark::DoNotOptimize(engine.run(
        nycSjc(), routing::SchemeKind::TargetedRedundancy,
        routing::SchemeParams{}, &telemetry));
  }
  state.SetItemsProcessed(state.iterations() * 8640);
}
BENCHMARK(BM_PlaybackHealthyDayTelemetry)->Unit(benchmark::kMillisecond);

void BM_EventSimSecondTelemetry(benchmark::State& state) {
  const auto& topology = ltn();
  static const trace::Trace tr(util::seconds(10), 360,
                               trace::healthyBaseline(topology.graph(),
                                                      1e-4));
  for (auto _ : state) {
    state.PauseTiming();
    telemetry::Telemetry telemetry;
    core::TransportService service(topology, tr);
    service.setTelemetry(&telemetry);
    const auto id = service.openFlow("NYC", "SJC",
                                     routing::SchemeKind::TargetedRedundancy);
    state.ResumeTiming();
    service.run(util::seconds(1));
    benchmark::DoNotOptimize(service.stats(id).sent);
    benchmark::DoNotOptimize(telemetry.metrics.empty());
  }
}
BENCHMARK(BM_EventSimSecondTelemetry)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
