// Golden equivalence: the optimized playback hot path (condition-timeline
// cursor, reusable delivery workspaces, decision memo) must produce
// results and telemetry *byte-identical* to legacy replay (per-interval
// vector materialization, every select() run), its per-interval misses
// must equal the frozen reference evaluators run on the selection in
// force, and everything must hold at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "oracle/delivery_oracle.hpp"
#include "playback/delivery_model.hpp"
#include "playback/experiment.hpp"
#include "playback/playback.hpp"
#include "routing/scheme.hpp"
#include "routing/targeted_graphs.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace dg {
namespace {

/// Randomized ltn12 trace with enough loss/latency events to exercise
/// both the deterministic and the Monte-Carlo evaluation paths.
trace::Trace randomTrace(const graph::Graph& g, std::size_t intervals,
                         std::uint64_t seed) {
  trace::Trace tr =
      test::healthyTrace(g, intervals, util::seconds(10), 1e-4);
  util::Rng rng(seed);
  for (std::size_t k = 0; k < intervals; ++k) {
    const auto e = static_cast<graph::EdgeId>(
        rng.uniformInt(static_cast<std::uint64_t>(g.edgeCount())));
    const auto t = static_cast<std::size_t>(
        rng.uniformInt(static_cast<std::uint64_t>(intervals)));
    trace::LinkConditions c = tr.baseline(e);
    if (rng.bernoulli(0.6)) {
      c.lossRate = rng.uniform(0.05, 0.9);
    } else {
      c.latency = 3 * c.latency + util::milliseconds(10);
    }
    tr.setCondition(e, t, c);
  }
  return tr;
}

void expectResultsIdentical(const playback::FlowSchemeResult& a,
                            const playback::FlowSchemeResult& b) {
  EXPECT_EQ(a.unavailability, b.unavailability);
  EXPECT_EQ(a.unavailableSeconds, b.unavailableSeconds);
  EXPECT_EQ(a.problematicIntervals, b.problematicIntervals);
  EXPECT_EQ(a.averageCost, b.averageCost);
  EXPECT_EQ(a.averageLatencyUs, b.averageLatencyUs);
  ASSERT_EQ(a.problems.size(), b.problems.size());
  for (std::size_t i = 0; i < a.problems.size(); ++i) {
    EXPECT_EQ(a.problems[i].interval, b.problems[i].interval);
    EXPECT_EQ(a.problems[i].missProbability, b.problems[i].missProbability);
  }
}

class GoldenEquivalence : public ::testing::Test {
 protected:
  GoldenEquivalence()
      : topology_(trace::Topology::ltn12()),
        trace_(randomTrace(topology_.graph(), 180, 20170605)) {
    flows_ = playback::transcontinentalFlows(topology_);
    flows_.resize(4);
    params_.mcSamples = 200;
  }

  /// Runs every (flow, scheme) job on one engine and collects results
  /// plus the full telemetry exports.
  std::pair<std::vector<playback::FlowSchemeResult>, std::string> runAll(
      const playback::PlaybackParams& params) const {
    const playback::PlaybackEngine engine(topology_.graph(), trace_,
                                          params);
    telemetry::Telemetry telemetry;
    std::vector<playback::FlowSchemeResult> results;
    for (const routing::Flow flow : flows_) {
      for (const routing::SchemeKind kind : routing::allSchemeKinds()) {
        results.push_back(engine.run(flow, kind, {}, &telemetry));
      }
    }
    return {std::move(results), telemetry::toPrometheus(telemetry.metrics) +
                                    telemetry::toJson(telemetry.metrics)};
  }

  trace::Topology topology_;
  trace::Trace trace_;
  std::vector<routing::Flow> flows_;
  playback::PlaybackParams params_;
};

TEST_F(GoldenEquivalence, DecisionMemoOnOffByteIdentical) {
  playback::PlaybackParams on = params_;
  playback::PlaybackParams off = params_;
  on.decisionMemo = true;
  off.decisionMemo = false;
  const auto [rOn, tOn] = runAll(on);
  const auto [rOff, tOff] = runAll(off);
  ASSERT_EQ(rOn.size(), rOff.size());
  for (std::size_t i = 0; i < rOn.size(); ++i) {
    expectResultsIdentical(rOn[i], rOff[i]);
  }
  EXPECT_EQ(tOn, tOff);
}

// Replay only: legacy replay materializes every interval's conditions
// into owned vectors and runs select() on every interval; both arms run
// the same evaluation step (the evaluators are pinned against the
// frozen references by MissTimelineMatchesReferenceEvaluators).
TEST_F(GoldenEquivalence, CursorVsLegacyByteIdentical) {
  playback::PlaybackParams legacy = params_;
  legacy.decisionMemo = false;
  legacy.conditionCursor = false;  // legacy replay, owned vectors
  const auto [rOpt, tOpt] = runAll(params_);
  const auto [rLegacy, tLegacy] = runAll(legacy);
  ASSERT_EQ(rOpt.size(), rLegacy.size());
  for (std::size_t i = 0; i < rOpt.size(); ++i) {
    expectResultsIdentical(rOpt[i], rLegacy[i]);
  }
  EXPECT_EQ(tOpt, tLegacy);
}

// A deviation burst followed by a long clean tail: the targeted scheme's
// hold-down counters drain inside the tail, on fingerprinted baseline
// views whose classification the scheme serves from its cache. Any
// decision the pass got wrong there -- a skipped or cached hold-down
// step would freeze the expensive targeted graph for the rest of the run
// -- shows as an averageCost mismatch against legacy replay, whose
// unfingerprinted views are classified afresh on every call. Both arms
// run the same evaluation step, so this compares the two decision
// passes only.
TEST(SteadyFastPath, MatchesLegacyWithoutTelemetry) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  trace::Trace tr = test::healthyTrace(g, 120, util::seconds(10), 1e-4);
  util::Rng rng(777);
  for (std::size_t k = 0; k < 90; ++k) {
    const auto e = static_cast<graph::EdgeId>(
        rng.uniformInt(static_cast<std::uint64_t>(g.edgeCount())));
    const auto t = static_cast<std::size_t>(rng.uniformInt(50));
    trace::LinkConditions c = tr.baseline(e);
    c.lossRate = rng.uniform(0.1, 0.9);
    tr.setCondition(e, t, c);  // deviations only in [0, 50): clean tail
  }

  playback::PlaybackParams optimizedParams;
  optimizedParams.mcSamples = 150;
  playback::PlaybackParams legacyParams = optimizedParams;
  legacyParams.decisionMemo = false;
  legacyParams.conditionCursor = false;

  const playback::PlaybackEngine optimized(g, tr, optimizedParams);
  const playback::PlaybackEngine legacy(g, tr, legacyParams);
  auto flows = playback::transcontinentalFlows(topology);
  flows.resize(4);
  for (const routing::Flow flow : flows) {
    for (const routing::SchemeKind kind : routing::allSchemeKinds()) {
      expectResultsIdentical(optimized.run(flow, kind, {}),
                             legacy.run(flow, kind, {}));
    }
  }
}

TEST_F(GoldenEquivalence, ThreadCountInvariant) {
  playback::ExperimentConfig config;
  config.flows = flows_;
  config.playback = params_;
  config.threads = 1;
  telemetry::Telemetry tel1;
  const auto r1 =
      runExperiment(topology_.graph(), trace_, config, &tel1);
  config.threads = 4;
  telemetry::Telemetry tel4;
  const auto r4 =
      runExperiment(topology_.graph(), trace_, config, &tel4);
  ASSERT_EQ(r1.perFlow.size(), r4.perFlow.size());
  for (std::size_t i = 0; i < r1.perFlow.size(); ++i) {
    expectResultsIdentical(r1.perFlow[i], r4.perFlow[i]);
  }
  EXPECT_EQ(telemetry::toPrometheus(tel1.metrics),
            telemetry::toPrometheus(tel4.metrics));
  EXPECT_EQ(telemetry::toJson(tel1.metrics),
            telemetry::toJson(tel4.metrics));
}

// Legacy replay vs cursor replay, interval by interval: the miss
// timelines of the two replays must agree bit for bit.
TEST_F(GoldenEquivalence, MissTimelineMatchesAcrossModes) {
  playback::PlaybackParams legacy = params_;
  legacy.decisionMemo = false;
  legacy.conditionCursor = false;
  const playback::PlaybackEngine optimized(topology_.graph(), trace_,
                                           params_);
  const playback::PlaybackEngine reference(topology_.graph(), trace_,
                                           legacy);
  for (const routing::SchemeKind kind : routing::allSchemeKinds()) {
    const auto a = optimized.missTimeline(flows_[0], kind, {}, 0,
                                          trace_.intervalCount());
    const auto b = reference.missTimeline(flows_[0], kind, {}, 0,
                                          trace_.intervalCount());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
      EXPECT_EQ(a[t], b[t]) << "interval " << t;
    }
  }
}

// The engine-level reference oracle: for every flow x scheme x interval,
// the miss the playback step scored matches the frozen reference
// evaluator run on the selection the decision replay has in force at that
// interval (ReplayCore::selectionAt) under the interval's true conditions
// -- equal to the near-lossless reference on deterministic intervals, and
// within sampling tolerance of 1 - the Monte-Carlo reference on the
// interval's own RNG stream otherwise (the sparse sampler draws a
// different stream of the same distribution).
TEST_F(GoldenEquivalence, MissTimelineMatchesReferenceEvaluators) {
  const graph::Graph& g = topology_.graph();
  const playback::PlaybackEngine engine(g, trace_, params_);
  const playback::ReplayCore core(g, trace_, params_, "reference oracle");
  const std::size_t n = trace_.intervalCount();
  std::size_t monteCarlo = 0;
  for (const routing::Flow flow : flows_) {
    for (const routing::SchemeKind kind : routing::allSchemeKinds()) {
      const std::vector<double> timeline =
          engine.missTimeline(flow, kind, {}, 0, n);
      ASSERT_EQ(timeline.size(), n);
      for (std::size_t t = 0; t < n; ++t) {
        const auto scheme = routing::makeScheme(kind, g, flow, {});
        const graph::DisseminationGraph& dg = core.selectionAt(*scheme, t);
        const std::vector<double> losses = trace_.lossRatesAt(t);
        const std::vector<util::SimTime> latencies = trace_.latenciesAt(t);
        const auto where = [&] {
          return testing::Message()
                 << routing::schemeName(kind) << " flow " << flow.source
                 << "->" << flow.destination << " interval " << t;
        };
        if (playback::nearLossless(dg, losses, params_.lossEpsilon)) {
          EXPECT_EQ(timeline[t], oracle::missProbabilityNearLosslessReference(
                                     dg, losses, latencies, params_.delivery))
              << where();
        } else {
          ++monteCarlo;
          util::Rng rng(playback::intervalSeed(
              params_.seed, flow.source, {&flow.destination, 1}, kind, t));
          const double expected = 1.0 - oracle::onTimeProbabilityMCReference(
                                            dg, losses, latencies,
                                            params_.delivery,
                                            params_.mcSamples, rng);
          EXPECT_TRUE(oracle::mcEstimatesAgree(timeline[t], params_.mcSamples,
                                               expected, params_.mcSamples))
              << where() << ": miss " << timeline[t] << ", reference "
              << expected;
        }
      }
    }
  }
  EXPECT_GT(monteCarlo, 0u)
      << "fixture never exercised the Monte-Carlo path";
}

TEST(DeliveryEquivalence, OptimizedEvaluatorsMatchReference) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  const routing::Flow flow{0, 7};
  const auto targeted = routing::buildTargetedGraphs(
      g, flow, g.baseLatencies(), util::milliseconds(65));

  graph::DisseminationGraph floodingGraph(g, flow.source,
                                          flow.destination);
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    floodingGraph.addEdge(e);
  }
  const graph::DisseminationGraph& flooding = floodingGraph;

  const playback::DeliveryModelParams params;
  playback::DeliveryWorkspace ws;  // one workspace across all calls
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    util::Rng setup(seed * 977 + 3);
    std::vector<double> losses(g.edgeCount());
    std::vector<util::SimTime> latencies = g.baseLatencies();
    for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
      losses[e] = setup.bernoulli(0.2) ? setup.uniform(0.0, 0.9) : 1e-4;
      if (setup.bernoulli(0.1)) latencies[e] *= 4;
    }
    for (const graph::DisseminationGraph* dg_ :
         {&targeted.sourceProblem, &targeted.destinationProblem,
          &flooding}) {
      util::Rng a(seed);
      util::Rng b(seed);
      const double optimized = playback::onTimeProbabilityMC(
          *dg_, losses, latencies, params, 300, a, ws);
      const double reference = oracle::onTimeProbabilityMCReference(
          *dg_, losses, latencies, params, 300, b);
      EXPECT_TRUE(oracle::mcEstimatesAgree(optimized, 300, reference, 300))
          << "seed " << seed << ": " << optimized << " vs reference "
          << reference;
      EXPECT_EQ(playback::missProbabilityNearLossless(*dg_, losses,
                                                      latencies, params,
                                                      ws),
                oracle::missProbabilityNearLosslessReference(
                    *dg_, losses, latencies, params))
          << "seed " << seed;
    }
  }
}

// The sparse sampler against the frozen dense reference, across sample
// counts on both sides of the 64-sample deviation-flag words, and member
// counts from small targeted graphs to the 64-member flooding graph (both
// key words): runs of 257 and 1000 samples each within sampling tolerance
// of a 4000-sample reference, and the short runs of 1, 31, 33, 63, 64 and
// 65 samples summed into one 257-sample estimate held to the same
// tolerance (a single short run is too coarse for it). At every count a
// reused workspace must give what a fresh one gives, down to the final
// RNG state (the sampler's keys and flags are all-zero between calls).
TEST(DeliveryEquivalence, AllKernelsMatchReferenceAcrossSeedsAndCounts) {
  const auto topology = trace::Topology::ltn12();
  const graph::Graph& g = topology.graph();
  const routing::Flow flow{0, 7};
  const auto targeted = routing::buildTargetedGraphs(
      g, flow, g.baseLatencies(), util::milliseconds(65));

  graph::DisseminationGraph floodingGraph(g, flow.source, flow.destination);
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    floodingGraph.addEdge(e);
  }

  const playback::DeliveryModelParams params;
  playback::DeliveryWorkspace ws;
  constexpr int kReferenceSamples = 4000;
  const int sampleCounts[] = {1, 31, 33, 63, 64, 65, 257, 1000};
  constexpr int kPooledBelow = 257;  // runs shorter than this are summed
  for (std::uint64_t seed = 100; seed < 107; ++seed) {
    util::Rng setup(seed * 1979 + 11);
    std::vector<double> losses(g.edgeCount());
    std::vector<util::SimTime> latencies = g.baseLatencies();
    for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
      losses[e] = setup.bernoulli(0.25) ? setup.uniform(0.0, 0.9) : 1e-4;
      if (setup.bernoulli(0.1)) latencies[e] *= 4;
    }
    for (const graph::DisseminationGraph* dg_ :
         {&targeted.sourceProblem, &targeted.destinationProblem,
          static_cast<const graph::DisseminationGraph*>(&floodingGraph)}) {
      util::Rng refRng(seed);
      const double reference = oracle::onTimeProbabilityMCReference(
          *dg_, losses, latencies, params, kReferenceSamples, refRng);
      int pooledOnTime = 0;
      int pooledSamples = 0;
      for (const int samples : sampleCounts) {
        // Each count on its own stream, so the summed short runs are
        // independent samples.
        const std::uint64_t stream =
            seed * 1000 + static_cast<std::uint64_t>(samples);
        util::Rng rng(stream);
        const double got = playback::onTimeProbabilityMC(
            *dg_, losses, latencies, params, samples, rng, ws);
        if (samples >= kPooledBelow) {
          EXPECT_TRUE(oracle::mcEstimatesAgree(got, samples, reference,
                                               kReferenceSamples))
              << "seed " << seed << " samples " << samples << ": " << got
              << " vs reference " << reference;
        } else {
          pooledOnTime += static_cast<int>(std::lround(got * samples));
          pooledSamples += samples;
        }
        util::Rng freshRng(stream);
        EXPECT_EQ(playback::onTimeProbabilityMC(*dg_, losses, latencies,
                                                params, samples, freshRng),
                  got)
            << "fresh workspace: seed " << seed << " samples " << samples;
        EXPECT_EQ(freshRng.next(), rng.next())
            << "RNG state: seed " << seed << " samples " << samples;
      }
      const double pooled = static_cast<double>(pooledOnTime) / pooledSamples;
      EXPECT_TRUE(oracle::mcEstimatesAgree(pooled, pooledSamples, reference,
                                           kReferenceSamples))
          << "seed " << seed << " short runs summed (" << pooledSamples
          << " samples): " << pooled << " vs reference " << reference;
    }
  }
}

}  // namespace
}  // namespace dg
