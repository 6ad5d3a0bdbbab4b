// Test-only oracle library: the delivery evaluators as they were before
// each optimization, frozen. Do not "improve" these -- their entire value
// is being the unchanged baseline the production evaluators in
// src/playback/delivery_model.cpp are proven bit-identical against, by
// the equivalence suites and the engine-level oracle test.
//
//   - onTimeProbabilityMCReference / missProbabilityNearLosslessReference:
//     the pre-optimization unicast evaluators (per-call vector
//     allocations, per-sample std::priority_queue Dijkstra over
//     sampleHopLatency draws, no clean-sample shortcut).
//   - onTimeCountsMCGroupReference: the group sample loop as it was
//     before the group evaluator moved onto the unicast evaluator's
//     sampling front end (block draws, SIMD classify, clean-path key
//     mask, verdict-mask memo). It is itself anchored to the unicast
//     reference for one receiver.
#pragma once

#include <span>

#include "graph/dissemination_graph.hpp"
#include "playback/delivery_model.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace dg::oracle {

/// Fraction of `samples` Monte-Carlo samples that reach the graph's
/// destination within params.deadline.
double onTimeProbabilityMCReference(const graph::DisseminationGraph& dg,
                                    std::span<const double> lossRates,
                                    std::span<const util::SimTime> latencies,
                                    const playback::DeliveryModelParams& params,
                                    int samples, util::Rng& rng);

/// Near-lossless miss probability: 1 when the clean earliest path misses
/// the deadline, else the summed unrecoverable loss along it.
double missProbabilityNearLosslessReference(
    const graph::DisseminationGraph& dg, std::span<const double> lossRates,
    std::span<const util::SimTime> latencies,
    const playback::DeliveryModelParams& params);

/// Per-receiver on-time counts and the delivered-count histogram of
/// `samples` group samples, with the contract of
/// playback::onTimeCountsMCGroup.
void onTimeCountsMCGroupReference(
    const graph::DisseminationGraph& dg,
    std::span<const graph::NodeId> receivers,
    std::span<const util::SimTime> deadlines,
    std::span<const double> lossRates,
    std::span<const util::SimTime> latencies,
    const playback::DeliveryModelParams& params, int samples, util::Rng& rng,
    std::span<int> onTimeCounts, std::span<int> deliveredHistogram);

}  // namespace dg::oracle
