// Test-only oracle library: the delivery evaluators as they were before
// each optimization, frozen. Do not "improve" these -- their entire value
// is being the unchanged baseline the production evaluators in
// src/playback/delivery_model.cpp are checked against: the near-lossless
// evaluator bit for bit, the Monte-Carlo evaluators (which draw only the
// deviating hop outcomes, a different draw stream of the same
// distribution) within sampling tolerance.
//
//   - sampleHopLatency: one hop outcome drawn from one uniform, the
//     dense per-sample, per-edge draw discipline of every oracle below.
//   - onTimeProbabilityMCReference / missProbabilityNearLosslessReference:
//     the pre-optimization unicast evaluators (per-call vector
//     allocations, per-sample std::priority_queue Dijkstra over
//     sampleHopLatency draws, no clean-sample shortcut).
//   - onTimeCountsMCGroupReference: the group sample loop as it was
//     before the group evaluator moved onto the unicast evaluator's
//     sampling front end (dense draws, clean-path flags, no memo). It is
//     itself anchored to the unicast reference for one receiver.
//   - exactGroupDelivery: no sampling at all -- every outcome pattern of
//     a small graph enumerated with its probability, the ground truth
//     the statistical tests hold the Monte-Carlo evaluators to.
#pragma once

#include <span>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "playback/delivery_model.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace dg::oracle {

/// Effective hop outcome distribution on a link with loss rate p and
/// latency `lat`:
///   on-time transit  w.p. (1-p)          after lat
///   recovered        w.p. p(1-p)         after 3*lat + packetInterval
///   lost             w.p. p^2
/// (without recovery: transit w.p. 1-p, lost w.p. p).
util::SimTime sampleHopLatency(double lossRate, util::SimTime latency,
                               const playback::DeliveryModelParams& params,
                               util::Rng& rng);

/// True when two independent Monte-Carlo estimates of one probability,
/// `a` over `samplesA` samples and `b` over `samplesB`, agree: |a - b| is
/// within 0.02 plus four standard errors of their difference at the
/// pooled estimate p, 4 * sqrt(p(1-p)(1/samplesA + 1/samplesB)).
bool mcEstimatesAgree(double a, int samplesA, double b, int samplesB);

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

/// Most member edges exactGroupDelivery enumerates (3^8 patterns).
constexpr std::size_t kMaxExactMembers = 8;

/// Exact delivery probabilities of one flooded send.
struct ExactDelivery {
  /// onTime[r]: P(receiver r on time).
  std::vector<double> onTime;
  /// delivered[c]: P(exactly c receivers on time), receiver count + 1.
  std::vector<double> delivered;
};

/// Enumerates all 3^k outcome patterns (2^k without recovery) of the k
/// member edges of `dg`, each weighted by the product of its per-edge
/// outcome probabilities, and scores every pattern by an earliest-arrival
/// run against each receiver's deadline. Throws std::invalid_argument
/// past kMaxExactMembers member edges.
ExactDelivery exactGroupDelivery(const graph::DisseminationGraph& dg,
                                 std::span<const graph::NodeId> receivers,
                                 std::span<const util::SimTime> deadlines,
                                 std::span<const double> lossRates,
                                 std::span<const util::SimTime> latencies,
                                 const playback::DeliveryModelParams& params);

}  // namespace dg::oracle
