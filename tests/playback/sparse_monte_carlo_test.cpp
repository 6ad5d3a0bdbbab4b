// The sparse Monte-Carlo sampler against ground truth. Small graphs are
// scored exactly (oracle::exactGroupDelivery enumerates every outcome
// pattern), so the estimators are held to the true probabilities rather
// than to another estimate: per-receiver on-time probabilities and the
// delivered-count distribution, per-edge deviation and loss frequencies
// on both sides of the skip/threshold cut-off, and the draw-free edges.
// Graphs past 64 member edges (wide keys, no pattern memo) are checked
// against the dense oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "oracle/delivery_oracle.hpp"
#include "playback/delivery_model.hpp"
#include "proptest.hpp"
#include "topogen/topogen.hpp"
#include "util/rng.hpp"

namespace dg::playback {
namespace {

/// An estimate over `samples` samples lies within four binomial standard
/// errors of the exact probability, plus one sample for the
/// discreteness of counts near 0 and 1.
bool withinFourSigma(double estimate, double exact, int samples) {
  const double n = static_cast<double>(samples);
  const double variance = std::max(exact * (1.0 - exact), 0.0) / n;
  return std::abs(estimate - exact) <= 4.0 * std::sqrt(variance) + 1.0 / n;
}

struct SmallCase {
  struct Link {
    graph::NodeId from = 0;
    graph::NodeId to = 0;
    double loss = 0.0;
    util::SimTime latency = 0;
  };
  std::size_t nodes = 2;
  std::vector<Link> links;
  std::vector<util::SimTime> deadlines;  ///< receiver r = node r + 1
  bool recovery = true;

  std::string describe() const {
    std::ostringstream out;
    out << "  nodes=" << nodes << " recovery=" << recovery << "\n";
    for (const Link& link : links) {
      out << "  " << link.from << " -> " << link.to << " loss=" << link.loss
          << " latency=" << link.latency << "\n";
    }
    for (std::size_t r = 0; r < deadlines.size(); ++r)
      out << "  receiver " << r + 1 << " deadline=" << deadlines[r] << "\n";
    return out.str();
  }
};

/// Loss-free, residual, blip, near the cut-off, severe and dark edges.
double genLoss(util::Rng& rng) {
  switch (rng.uniformInt(std::uint64_t{6})) {
    case 0: return 0.0;
    case 1: return 1e-4;
    case 2: return rng.uniform(0.005, 0.05);
    case 3: return rng.uniform(0.1, 0.2);
    case 4: return rng.uniform(0.8, 0.95);
    default: return 1.0;
  }
}

SmallCase genSmallCase(util::Rng& rng) {
  SmallCase c;
  c.nodes = static_cast<std::size_t>(2 + rng.uniformInt(std::uint64_t{4}));
  const auto links = 1 + rng.uniformInt(std::uint64_t{6});
  for (std::uint64_t i = 0; i < links; ++i) {
    SmallCase::Link link;
    // Mostly outward from the source, so receivers are usually reachable.
    link.from = i == 0 || rng.bernoulli(0.4)
                    ? graph::NodeId{0}
                    : static_cast<graph::NodeId>(rng.uniformInt(c.nodes));
    link.to = static_cast<graph::NodeId>(rng.uniformInt(c.nodes - 1));
    if (link.to >= link.from) ++link.to;
    link.loss = genLoss(rng);
    link.latency =
        util::milliseconds(rng.uniformInt(std::int64_t{1}, std::int64_t{20}));
    c.links.push_back(link);
  }
  for (std::size_t r = 1; r < c.nodes; ++r) {
    c.deadlines.push_back(
        util::milliseconds(rng.uniformInt(std::int64_t{5}, std::int64_t{80})));
  }
  c.recovery = rng.bernoulli(0.5);
  return c;
}

struct Built {
  graph::Graph g;
  std::vector<double> losses;
  std::vector<util::SimTime> latencies;
  std::vector<graph::NodeId> receivers;
};

Built build(const SmallCase& c) {
  Built b;
  b.g.addNodes(c.nodes);
  for (const SmallCase::Link& link : c.links) {
    b.g.addEdge(link.from, link.to, link.latency);
    b.losses.push_back(link.loss);
    b.latencies.push_back(link.latency);
  }
  for (std::size_t r = 1; r < c.nodes; ++r)
    b.receivers.push_back(static_cast<graph::NodeId>(r));
  return b;
}

graph::DisseminationGraph allEdges(const graph::Graph& g,
                                   graph::NodeId destination) {
  graph::DisseminationGraph dg(g, 0, destination);
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) dg.addEdge(e);
  return dg;
}

TEST(SparseMonteCarlo, MatchesExactEnumerationOnSmallGraphs) {
  test::prop::forAll(
      "sparse MC within 4 sigma of exact enumeration", genSmallCase,
      [](const SmallCase& c) {
        const Built b = build(c);
        const graph::DisseminationGraph dg = allEdges(b.g, b.receivers[0]);
        DeliveryModelParams params;
        params.recoveryEnabled = c.recovery;
        params.deadline = c.deadlines[0];
        const oracle::ExactDelivery exact = oracle::exactGroupDelivery(
            dg, b.receivers, c.deadlines, b.losses, b.latencies, params);
        DeliveryWorkspace ws;
        for (const int samples : {1000, 20000}) {
          util::Rng rng(static_cast<std::uint64_t>(samples) * 31 + 7);
          const double unicast = onTimeProbabilityMC(
              dg, b.losses, b.latencies, params, samples, rng, ws);
          if (!withinFourSigma(unicast, exact.onTime[0], samples)) {
            return test::prop::fail(
                "unicast " + std::to_string(unicast) + " vs exact " +
                std::to_string(exact.onTime[0]) + " at " +
                std::to_string(samples) + " samples");
          }
          std::vector<int> counts(b.receivers.size());
          std::vector<int> histogram(b.receivers.size() + 1);
          onTimeCountsMCGroup(dg, b.receivers, c.deadlines, b.losses,
                              b.latencies, params, samples, rng, ws, counts,
                              histogram);
          for (std::size_t r = 0; r < counts.size(); ++r) {
            const double f = static_cast<double>(counts[r]) / samples;
            if (!withinFourSigma(f, exact.onTime[r], samples)) {
              return test::prop::fail(
                  "receiver " + std::to_string(r) + " " + std::to_string(f) +
                  " vs exact " + std::to_string(exact.onTime[r]) + " at " +
                  std::to_string(samples) + " samples");
            }
          }
          for (std::size_t k = 0; k < histogram.size(); ++k) {
            const double f = static_cast<double>(histogram[k]) / samples;
            if (!withinFourSigma(f, exact.delivered[k], samples)) {
              return test::prop::fail(
                  "delivered-to-exactly-" + std::to_string(k) + " " +
                  std::to_string(f) + " vs exact " +
                  std::to_string(exact.delivered[k]) + " at " +
                  std::to_string(samples) + " samples");
            }
          }
        }
        return test::prop::pass();
      },
      [](const SmallCase& c) { return c.describe(); });
}

// One source, six one-hop receivers, one edge each, with loss rates on
// both sides of the skip/threshold cut-off. A tight deadline (between the
// on-time and the recovered latency) makes receiver r's miss frequency
// edge r's deviation frequency, p; a loose one makes it the loss
// frequency, p^2 with recovery and p without. The delivered-count
// histogram checks that the edges' outcomes are independent.
TEST(SparseMonteCarlo, PerEdgeDeviationAndLossFrequencies) {
  const double losses[] = {0.001, 0.05, 0.12, 0.18, 0.5, 0.9};
  graph::Graph g;
  g.addNodes(7);
  std::vector<graph::NodeId> receivers;
  for (graph::NodeId r = 1; r <= 6; ++r) {
    g.addEdge(0, r, util::milliseconds(10));
    receivers.push_back(r);
  }
  const graph::DisseminationGraph dg = allEdges(g, 1);
  const std::vector<double> lossRates(std::begin(losses), std::end(losses));
  const std::vector<util::SimTime> latencies(6, util::milliseconds(10));
  constexpr int kSamples = 100'000;
  DeliveryWorkspace ws;
  util::Rng rng(2017);
  for (const bool recovery : {true, false}) {
    for (const bool tight : {true, false}) {
      DeliveryModelParams params;
      params.recoveryEnabled = recovery;
      const std::vector<util::SimTime> deadlines(
          6, util::milliseconds(tight ? 15 : 100));
      std::vector<int> counts(6);
      std::vector<int> histogram(7);
      onTimeCountsMCGroup(dg, receivers, deadlines, lossRates, latencies,
                          params, kSamples, rng, ws, counts, histogram);
      const oracle::ExactDelivery exact = oracle::exactGroupDelivery(
          dg, receivers, deadlines, lossRates, latencies, params);
      for (std::size_t r = 0; r < 6; ++r) {
        const double p = losses[r];
        const double missing = tight || !recovery ? p : p * p;
        const double miss =
            1.0 - static_cast<double>(counts[r]) / kSamples;
        EXPECT_TRUE(withinFourSigma(miss, missing, kSamples))
            << "p " << p << " recovery " << recovery << " tight " << tight
            << ": miss frequency " << miss << ", expected " << missing;
      }
      for (std::size_t k = 0; k < histogram.size(); ++k) {
        EXPECT_TRUE(withinFourSigma(
            static_cast<double>(histogram[k]) / kSamples, exact.delivered[k],
            kSamples))
            << "delivered to exactly " << k << ": recovery " << recovery
            << " tight " << tight;
      }
    }
  }
}

// Loss-free edges never deviate and dark (p = 1) edges are lost in the
// clean run: neither takes a draw, so a call over nothing else leaves the
// generator where it was.
TEST(SparseMonteCarlo, DrawFreeEdgesLeaveTheRngUntouched) {
  graph::Graph g;
  g.addNodes(4);
  g.addEdge(0, 1, util::milliseconds(10));
  g.addEdge(0, 2, util::milliseconds(10));
  g.addEdge(1, 3, util::milliseconds(10));
  g.addEdge(2, 3, util::milliseconds(10));
  const graph::DisseminationGraph dg = allEdges(g, 3);
  const std::vector<double> losses{0.0, 1.0, 0.0, 1.0};
  const std::vector<util::SimTime> latencies = g.baseLatencies();
  const std::vector<graph::NodeId> receivers{1, 2, 3};
  const std::vector<util::SimTime> deadlines(3, util::milliseconds(65));
  DeliveryWorkspace ws;
  for (const bool recovery : {true, false}) {
    DeliveryModelParams params;
    params.recoveryEnabled = recovery;
    util::Rng rng(99);
    EXPECT_EQ(
        onTimeProbabilityMC(dg, losses, latencies, params, 1000, rng, ws),
        1.0);
    std::vector<int> counts(3);
    std::vector<int> histogram(4);
    onTimeCountsMCGroup(dg, receivers, deadlines, losses, latencies, params,
                        1000, rng, ws, counts, histogram);
    EXPECT_EQ(counts, (std::vector<int>{1000, 0, 1000}));
    EXPECT_EQ(histogram, (std::vector<int>{0, 0, 1000, 0}));
    util::Rng untouched(99);
    EXPECT_EQ(rng.next(), untouched.next()) << "recovery " << recovery;
  }
}

// Every flagged sample is scored, whatever its place in the 64-sample
// deviation-flag words. The first hop of a chain is lost in practically
// every sample (p = 1 - 2^-40, one threshold draw per sample, recovery
// off) and every receiver lies behind it, so at every sample count a
// single sample skipped in the verdict pass would show up as on time.
// Chains of 3 and of 70 member edges cover the two-word keys with the
// pattern memo and the wide keys without it (70 receivers: past the
// verdict mask too).
TEST(SparseMonteCarlo, EveryDeviatingSampleIsScored) {
  DeliveryModelParams params;
  params.recoveryEnabled = false;
  DeliveryWorkspace ws;
  util::Rng rng(64);
  for (const std::size_t hops : {std::size_t{3}, std::size_t{70}}) {
    graph::Graph g;
    g.addNodes(hops + 1);
    std::vector<graph::NodeId> receivers;
    for (std::size_t i = 0; i < hops; ++i) {
      g.addEdge(static_cast<graph::NodeId>(i),
                static_cast<graph::NodeId>(i + 1), util::milliseconds(1));
      receivers.push_back(static_cast<graph::NodeId>(i + 1));
    }
    const graph::DisseminationGraph dg =
        allEdges(g, static_cast<graph::NodeId>(hops));
    std::vector<double> losses(hops, 0.0);
    losses[0] = 1.0 - 0x1.0p-40;
    const std::vector<util::SimTime> latencies = g.baseLatencies();
    const std::vector<util::SimTime> deadlines(hops, util::seconds(1));
    params.deadline = util::seconds(1);
    for (int samples = 1; samples <= 130; ++samples) {
      EXPECT_EQ(
          onTimeProbabilityMC(dg, losses, latencies, params, samples, rng, ws),
          0.0)
          << "hops " << hops << " samples " << samples;
      std::vector<int> counts(hops, -1);
      std::vector<int> histogram(hops + 1, -1);
      onTimeCountsMCGroup(dg, receivers, deadlines, losses, latencies, params,
                          samples, rng, ws, counts, histogram);
      EXPECT_EQ(counts, std::vector<int>(hops, 0))
          << "hops " << hops << " samples " << samples;
      EXPECT_EQ(histogram[0], samples)
          << "hops " << hops << " samples " << samples;
    }
  }
}

// Past 64 member edges a sample's key spans more than two words and the
// pattern memo is off; past 64 receivers verdicts are tallied straight
// off each Dijkstra run. Both against the dense oracle, on a 100-node
// scale-free overlay flooded in full.
TEST(SparseMonteCarlo, WideGraphsMatchDenseOracle) {
  const trace::Topology topology =
      topogen::generateTopology("scale-free:n=100,m=2,seed=11");
  const graph::Graph& g = topology.graph();
  const graph::NodeId source = 0;
  const graph::NodeId destination = 57;
  graph::DisseminationGraph dg(g, source, destination);
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) dg.addEdge(e);
  ASSERT_GT(dg.edges().size(), 64u);

  constexpr int kSamples = 1000;
  constexpr int kReferenceSamples = 4000;
  DeliveryWorkspace ws;
  int mixed = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    util::Rng setup(seed * 104729);
    std::vector<double> losses(g.edgeCount());
    std::vector<util::SimTime> latencies = g.baseLatencies();
    for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
      const double u = setup.uniform();
      losses[e] = u < 0.05   ? 1.0
                  : u < 0.15 ? 0.0
                  : u < 0.45 ? setup.uniform(0.0, 0.9)
                             : 1e-4;
      if (setup.bernoulli(0.1)) latencies[e] *= 3;
    }
    // Deadlines with room for one recovery beyond the clean arrival.
    const auto deadlineFor = [&](graph::NodeId n) {
      util::SimTime at = 0;
      playback::groupCleanArrivals(dg, latencies, {&n, 1}, ws, {&at, 1});
      return at == util::kNever ? util::milliseconds(50)
                                : at + at / 2 + util::milliseconds(10);
    };
    for (const bool recovery : {true, false}) {
      DeliveryModelParams params;
      params.recoveryEnabled = recovery;
      params.deadline = deadlineFor(destination);

      util::Rng refRng(seed);
      const double reference = oracle::onTimeProbabilityMCReference(
          dg, losses, latencies, params, kReferenceSamples, refRng);
      util::Rng rng(seed);
      const double got =
          onTimeProbabilityMC(dg, losses, latencies, params, kSamples, rng, ws);
      EXPECT_TRUE(
          oracle::mcEstimatesAgree(got, kSamples, reference, kReferenceSamples))
          << "unicast seed " << seed << " recovery " << recovery << ": "
          << got << " vs reference " << reference;
      if (reference > 0.0 && reference < 1.0) ++mixed;

      for (const std::size_t receiverCount : {10u, 70u}) {
        std::vector<graph::NodeId> receivers;
        for (graph::NodeId n = 1; receivers.size() < receiverCount; ++n)
          receivers.push_back(n);
        std::vector<util::SimTime> deadlines(receiverCount);
        for (std::size_t r = 0; r < receiverCount; ++r)
          deadlines[r] = deadlineFor(receivers[r]);
        std::vector<int> refCounts(receiverCount);
        std::vector<int> refHistogram(receiverCount + 1);
        util::Rng groupRefRng(seed);
        oracle::onTimeCountsMCGroupReference(
            dg, receivers, deadlines, losses, latencies, params,
            kReferenceSamples, groupRefRng, refCounts, refHistogram);
        std::vector<int> counts(receiverCount);
        std::vector<int> histogram(receiverCount + 1);
        util::Rng groupRng(seed);
        onTimeCountsMCGroup(dg, receivers, deadlines, losses, latencies,
                            params, kSamples, groupRng, ws, counts,
                            histogram);
        if (std::count(refHistogram.begin(), refHistogram.end(), 0) + 1 <
            static_cast<std::ptrdiff_t>(refHistogram.size()))
          ++mixed;
        const auto agree = [&](int got, int ref) {
          return oracle::mcEstimatesAgree(
              static_cast<double>(got) / kSamples, kSamples,
              static_cast<double>(ref) / kReferenceSamples,
              kReferenceSamples);
        };
        for (std::size_t r = 0; r < receiverCount; ++r) {
          EXPECT_TRUE(agree(counts[r], refCounts[r]))
              << "seed " << seed << " recovery " << recovery << " receivers "
              << receiverCount << " receiver " << r;
        }
        for (std::size_t k = 0; k <= receiverCount; ++k) {
          EXPECT_TRUE(agree(histogram[k], refHistogram[k]))
              << "seed " << seed << " recovery " << recovery << " receivers "
              << receiverCount << " bin " << k;
        }
      }
    }
  }
  // 6 unicast and 12 group calls: most must see more than one verdict.
  EXPECT_GT(mixed, 9) << "too few calls with a non-trivial verdict";
}

}  // namespace
}  // namespace dg::playback
