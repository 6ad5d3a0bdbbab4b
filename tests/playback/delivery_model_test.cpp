#include "playback/delivery_model.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "oracle/delivery_oracle.hpp"
#include "proptest.hpp"
#include "test_support.hpp"

namespace dg::playback {
namespace {

DeliveryModelParams defaults() { return DeliveryModelParams{}; }

TEST(SampleHopLatency, LosslessIsDeterministic) {
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(oracle::sampleHopLatency(0.0, 1000, defaults(), rng), 1000);
  }
}

TEST(SampleHopLatency, TotalLossWithRecoveryIsNever) {
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(oracle::sampleHopLatency(1.0, 1000, defaults(), rng),
              util::kNever);
  }
}

TEST(SampleHopLatency, OutcomeFrequenciesMatchModel) {
  util::Rng rng(42);
  const double p = 0.3;
  const util::SimTime lat = util::milliseconds(10);
  int onTime = 0, recovered = 0, lost = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const auto t = oracle::sampleHopLatency(p, lat, defaults(), rng);
    if (t == lat) {
      ++onTime;
    } else if (t == 3 * lat + defaults().packetInterval) {
      ++recovered;
    } else {
      ASSERT_EQ(t, util::kNever);
      ++lost;
    }
  }
  EXPECT_NEAR(onTime / static_cast<double>(n), 1 - p, 0.01);
  EXPECT_NEAR(recovered / static_cast<double>(n), p * (1 - p), 0.01);
  EXPECT_NEAR(lost / static_cast<double>(n), p * p, 0.005);
}

TEST(SampleHopLatency, NoRecoveryLosesAtRateP) {
  DeliveryModelParams params;
  params.recoveryEnabled = false;
  util::Rng rng(7);
  const double p = 0.25;
  int lost = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (oracle::sampleHopLatency(p, 1000, params, rng) == util::kNever) ++lost;
  }
  EXPECT_NEAR(lost / static_cast<double>(n), p, 0.01);
}

TEST(NearLossless, ThresholdRespected) {
  test::Line line;
  const auto dg = graph::singlePathGraph(line.g, line.s, line.d,
                                         {line.sm, line.md});
  std::vector<double> losses(line.g.edgeCount(), 1e-4);
  EXPECT_TRUE(nearLossless(dg, losses, 1e-3));
  losses[line.md] = 0.01;
  EXPECT_FALSE(nearLossless(dg, losses, 1e-3));
  // Loss on a non-member edge does not matter.
  losses[line.md] = 1e-4;
  losses[line.dm] = 0.9;
  EXPECT_TRUE(nearLossless(dg, losses, 1e-3));
}

TEST(MissNearLossless, DeadlineDecides) {
  test::Line line;  // 20 ms end-to-end
  const auto dg = graph::singlePathGraph(line.g, line.s, line.d,
                                         {line.sm, line.md});
  const std::vector<double> losses(line.g.edgeCount(), 0.0);
  const auto latencies = line.g.baseLatencies();
  DeliveryModelParams params;
  params.deadline = util::milliseconds(25);
  EXPECT_NEAR(missProbabilityNearLossless(dg, losses, latencies, params),
              0.0, 1e-9);
  params.deadline = util::milliseconds(15);
  EXPECT_DOUBLE_EQ(
      missProbabilityNearLossless(dg, losses, latencies, params), 1.0);
}

TEST(MissNearLossless, ResidualLossIsTiny) {
  test::Line line;
  const auto dg = graph::singlePathGraph(line.g, line.s, line.d,
                                         {line.sm, line.md});
  const std::vector<double> losses(line.g.edgeCount(), 1e-4);
  const auto latencies = line.g.baseLatencies();
  const double miss =
      missProbabilityNearLossless(dg, losses, latencies, defaults());
  EXPECT_GT(miss, 0.0);
  EXPECT_LT(miss, 1e-6);
}

TEST(MonteCarloDelivery, LosslessAlwaysOnTime) {
  test::Line line;
  const auto dg = graph::singlePathGraph(line.g, line.s, line.d,
                                         {line.sm, line.md});
  const std::vector<double> losses(line.g.edgeCount(), 0.0);
  const auto latencies = line.g.baseLatencies();
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(onTimeProbabilityMC(dg, losses, latencies, defaults(),
                                       500, rng),
                   1.0);
}

TEST(MonteCarloDelivery, SinglePathMatchesClosedForm) {
  // One hop with loss p and ample deadline: on-time prob = 1 - p^2.
  graph::Graph g;
  const auto s = g.addNode();
  const auto d = g.addNode();
  const auto e = g.addEdge(s, d, util::milliseconds(10));
  const auto dg = graph::singlePathGraph(g, s, d, {e});
  const std::vector<double> losses{0.3};
  const std::vector<util::SimTime> latencies{util::milliseconds(10)};
  util::Rng rng(5);
  const double onTime =
      onTimeProbabilityMC(dg, losses, latencies, defaults(), 200'000, rng);
  EXPECT_NEAR(onTime, 1.0 - 0.09, 0.005);
}

TEST(MonteCarloDelivery, TightDeadlineDisablesRecovery) {
  // One 10 ms hop, deadline 15 ms: recovery (40 ms) cannot help, so
  // on-time prob = 1 - p.
  graph::Graph g;
  const auto s = g.addNode();
  const auto d = g.addNode();
  const auto e = g.addEdge(s, d, util::milliseconds(10));
  const auto dg = graph::singlePathGraph(g, s, d, {e});
  DeliveryModelParams params;
  params.deadline = util::milliseconds(15);
  util::Rng rng(5);
  const std::vector<double> losses{0.3};
  const std::vector<util::SimTime> latencies{util::milliseconds(10)};
  const double onTime =
      onTimeProbabilityMC(dg, losses, latencies, params, 100'000, rng);
  EXPECT_NEAR(onTime, 0.7, 0.01);
}

TEST(MonteCarloDelivery, TwoDisjointPathsMaskSinglePathLoss) {
  test::Diamond d;
  graph::DisseminationGraph dg(d.g, d.s, d.d);
  dg.addPath({d.sa, d.ad});
  dg.addPath({d.sb, d.bd});
  std::vector<double> losses(d.g.edgeCount(), 0.0);
  losses[d.sa] = 1.0;  // first path dead at the first hop
  util::Rng rng(5);
  const double onTime = onTimeProbabilityMC(dg, losses, d.g.baseLatencies(),
                                            defaults(), 2'000, rng);
  EXPECT_DOUBLE_EQ(onTime, 1.0);  // second path delivers deterministically
}

TEST(MonteCarloDelivery, BothPathsLossyComposes) {
  // Both disjoint paths have a single lossy hop (p=0.5, recovery off):
  // miss = 0.25.
  test::Diamond d;
  graph::DisseminationGraph dg(d.g, d.s, d.d);
  dg.addPath({d.sa, d.ad});
  dg.addPath({d.sb, d.bd});
  std::vector<double> losses(d.g.edgeCount(), 0.0);
  losses[d.sa] = 0.5;
  losses[d.sb] = 0.5;
  DeliveryModelParams params;
  params.recoveryEnabled = false;
  util::Rng rng(11);
  const double onTime = onTimeProbabilityMC(dg, losses, d.g.baseLatencies(),
                                            params, 100'000, rng);
  EXPECT_NEAR(onTime, 0.75, 0.01);
}

TEST(MonteCarloDelivery, ZeroSamplesIsZero) {
  test::Line line;
  const auto dg = graph::singlePathGraph(line.g, line.s, line.d,
                                         {line.sm, line.md});
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(
      onTimeProbabilityMC(dg, std::vector<double>(4, 0.0),
                          line.g.baseLatencies(), defaults(), 0, rng),
      0.0);
}

// The playback step counts an interval's cost off the earliest-arrival
// run its evaluator has just left in the workspace (flat 4-ary heap)
// instead of rerunning DisseminationGraph::cost's own Dijkstra
// (std::priority_queue). The two agree only if they settle every node on
// the same predecessor, which ties put to the test: small integer
// latencies, unusable (kNever) edges, multi-edges and unreachable nodes.
struct CostCase {
  struct Link {
    graph::NodeId from = 0;
    graph::NodeId to = 0;
    bool member = true;  ///< in the dissemination graph
    util::SimTime latency = 0;  ///< this interval's, kNever = unusable
  };
  std::size_t nodes = 2;
  std::vector<Link> links;
  graph::NodeId source = 0;

  std::string describe() const {
    std::ostringstream out;
    out << "  nodes=" << nodes << " source=" << source << "\n";
    for (const Link& link : links) {
      out << "  " << link.from << " -> " << link.to
          << (link.member ? " member" : " non-member") << " latency="
          << link.latency << "\n";
    }
    return out.str();
  }
};

CostCase genCostCase(util::Rng& rng) {
  CostCase c;
  c.nodes = static_cast<std::size_t>(2 + rng.uniformInt(std::uint64_t{8}));
  const auto links = 1 + rng.uniformInt(std::uint64_t{4 * c.nodes});
  for (std::uint64_t i = 0; i < links; ++i) {
    CostCase::Link link;
    link.from = static_cast<graph::NodeId>(rng.uniformInt(c.nodes));
    link.to = static_cast<graph::NodeId>(rng.uniformInt(c.nodes - 1));
    if (link.to >= link.from) ++link.to;
    link.member = rng.bernoulli(0.75);
    link.latency = rng.bernoulli(0.1)
                       ? util::kNever
                       : util::milliseconds(rng.uniformInt(std::int64_t{1},
                                                           std::int64_t{3}));
    c.links.push_back(link);
  }
  c.source = static_cast<graph::NodeId>(rng.uniformInt(c.nodes));
  return c;
}

TEST(StepCost, CountedOffTheEvaluatorsRunEqualsDisseminationGraphCost) {
  test::prop::forAll(
      "cost from the evaluator's earliest-arrival run", genCostCase,
      [](const CostCase& c) {
        graph::Graph g;
        g.addNodes(c.nodes);
        std::vector<util::SimTime> latencies;
        for (const CostCase::Link& link : c.links) {
          g.addEdge(link.from, link.to, util::milliseconds(1));
          latencies.push_back(link.latency);
        }
        const graph::NodeId destination =
            c.source == 0 ? graph::NodeId{1} : graph::NodeId{0};
        graph::DisseminationGraph dg(g, c.source, destination);
        for (std::size_t e = 0; e < c.links.size(); ++e) {
          if (c.links[e].member) dg.addEdge(static_cast<graph::EdgeId>(e));
        }
        const int expected = dg.cost(latencies);

        std::vector<graph::NodeId> receivers;
        for (graph::NodeId n = 0; n < c.nodes; ++n) {
          if (n != c.source) receivers.push_back(n);
        }
        const std::vector<util::SimTime> deadlines(receivers.size(),
                                                   util::milliseconds(65));
        const std::vector<double> losses(c.links.size(), 0.0);
        std::vector<double> miss(receivers.size());
        std::vector<util::SimTime> arrival(receivers.size());
        DeliveryWorkspace ws;
        missGroupNearLossless(dg, receivers, deadlines, losses, latencies,
                              defaults(), ws, miss, arrival);
        const int nearLosslessCost = dg.cost(latencies, ws.dist, ws.via);
        groupCleanArrivals(dg, latencies, receivers, ws, arrival);
        const int cleanArrivalsCost = dg.cost(latencies, ws.dist, ws.via);
        if (nearLosslessCost != expected || cleanArrivalsCost != expected) {
          return test::prop::fail(
              "cost " + std::to_string(expected) + ", near-lossless run " +
              std::to_string(nearLosslessCost) + ", clean-arrivals run " +
              std::to_string(cleanArrivalsCost));
        }
        return test::prop::pass();
      },
      [](const CostCase& c) { return c.describe(); });
}

}  // namespace
}  // namespace dg::playback
