// The group Monte-Carlo evaluator against its frozen per-sample oracle,
// oracle::onTimeCountsMCGroupReference (tests/oracle/): per-receiver
// on-time counts and the delivered histogram agree within sampling
// tolerance (the sparse sampler draws a different stream of the same
// distribution), one receiver is bit-identical to the unicast evaluator,
// and the oracle is itself anchored to the first-principles unicast
// reference for one receiver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "oracle/delivery_oracle.hpp"
#include "playback/delivery_model.hpp"
#include "topogen/topogen.hpp"
#include "util/rng.hpp"

namespace dg {
namespace {

using playback::DeliveryModelParams;
using playback::DeliveryWorkspace;

/// Member edges in breadth-first discovery order from the source, so a
/// prefix of any length is a graph rooted at the source.
std::vector<graph::EdgeId> bfsEdgeOrder(const graph::Graph& g,
                                        graph::NodeId source) {
  std::vector<graph::EdgeId> order;
  std::vector<char> seen(g.nodeCount(), 0);
  std::vector<graph::NodeId> queue{source};
  seen[source] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const graph::EdgeId e : g.outEdges(queue[head])) {
      order.push_back(e);
      const graph::NodeId v = g.edge(e).to;
      if (seen[v] == 0) {
        seen[v] = 1;
        queue.push_back(v);
      }
    }
  }
  return order;
}

/// Receivers in breadth-first order (the nodes the prefixes reach first).
std::vector<graph::NodeId> bfsNodes(const graph::Graph& g,
                                    const std::vector<graph::EdgeId>& order,
                                    graph::NodeId source, std::size_t count) {
  std::vector<graph::NodeId> nodes;
  std::vector<char> seen(g.nodeCount(), 0);
  seen[source] = 1;
  for (const graph::EdgeId e : order) {
    const graph::NodeId v = g.edge(e).to;
    if (seen[v] != 0) continue;
    seen[v] = 1;
    nodes.push_back(v);
    if (nodes.size() == count) break;
  }
  return nodes;
}

/// Per-bin agreement of two count vectors over `samplesA` and `samplesB`
/// samples, within oracle::mcEstimatesAgree.
testing::AssertionResult countsAgree(const std::vector<int>& a, int samplesA,
                                     const std::vector<int>& b,
                                     int samplesB) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double fa = static_cast<double>(a[i]) / samplesA;
    const double fb = static_cast<double>(b[i]) / samplesB;
    if (!oracle::mcEstimatesAgree(fa, samplesA, fb, samplesB))
      return testing::AssertionFailure()
             << "bin " << i << ": " << fa << " vs reference " << fb;
  }
  return testing::AssertionSuccess();
}

// The group evaluator against the frozen oracle within sampling tolerance
// of a 2000-sample oracle run, in per-receiver counts and histogram. Runs
// of 257 and 1000 samples are compared on their own; the short runs of 1,
// 31, 33, 63, 64 and 65 samples, on both sides of the 64-sample
// deviation-flag words, are summed and their 257-sample totals compared
// (thousands of bins are checked, and a single short run's binomial tails
// are too far from normal for the 4-sigma bound), and each must have a
// histogram that sums to its sample count.
// Inputs span member counts across the 32-edge key-word split, the
// 64-edge memo limit and beyond (wider keys, no memo); 1, 8 and 65
// receivers (65 exceeds the verdict mask); dark (p = 1) and loss-free
// edges; recovery on and off; receivers late, tight and loose in the
// clean run. One receiver must also equal the unicast evaluator bit for
// bit, final RNG state included.
TEST(GroupDeliveryEquivalence, AllKernelsMatchReference) {
  const trace::Topology topology =
      topogen::generateTopology("scale-free:n=80,m=2,seed=5");
  const graph::Graph& g = topology.graph();
  const graph::NodeId source = 0;
  const std::vector<graph::EdgeId> order = bfsEdgeOrder(g, source);
  ASSERT_GE(order.size(), 90u);

  const std::size_t memberCounts[] = {8, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                                      90};
  const std::size_t receiverCounts[] = {1, 8, 65};
  const int sampleCounts[] = {1, 31, 33, 63, 64, 65, 257, 1000};
  constexpr int kPooledBelow = 257;  // runs shorter than this are summed
  constexpr int kReferenceSamples = 2000;
  DeliveryWorkspace ws;  // one workspace across every call
  std::vector<util::SimTime> clean;
  // Calls whose samples disagree with one another (two or more non-empty
  // histogram bins): the inputs must exercise more than the clean verdict.
  int mixedCalls = 0;
  int calls = 0;
  for (const std::uint64_t seed : {3ULL, 4ULL}) {
    util::Rng setup(seed * 7919 + 1);
    std::vector<double> losses(g.edgeCount());
    std::vector<util::SimTime> latencies = g.baseLatencies();
    for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
      const double u = setup.uniform();
      losses[e] = u < 0.04   ? 1.0
                  : u < 0.2  ? 0.0
                  : u < 0.55 ? setup.uniform(0.0, 0.6)
                             : 1e-4;
      if (setup.bernoulli(0.1)) latencies[e] *= 3;
    }
    for (const std::size_t memberCount : memberCounts) {
      graph::DisseminationGraph dg(g, source, g.edge(order[0]).to);
      for (std::size_t i = 0; i < memberCount; ++i) dg.addEdge(order[i]);
      for (const std::size_t receiverCount : receiverCounts) {
        const std::vector<graph::NodeId> receivers =
            bfsNodes(g, order, source, receiverCount);
        ASSERT_EQ(receivers.size(), receiverCount);
        clean.assign(receiverCount, 0);
        playback::groupCleanArrivals(dg, latencies, receivers, ws, clean);
        std::vector<util::SimTime> deadlines(receiverCount);
        for (std::size_t r = 0; r < receiverCount; ++r) {
          const util::SimTime at = clean[r] == util::kNever
                                       ? util::milliseconds(40)
                                       : clean[r];
          deadlines[r] = r % 3 == 0   ? at + at   // loose: room to recover
                         : r % 3 == 1 ? at        // tight: no slack at all
                                      : at - 1;   // late in the clean run
        }
        DeliveryModelParams unicast;
        unicast.deadline = deadlines[0];
        graph::DisseminationGraph toReceiver(g, source, receivers[0]);
        for (std::size_t i = 0; i < memberCount; ++i)
          toReceiver.addEdge(order[i]);
        for (const bool recovery : {true, false}) {
          DeliveryModelParams params;
          params.recoveryEnabled = recovery;
          unicast.recoveryEnabled = recovery;
          std::vector<int> refCounts(receiverCount);
          std::vector<int> refHistogram(receiverCount + 1);
          util::Rng refRng(seed);
          oracle::onTimeCountsMCGroupReference(
              dg, receivers, deadlines, losses, latencies, params,
              kReferenceSamples, refRng, refCounts, refHistogram);
          ++calls;
          if (std::count(refHistogram.begin(), refHistogram.end(), 0) + 1 <
              static_cast<std::ptrdiff_t>(refHistogram.size()))
            ++mixedCalls;
          // With one receiver the oracle must equal the unicast
          // first-principles reference.
          if (receiverCount == 1) {
            util::Rng unicastRng(seed);
            EXPECT_EQ(static_cast<double>(refCounts[0]) / kReferenceSamples,
                      oracle::onTimeProbabilityMCReference(
                          toReceiver, losses, latencies, unicast,
                          kReferenceSamples, unicastRng))
                << "oracle vs unicast reference, members " << memberCount;
          }
          std::vector<int> pooledCounts(receiverCount);
          std::vector<int> pooledHistogram(receiverCount + 1);
          int pooledSamples = 0;
          for (const int samples : sampleCounts) {
            std::vector<int> counts(receiverCount, -1);
            std::vector<int> histogram(receiverCount + 1, -1);
            util::Rng rng(seed * 1000 + static_cast<std::uint64_t>(samples));
            playback::onTimeCountsMCGroup(dg, receivers, deadlines, losses,
                                          latencies, params, samples, rng, ws,
                                          counts, histogram);
            const auto where = [&] {
              return testing::Message()
                     << "seed " << seed << " members " << memberCount
                     << " receivers " << receiverCount << " recovery "
                     << recovery << " samples " << samples;
            };
            if (samples >= kPooledBelow) {
              EXPECT_TRUE(
                  countsAgree(counts, samples, refCounts, kReferenceSamples))
                  << "counts: " << where();
              EXPECT_TRUE(countsAgree(histogram, samples, refHistogram,
                                      kReferenceSamples))
                  << "histogram: " << where();
            } else {
              for (std::size_t r = 0; r < receiverCount; ++r)
                pooledCounts[r] += counts[r];
              for (std::size_t k = 0; k <= receiverCount; ++k)
                pooledHistogram[k] += histogram[k];
              pooledSamples += samples;
            }
            EXPECT_EQ(std::accumulate(histogram.begin(), histogram.end(), 0),
                      samples)
                << where();
            if (receiverCount == 1) {
              util::Rng unicastRng(seed * 1000 +
                                   static_cast<std::uint64_t>(samples));
              EXPECT_EQ(playback::onTimeProbabilityMC(
                            toReceiver, losses, latencies, unicast, samples,
                            unicastRng, ws),
                        static_cast<double>(counts[0]) / samples)
                  << "unicast: " << where();
              EXPECT_EQ(unicastRng.next(), rng.next())
                  << "unicast RNG state: " << where();
            }
          }
          const auto pooledWhere = [&] {
            return testing::Message()
                   << "seed " << seed << " members " << memberCount
                   << " receivers " << receiverCount << " recovery "
                   << recovery << " short runs summed (" << pooledSamples
                   << " samples)";
          };
          EXPECT_TRUE(countsAgree(pooledCounts, pooledSamples, refCounts,
                                  kReferenceSamples))
              << "counts: " << pooledWhere();
          EXPECT_TRUE(countsAgree(pooledHistogram, pooledSamples,
                                  refHistogram, kReferenceSamples))
              << "histogram: " << pooledWhere();
        }
      }
    }
  }
  EXPECT_GT(mixedCalls, calls / 2);
}

}  // namespace
}  // namespace dg
