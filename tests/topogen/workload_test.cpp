// Open-loop fleet workloads: arrival-process statistics (Poisson and
// bounded Pareto), exact text record/replay, window mapping onto trace
// interval geometry, and bit-identity of a windowed fleet sweep across
// both experiment runners and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "playback/experiment.hpp"
#include "store/writer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "test_support.hpp"
#include "topogen/topogen.hpp"
#include "topogen/workload.hpp"
#include "trace/topology.hpp"
#include "util/rng.hpp"

namespace dg::topogen {
namespace {

std::vector<double> interarrivalSeconds(const FlowWorkload& w) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < w.flows.size(); ++i) {
    gaps.push_back(static_cast<double>(w.flows[i].start -
                                       w.flows[i - 1].start) /
                   1e6);
  }
  return gaps;
}

TEST(WorkloadArrivals, PoissonInterarrivalsMatchExponential) {
  const trace::Topology topo = trace::Topology::ltn12();
  WorkloadParams params;
  params.flowCount = 4000;
  params.arrival = ArrivalProcess::kPoisson;
  params.meanInterarrivalSeconds = 1.0;
  params.seed = 11;
  const FlowWorkload w = generateWorkload(topo, params);
  ASSERT_EQ(w.flows.size(), params.flowCount);

  std::vector<double> gaps = interarrivalSeconds(w);
  double sum = 0.0;
  for (const double g : gaps) {
    EXPECT_GE(g, 0.0);
    sum += g;
  }
  const double mean = sum / static_cast<double>(gaps.size());
  // Mean of 3999 Exp(1) draws: stderr ~ 1/sqrt(3999) ~ 0.016; 6 sigma.
  EXPECT_NEAR(mean, 1.0, 0.1);

  // KS-style check: the empirical CDF of the gaps must hug the Exp(1)
  // CDF. The one-sided KS bound at n ~ 4000 and alpha ~ 1e-6 is ~0.042;
  // we allow 0.05 at a handful of probe points.
  std::sort(gaps.begin(), gaps.end());
  for (const double x : {0.1, 0.25, 0.5, 1.0, 2.0, 3.0}) {
    const double empirical =
        static_cast<double>(std::lower_bound(gaps.begin(), gaps.end(), x) -
                            gaps.begin()) /
        static_cast<double>(gaps.size());
    const double analytic = 1.0 - std::exp(-x);
    EXPECT_NEAR(empirical, analytic, 0.05) << "at x=" << x;
  }
}

TEST(WorkloadArrivals, BoundedParetoStaysInRangeWithCorrectTailMass) {
  const double alpha = 1.5;
  const double lo = 0.05;
  const double hi = 3600.0;
  util::Rng rng(77);
  std::vector<double> draws;
  draws.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double x = boundedPareto(rng, alpha, lo, hi);
    ASSERT_GE(x, lo);
    ASSERT_LE(x, hi);
    draws.push_back(x);
  }
  // Bounded-Pareto CCDF: P(X > x) = (lo^a x^-a - lo^a hi^-a) /
  //                                 (1 - (lo/hi)^a).
  const double loA = std::pow(lo, alpha);
  const double norm = 1.0 - std::pow(lo / hi, alpha);
  for (const double x : {0.1, 0.5, 2.0, 10.0}) {
    const double analytic =
        (loA * std::pow(x, -alpha) - loA * std::pow(hi, -alpha)) / norm;
    const double empirical =
        static_cast<double>(std::count_if(
            draws.begin(), draws.end(),
            [x](const double d) { return d > x; })) /
        static_cast<double>(draws.size());
    EXPECT_NEAR(empirical, analytic, 0.02) << "tail at x=" << x;
  }
}

TEST(WorkloadArrivals, ParetoWorkloadIsHeavierTailedThanPoisson) {
  const trace::Topology topo = trace::Topology::ltn12();
  WorkloadParams params;
  params.flowCount = 3000;
  params.seed = 5;
  params.arrival = ArrivalProcess::kBoundedPareto;
  params.paretoAlpha = 1.1;
  params.paretoMinSeconds = 0.05;
  params.paretoMaxSeconds = 600.0;
  const FlowWorkload w = generateWorkload(topo, params);
  const std::vector<double> gaps = interarrivalSeconds(w);
  double maxGap = 0.0;
  double sum = 0.0;
  for (const double g : gaps) {
    EXPECT_GE(g, params.paretoMinSeconds - 1e-6);
    EXPECT_LE(g, params.paretoMaxSeconds + 1e-6);
    maxGap = std::max(maxGap, g);
    sum += g;
  }
  // Heavy tail: the largest burst gap dwarfs the mean gap.
  EXPECT_GT(maxGap, 20.0 * sum / static_cast<double>(gaps.size()));
}

TEST(WorkloadGeneration, DeterministicValidatedAndEndpointsDistinct) {
  const trace::Topology topo = trace::Topology::ltn12();
  WorkloadParams params;
  params.flowCount = 500;
  params.seed = 42;
  const FlowWorkload a = generateWorkload(topo, params);
  const FlowWorkload b = generateWorkload(topo, params);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].flow, b.flows[i].flow);
    EXPECT_EQ(a.flows[i].start, b.flows[i].start);
    EXPECT_EQ(a.flows[i].stop, b.flows[i].stop);
    EXPECT_NE(a.flows[i].flow.source, a.flows[i].flow.destination);
    EXPECT_GT(a.flows[i].stop, a.flows[i].start);
  }
  params.seed = 43;
  const FlowWorkload c = generateWorkload(topo, params);
  bool anyDiffer = false;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    anyDiffer = anyDiffer || !(a.flows[i].flow == c.flows[i].flow) ||
                a.flows[i].start != c.flows[i].start;
  }
  EXPECT_TRUE(anyDiffer);

  WorkloadParams bad = params;
  bad.flowCount = 0;
  EXPECT_THROW(generateWorkload(topo, bad), std::invalid_argument);
  bad = params;
  bad.meanInterarrivalSeconds = 0.0;
  EXPECT_THROW(generateWorkload(topo, bad), std::invalid_argument);
  bad = params;
  bad.paretoMinSeconds = 10.0;
  bad.paretoMaxSeconds = 1.0;
  bad.arrival = ArrivalProcess::kBoundedPareto;
  EXPECT_THROW(generateWorkload(topo, bad), std::invalid_argument);

  trace::Topology lonely;
  lonely.addSite({"ONE", 0.0, 0.0});
  EXPECT_THROW(generateWorkload(lonely, params), std::invalid_argument);
}

TEST(WorkloadGeneration, GravityExponentSkewsTowardHighDegreeSites) {
  // On a hub-heavy scale-free overlay, a strongly super-linear gravity
  // exponent must concentrate endpoints on the hubs relative to uniform.
  const trace::Topology topo = generateTopology("scale-free:n=60,seed=3");
  const graph::Graph& g = topo.graph();
  graph::NodeId hub = 0;
  for (graph::NodeId v = 0; v < g.nodeCount(); ++v) {
    if (g.outDegree(v) > g.outDegree(hub)) hub = v;
  }
  WorkloadParams params;
  params.flowCount = 4000;
  params.seed = 8;
  auto hubShare = [&](double exponent) {
    params.gravityExponent = exponent;
    const FlowWorkload w = generateWorkload(topo, params);
    std::size_t hits = 0;
    for (const WorkloadFlow& f : w.flows) {
      hits += (f.flow.source == hub) + (f.flow.destination == hub);
    }
    return static_cast<double>(hits) /
           static_cast<double>(2 * w.flows.size());
  };
  const double uniform = hubShare(0.0);
  const double skewed = hubShare(2.0);
  EXPECT_NEAR(uniform, 1.0 / 60.0, 0.01);
  EXPECT_GT(skewed, 3.0 * uniform);
}

TEST(WorkloadSpec, ParsesAndRejects) {
  const WorkloadParams p =
      parseWorkloadSpec("pareto:flows=500,alpha=1.25,min=0.1,max=60,"
                        "duration=120,seed=9,gravity=1.5");
  EXPECT_EQ(p.arrival, ArrivalProcess::kBoundedPareto);
  EXPECT_EQ(p.flowCount, 500u);
  EXPECT_DOUBLE_EQ(p.paretoAlpha, 1.25);
  EXPECT_DOUBLE_EQ(p.paretoMinSeconds, 0.1);
  EXPECT_DOUBLE_EQ(p.paretoMaxSeconds, 60.0);
  EXPECT_DOUBLE_EQ(p.meanDurationSeconds, 120.0);
  EXPECT_EQ(p.seed, 9u);
  EXPECT_DOUBLE_EQ(p.gravityExponent, 1.5);

  EXPECT_EQ(parseWorkloadSpec("poisson:mean=0.5").arrival,
            ArrivalProcess::kPoisson);
  EXPECT_THROW(parseWorkloadSpec("uniform:flows=10"), std::invalid_argument);
  EXPECT_THROW(parseWorkloadSpec("poisson:bogus=1"), std::invalid_argument);
  EXPECT_THROW(parseWorkloadSpec("poisson:flows=0"), std::invalid_argument);
  EXPECT_THROW(parseWorkloadSpec("poisson:receivers-min=2"),
               std::invalid_argument);
}

TEST(WorkloadSerialization, TextAndFileRoundTripExactly) {
  const trace::Topology topo = trace::Topology::ltn12();
  WorkloadParams params;
  params.flowCount = 200;
  params.seed = 17;
  const FlowWorkload w = generateWorkload(topo, params);

  const std::string text = workloadToString(w, topo);
  const FlowWorkload back = workloadFromString(text, topo);
  ASSERT_EQ(back.flows.size(), w.flows.size());
  for (std::size_t i = 0; i < w.flows.size(); ++i) {
    EXPECT_EQ(back.flows[i].flow, w.flows[i].flow) << i;
    EXPECT_EQ(back.flows[i].start, w.flows[i].start) << i;
    EXPECT_EQ(back.flows[i].stop, w.flows[i].stop) << i;
  }
  // Re-serializing the parse is byte-identical: the format is exact.
  EXPECT_EQ(workloadToString(back, topo), text);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "workload_rt.txt")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "# comment line survives the parser\n" << text;
  }
  const FlowWorkload fromFile = workloadFromFile(path, topo);
  EXPECT_EQ(workloadToString(fromFile, topo), text);
  std::filesystem::remove(path);

  EXPECT_THROW(workloadFromString("workload v1\nflow NYC NYC 0 1\n", topo),
               std::invalid_argument);
  EXPECT_THROW(workloadFromString("workload v1\nflow NYC NOPE 0 1\n", topo),
               std::invalid_argument);
  EXPECT_THROW(workloadFromString("workload v1\nflow NYC CHI 5 5\n", topo),
               std::invalid_argument);
  EXPECT_THROW(workloadFromString("workload v2\n", topo),
               std::invalid_argument);
}

TEST(WorkloadWindows, MapsSpansOntoIntervalGeometry) {
  const util::SimTime interval = util::seconds(10);
  auto window = [&](util::SimTime start, util::SimTime stop,
                    std::size_t count) {
    WorkloadFlow f;
    f.start = start;
    f.stop = stop;
    return flowIntervalWindow(f, interval, count);
  };
  // Exact alignment and mid-interval starts/stops.
  EXPECT_EQ(window(0, util::seconds(10), 100),
            (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_EQ(window(util::seconds(5), util::seconds(25), 100),
            (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(window(util::seconds(20), util::seconds(30), 100),
            (std::pair<std::size_t, std::size_t>{2, 3}));
  // Stop past the trace end clamps; the window never goes empty.
  EXPECT_EQ(window(util::seconds(990), util::seconds(5000), 100),
            (std::pair<std::size_t, std::size_t>{99, 100}));
  // Start past the trace end still yields the last interval.
  EXPECT_EQ(window(util::seconds(2000), util::seconds(3000), 100),
            (std::pair<std::size_t, std::size_t>{99, 100}));
  // Sub-interval flow widens to its single covering interval.
  EXPECT_EQ(window(util::seconds(12), util::seconds(13), 100),
            (std::pair<std::size_t, std::size_t>{1, 2}));
}

/// Same randomized ltn12 trace construction as the chunked-sweep suite.
trace::Trace randomTrace(const graph::Graph& g, std::size_t intervals,
                         std::uint64_t seed) {
  trace::Trace tr =
      dg::test::healthyTrace(g, intervals, util::seconds(10), 1e-4);
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

TEST(WorkloadReplay, WindowedSweepIsBitIdenticalAcrossRunnersAndThreads) {
  const trace::Topology topo = trace::Topology::ltn12();
  const trace::Trace tr = randomTrace(topo.graph(), 96, 909090);

  // An open-loop fleet whose spans land inside the 960 s trace.
  WorkloadParams params;
  params.flowCount = 12;
  params.seed = 21;
  params.meanInterarrivalSeconds = 40.0;
  params.meanDurationSeconds = 200.0;
  params.minDurationSeconds = 30.0;
  const FlowWorkload workload = generateWorkload(topo, params);

  // Record and replay through the text path first: the replayed fleet
  // must drive the experiment exactly like the generated one.
  const FlowWorkload replayed =
      workloadFromString(workloadToString(workload, topo), topo);

  // Replay is exact, so the replayed fleet maps to the very same flows
  // and windows the generated one does.
  ASSERT_EQ(replayed.flows.size(), workload.flows.size());
  for (std::size_t i = 0; i < workload.flows.size(); ++i) {
    EXPECT_EQ(replayed.flows[i].flow, workload.flows[i].flow);
    EXPECT_EQ(replayed.flows[i].start, workload.flows[i].start);
    EXPECT_EQ(replayed.flows[i].stop, workload.flows[i].stop);
  }

  playback::ExperimentConfig config;
  config.playback.mcSamples = 96;
  config.playback.accumBlockIntervals = 32;  // match the chunk size below
  for (const WorkloadFlow& f : replayed.flows) {
    config.flows.push_back(f.flow);
    const auto [first, last] =
        flowIntervalWindow(f, tr.intervalLength(), tr.intervalCount());
    config.flowWindows.push_back({first, last});
  }

  config.threads = 1;
  const auto inMemory = playback::runExperiment(topo.graph(), tr, config);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "workload_fleet.dgtrace")
          .string();
  store::WriterOptions options;
  options.chunkIntervals = 32;
  store::packTrace(tr, path, options);

  telemetry::Telemetry tel1;
  config.threads = 1;
  const auto packed1 =
      playback::runPackedExperiment(topo.graph(), path, config, &tel1);
  telemetry::Telemetry tel4;
  config.threads = 4;
  const auto packed4 =
      playback::runPackedExperiment(topo.graph(), path, config, &tel4);
  std::filesystem::remove(path);

  ASSERT_EQ(packed1.perFlow.size(), inMemory.perFlow.size());
  ASSERT_EQ(packed4.perFlow.size(), inMemory.perFlow.size());
  for (std::size_t i = 0; i < inMemory.perFlow.size(); ++i) {
    // Windowed in-memory blocked run == packed chunked run == packed run
    // at a different thread count, all exactly.
    EXPECT_EQ(inMemory.perFlow[i].unavailability,
              packed1.perFlow[i].unavailability);
    EXPECT_EQ(inMemory.perFlow[i].averageCost, packed1.perFlow[i].averageCost);
    EXPECT_EQ(inMemory.perFlow[i].problematicIntervals,
              packed1.perFlow[i].problematicIntervals);
    EXPECT_EQ(packed1.perFlow[i].unavailability,
              packed4.perFlow[i].unavailability);
    EXPECT_EQ(packed1.perFlow[i].averageCost, packed4.perFlow[i].averageCost);
    EXPECT_EQ(packed1.perFlow[i].unavailableSeconds,
              packed4.perFlow[i].unavailableSeconds);
  }
  // Telemetry exports: byte-identical across thread counts.
  EXPECT_EQ(telemetry::toPrometheus(tel1.metrics),
            telemetry::toPrometheus(tel4.metrics));
  EXPECT_EQ(telemetry::toJson(tel1.metrics),
            telemetry::toJson(tel4.metrics));
  EXPECT_EQ(telemetry::toJson(tel1.trace), telemetry::toJson(tel4.trace));
}

TEST(WorkloadWindows, RunnerRejectsMalformedWindowLists) {
  const trace::Topology topo = trace::Topology::ltn12();
  const trace::Trace tr =
      dg::test::healthyTrace(topo.graph(), 10, util::seconds(10), 1e-4);
  playback::ExperimentConfig config;
  config.flows = playback::transcontinentalFlows(topo);
  config.flows.resize(2);
  config.playback.mcSamples = 16;

  config.flowWindows = {{0, 5}};  // length 1 != 2 flows
  EXPECT_THROW(playback::runExperiment(topo.graph(), tr, config),
               std::invalid_argument);

  config.flowWindows = {{0, 5}, {7, 7}};  // empty window
  EXPECT_THROW(playback::runExperiment(topo.graph(), tr, config),
               std::invalid_argument);

  config.flowWindows = {{0, 5}, {12, 20}};  // clamps to [10, 10) = empty
  EXPECT_THROW(playback::runExperiment(topo.graph(), tr, config),
               std::invalid_argument);
}

TEST(GroupWorkload, DeterministicWithValidatedReceiverSets) {
  const trace::Topology topo = trace::Topology::ltn12();
  GroupWorkloadParams params;
  params.base.seed = 21;
  params.base.flowCount = 300;
  params.receiversMin = 2;
  params.receiversMax = 5;

  const GroupWorkload first = generateGroupWorkload(topo, params);
  const GroupWorkload second = generateGroupWorkload(topo, params);
  ASSERT_EQ(first.groups.size(), 300u);
  EXPECT_EQ(groupWorkloadToString(first, topo),
            groupWorkloadToString(second, topo));

  for (const WorkloadGroup& g : first.groups) {
    EXPECT_LT(g.source, topo.siteCount());
    EXPECT_GE(g.receivers.size(), params.receiversMin);
    EXPECT_LE(g.receivers.size(), params.receiversMax);
    EXPECT_LT(g.start, g.stop);
    std::vector<graph::NodeId> sorted = g.receivers;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end())
        << "duplicate receiver";
    for (const graph::NodeId r : g.receivers) {
      EXPECT_LT(r, topo.siteCount());
      EXPECT_NE(r, g.source);
    }
  }
}

TEST(GroupWorkload, ArrivalClockMatchesFlowWorkloadForEqualBaseParams) {
  // Arrivals and durations draw from their own streams, so the group
  // fleet's spans line up with the (one-receiver) flow fleet's exactly.
  const trace::Topology topo = trace::Topology::ltn12();
  WorkloadParams base;
  base.seed = 77;
  base.flowCount = 100;
  GroupWorkloadParams params;
  params.base = base;

  const FlowWorkload flows = generateWorkload(topo, base);
  const GroupWorkload groups = generateGroupWorkload(topo, params);
  ASSERT_EQ(flows.flows.size(), groups.groups.size());
  for (std::size_t i = 0; i < flows.flows.size(); ++i) {
    EXPECT_EQ(flows.flows[i].start, groups.groups[i].start) << i;
    EXPECT_EQ(flows.flows[i].stop, groups.groups[i].stop) << i;
  }
}

TEST(GroupWorkload, SpecParsesReceiverBoundsAndRejectsGarbage) {
  const GroupWorkloadParams params = parseGroupWorkloadSpec(
      "poisson:flows=200,seed=7,receivers-min=3,receivers-max=8");
  EXPECT_EQ(params.base.flowCount, 200u);
  EXPECT_EQ(params.base.seed, 7u);
  EXPECT_EQ(params.receiversMin, 3u);
  EXPECT_EQ(params.receiversMax, 8u);

  // receivers-max defaults to at least receivers-min.
  const GroupWorkloadParams wide =
      parseGroupWorkloadSpec("poisson:flows=10,receivers-min=6");
  EXPECT_EQ(wide.receiversMin, 6u);
  EXPECT_GE(wide.receiversMax, 6u);

  EXPECT_THROW(parseGroupWorkloadSpec("poisson:receivers-min=0"),
               std::invalid_argument);
  EXPECT_THROW(
      parseGroupWorkloadSpec("poisson:receivers-min=4,receivers-max=2"),
      std::invalid_argument);
  EXPECT_THROW(parseGroupWorkloadSpec("poisson:bogus=1"),
               std::invalid_argument);
}

TEST(GroupWorkload, TextAndFileRoundTripExactly) {
  const trace::Topology topo = trace::Topology::ltn12();
  GroupWorkloadParams params;
  params.base.seed = 3;
  params.base.flowCount = 50;
  params.receiversMin = 2;
  params.receiversMax = 6;
  const GroupWorkload workload = generateGroupWorkload(topo, params);

  const std::string text = groupWorkloadToString(workload, topo);
  EXPECT_EQ(text.rfind("group-workload v1", 0), 0u);
  const GroupWorkload reparsed = groupWorkloadFromString(text, topo);
  ASSERT_EQ(reparsed.groups.size(), workload.groups.size());
  for (std::size_t i = 0; i < workload.groups.size(); ++i) {
    EXPECT_EQ(reparsed.groups[i].source, workload.groups[i].source);
    EXPECT_EQ(reparsed.groups[i].receivers, workload.groups[i].receivers);
    EXPECT_EQ(reparsed.groups[i].start, workload.groups[i].start);
    EXPECT_EQ(reparsed.groups[i].stop, workload.groups[i].stop);
  }
  EXPECT_EQ(groupWorkloadToString(reparsed, topo), text);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "groups.workload")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const GroupWorkload fromFile = groupWorkloadFromFile(path, topo);
  EXPECT_EQ(groupWorkloadToString(fromFile, topo), text);
  std::filesystem::remove(path);

  EXPECT_THROW(groupWorkloadFromString("bogus header\n", topo),
               std::invalid_argument);
  EXPECT_THROW(groupWorkloadFromString(
                   "group-workload v1\ngroup NYC NYC 0 10\n", topo),
               std::invalid_argument);
}

TEST(GroupWorkload, IntervalWindowMatchesFlowArithmetic) {
  WorkloadGroup group;
  group.source = 0;
  group.receivers = {1, 2};
  group.start = util::seconds(25);
  group.stop = util::seconds(95);

  WorkloadFlow flow;
  flow.flow = {0, 1};
  flow.start = group.start;
  flow.stop = group.stop;

  const auto fromGroup =
      groupIntervalWindow(group, util::seconds(10), 100);
  const auto fromFlow = flowIntervalWindow(flow, util::seconds(10), 100);
  EXPECT_EQ(fromGroup, fromFlow);
  EXPECT_EQ(fromGroup.first, 2u);
  EXPECT_EQ(fromGroup.second, 10u);
}

}  // namespace
}  // namespace dg::topogen
