// Golden fleet regression: a pinned 200-node ring topology, a pinned
// 500-flow open-loop workload, and a pinned synthetic trace are swept by
// the chunk-parallel packed runner; the per-scheme summary is compared
// EXACTLY (every double printed at full %.17g precision) against a
// committed fixture. Any change to the generators, the workload mapping,
// the pre-window decision history, or the playback arithmetic shows up
// as a diff.
//
// Thread invariance is asserted in the same run: the summary produced at
// --threads 8 must be byte-identical to --threads 1 before either is
// compared to the fixture.
//
// To regenerate after an intentional behavior change:
//   DG_UPDATE_FLEET_GOLDEN=1 ./test_topogen \
//     --gtest_filter='FleetGolden.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "playback/experiment.hpp"
#include "store/writer.hpp"
#include "topogen/topogen.hpp"
#include "topogen/workload.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace dg::topogen {
namespace {

std::string fixturePath() {
  return std::string(DG_TOPOGEN_FIXTURE_DIR) + "/fleet_golden.txt";
}

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Renders an experiment summary as the exact fixture text.
std::string renderSummary(const playback::ExperimentResult& result) {
  std::ostringstream out;
  out << "fleet-golden v1 ring:n=200,metros=20,seed=4 flows=500\n";
  for (const playback::SchemeSummary& s : result.summary) {
    out << "scheme " << routing::schemeName(s.scheme)
        << " unavailability " << g17(s.unavailability)
        << " unavailable-seconds " << g17(s.unavailableSeconds)
        << " problematic-intervals " << s.problematicIntervals
        << " cost " << g17(s.averageCost)
        << " gap-coverage " << g17(s.gapCoverage) << "\n";
  }
  return out.str();
}

TEST(FleetGolden, PackedSweepMatchesCommittedFixtureAtAnyThreadCount) {
  // Every input below is pinned; nothing may depend on machine, thread
  // count, or wall clock.
  const trace::Topology topo = generateTopology("ring:n=200,metros=20,seed=4");
  ASSERT_EQ(topo.siteCount(), 200u);

  trace::GeneratorParams traceParams;
  traceParams.seed = 1234;
  traceParams.duration = util::seconds(3600);
  traceParams.nodeEventsPerDay = 300.0;
  traceParams.linkEventsPerDay = 60.0;
  const trace::SyntheticTrace synth =
      trace::generateSyntheticTrace(topo.graph(), traceParams);
  ASSERT_EQ(synth.trace.intervalCount(), 360u);

  WorkloadParams workloadParams;
  workloadParams.seed = 99;
  workloadParams.flowCount = 500;
  workloadParams.meanInterarrivalSeconds = 7.0;
  workloadParams.meanDurationSeconds = 300.0;
  workloadParams.minDurationSeconds = 60.0;
  const FlowWorkload workload = generateWorkload(topo, workloadParams);

  playback::ExperimentConfig config;
  config.schemes = {routing::SchemeKind::StaticSinglePath,
                    routing::SchemeKind::StaticTwoDisjoint,
                    routing::SchemeKind::DynamicSinglePath};
  config.gapOptimal = routing::SchemeKind::DynamicSinglePath;
  config.playback.mcSamples = 32;
  // A 20-metro global ring routes antipodal flows the long way around;
  // the paper's 65 ms budget would leave most of the fleet infeasible,
  // so the fleet scores against a correspondingly wider deadline.
  config.playback.delivery.deadline = util::milliseconds(400);
  config.schemeParams.deadline = util::milliseconds(400);
  for (const WorkloadFlow& f : workload.flows) {
    config.flows.push_back(f.flow);
    const auto [first, last] = flowIntervalWindow(
        f, synth.trace.intervalLength(), synth.trace.intervalCount());
    config.flowWindows.push_back({first, last});
  }

  const std::string packed =
      (std::filesystem::path(::testing::TempDir()) / "fleet_golden.dgtrace")
          .string();
  store::WriterOptions options;
  options.chunkIntervals = 128;
  store::packTrace(synth.trace, packed, options);

  config.threads = 8;
  const auto r8 = playback::runPackedExperiment(topo.graph(), packed, config);
  config.threads = 1;
  const auto r1 = playback::runPackedExperiment(topo.graph(), packed, config);
  std::filesystem::remove(packed);

  const std::string summary8 = renderSummary(r8);
  const std::string summary1 = renderSummary(r1);
  ASSERT_EQ(summary1, summary8)
      << "packed fleet sweep is not thread-invariant";

  if (std::getenv("DG_UPDATE_FLEET_GOLDEN") != nullptr) {
    std::ofstream out(fixturePath(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << fixturePath();
    out << summary1;
    GTEST_SKIP() << "fixture regenerated at " << fixturePath();
  }

  std::ifstream in(fixturePath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << fixturePath()
                         << " (run with DG_UPDATE_FLEET_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(summary1, expected.str())
      << "fleet summary drifted from the committed golden fixture; if the "
         "change is intentional, regenerate with DG_UPDATE_FLEET_GOLDEN=1";
}

}  // namespace
}  // namespace dg::topogen
