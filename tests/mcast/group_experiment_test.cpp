// Group experiment runners: bit-identical results and byte-identical
// telemetry exports at any thread count, packed == in-memory blocked
// run, and per-group window semantics.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "mcast/experiment.hpp"
#include "mcast/report.hpp"
#include "store/writer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace dg::mcast {
namespace {

trace::Trace experimentTrace(const graph::Graph& overlay) {
  trace::GeneratorParams params;
  params.seed = 11;
  params.duration = util::hours(4);
  params.nodeEventsPerDay = 40.0;
  params.linkEventsPerDay = 40.0;
  return trace::generateSyntheticTrace(overlay, params).trace;
}

GroupExperimentConfig baseConfig(const trace::Topology& topology) {
  GroupExperimentConfig config;
  Group a;
  a.source = topology.at("NYC");
  a.receivers = {topology.at("SJC"), topology.at("LAX")};
  Group b;
  b.source = topology.at("FRA");
  b.receivers = {topology.at("SEA"), topology.at("ATL"), topology.at("CHI")};
  config.groups = {a, b};
  config.schemes = {GroupSchemeKind::kStaticTrees,
                    GroupSchemeKind::kDynamicMesh,
                    GroupSchemeKind::kTargetedReceivers};
  config.playback.base.mcSamples = 100;
  return config;
}

void expectResultsIdentical(const GroupExperimentResult& a,
                            const GroupExperimentResult& b) {
  ASSERT_EQ(a.perGroup.size(), b.perGroup.size());
  for (std::size_t i = 0; i < a.perGroup.size(); ++i) {
    const GroupSchemeResult& x = a.perGroup[i];
    const GroupSchemeResult& y = b.perGroup[i];
    EXPECT_EQ(x.unavailabilityAll, y.unavailabilityAll) << "job " << i;
    EXPECT_EQ(x.unavailabilityK, y.unavailabilityK) << "job " << i;
    EXPECT_EQ(x.unavailableAllSeconds, y.unavailableAllSeconds) << "job " << i;
    EXPECT_EQ(x.problematicIntervals, y.problematicIntervals) << "job " << i;
    EXPECT_EQ(x.averageCost, y.averageCost) << "job " << i;
    ASSERT_EQ(x.receivers.size(), y.receivers.size());
    for (std::size_t r = 0; r < x.receivers.size(); ++r) {
      EXPECT_EQ(x.receivers[r].unavailability, y.receivers[r].unavailability);
      EXPECT_EQ(x.receivers[r].averageLatencyUs,
                y.receivers[r].averageLatencyUs);
    }
  }
  ASSERT_EQ(a.summary.size(), b.summary.size());
  for (std::size_t s = 0; s < a.summary.size(); ++s) {
    EXPECT_EQ(a.summary[s].unavailabilityAll, b.summary[s].unavailabilityAll);
    EXPECT_EQ(a.summary[s].averageCost, b.summary[s].averageCost);
    EXPECT_EQ(a.summary[s].worstReceiverUnavailability,
              b.summary[s].worstReceiverUnavailability);
  }
}

TEST(GroupExperiment, ThreadCountDoesNotChangeResultsOrTelemetry) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());
  GroupExperimentConfig config = baseConfig(topology);

  config.threads = 1;
  telemetry::Telemetry t1;
  const GroupExperimentResult r1 =
      runGroupExperiment(topology.graph(), tr, config, &t1);

  config.threads = 4;
  telemetry::Telemetry t4;
  const GroupExperimentResult r4 =
      runGroupExperiment(topology.graph(), tr, config, &t4);

  expectResultsIdentical(r1, r4);
  EXPECT_EQ(telemetry::toPrometheus(t1.metrics),
            telemetry::toPrometheus(t4.metrics));
  EXPECT_GT(t1.metrics.counterValue("dg_mcast_jobs_total", {}), 0.0);
}

TEST(GroupExperiment, PackedRunnerMatchesInMemoryBlockedRun) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "mcast_experiment.dgtrace")
          .string();
  store::WriterOptions options;
  options.chunkIntervals = 64;
  store::packTrace(tr, path, options);

  GroupExperimentConfig config = baseConfig(topology);
  config.threads = 4;
  telemetry::Telemetry packedT1;
  const GroupExperimentResult packed =
      runPackedGroupExperiment(topology.graph(), path, config, &packedT1);

  // The packed runner's contract: bit-identical to an in-memory run with
  // chunk-aligned accumulation blocks and cursor-fed decisions.
  GroupExperimentConfig blocked = config;
  blocked.playback.base.conditionCursor = true;
  blocked.playback.base.accumBlockIntervals = 64;
  const GroupExperimentResult inMemory =
      runGroupExperiment(topology.graph(), tr, blocked);
  expectResultsIdentical(packed, inMemory);

  // And thread invariance with byte-identical telemetry on the packed
  // path itself.
  config.threads = 1;
  telemetry::Telemetry packedSeq;
  const GroupExperimentResult packedAt1 =
      runPackedGroupExperiment(topology.graph(), path, config, &packedSeq);
  expectResultsIdentical(packed, packedAt1);
  EXPECT_EQ(telemetry::toPrometheus(packedSeq.metrics),
            telemetry::toPrometheus(packedT1.metrics));
}

TEST(GroupExperiment, PackedRunnerTraceEventsMatchInMemoryRun) {
  // targeted-receivers records its sub-schemes' classifications. Each
  // job is decided once, so the chunked event stream carries no extra
  // classification at a chunk start.
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());
  const std::string path = (std::filesystem::path(::testing::TempDir()) /
                            "mcast_events.dgtrace")
                               .string();
  store::WriterOptions options;
  options.chunkIntervals = 64;
  store::packTrace(tr, path, options);

  GroupExperimentConfig config = baseConfig(topology);
  config.schemes = {GroupSchemeKind::kTargetedReceivers};
  config.threads = 4;
  telemetry::Telemetry packedTelemetry;
  runPackedGroupExperiment(topology.graph(), path, config, &packedTelemetry);

  config.playback.base.accumBlockIntervals = 64;
  telemetry::Telemetry inMemoryTelemetry;
  runGroupExperiment(topology.graph(), tr, config, &inMemoryTelemetry);

  EXPECT_GT(inMemoryTelemetry.trace
                .eventsOfKind(telemetry::TraceEventKind::ProblemClassified)
                .size(),
            0u);
  EXPECT_EQ(telemetry::toJson(packedTelemetry.trace),
            telemetry::toJson(inMemoryTelemetry.trace));
}

TEST(GroupReport, SummaryColumnsStaySeparatedAtFullUnavailability) {
  // A receiver that always misses prints 1000000.0ppm, the widest value
  // the worst-receiver column can hold; it must not run into the
  // problematic-interval count beside it.
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());
  GroupExperimentResult result;
  GroupSchemeSummary summary;
  summary.scheme = GroupSchemeKind::kStaticTrees;
  summary.unavailabilityAll = 1.0;
  summary.unavailabilityK = 1.0;
  summary.unavailableAllSeconds = 35970.0;
  summary.problematicIntervals = 3597;
  summary.worstReceiverUnavailability = 1.0;
  summary.averageCost = 12.5;
  result.summary = {summary};

  const std::string table = renderGroupSummaryTable(result, tr.duration(), 1);
  const std::size_t row = table.find("static-trees");
  ASSERT_NE(row, std::string::npos) << table;
  std::istringstream cells(table.substr(row, table.find('\n', row) - row));
  std::vector<std::string> columns;
  for (std::string cell; cells >> cell;) columns.push_back(cell);
  EXPECT_EQ(columns, (std::vector<std::string>{
                         "static-trees", "1000000.0ppm", "1000000.0ppm",
                         "35970.0", "3597", "1000000.0ppm", "12.50"}))
      << table;
}

TEST(GroupExperiment, FullCoverWindowMatchesUnwindowedRun) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());

  GroupExperimentConfig config = baseConfig(topology);
  config.threads = 2;
  config.playback.base.conditionCursor = true;
  const GroupExperimentResult whole =
      runGroupExperiment(topology.graph(), tr, config);

  config.groupWindows = {GroupWindow{}, GroupWindow{}};
  const GroupExperimentResult windowed =
      runGroupExperiment(topology.graph(), tr, config);
  expectResultsIdentical(whole, windowed);
}

TEST(GroupExperiment, NarrowWindowScoresOnlyItsIntervals) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());
  const std::size_t intervals = tr.intervalCount();

  GroupExperimentConfig config = baseConfig(topology);
  config.threads = 2;
  config.schemes = {GroupSchemeKind::kStaticMesh};
  const GroupExperimentResult whole =
      runGroupExperiment(topology.graph(), tr, config);

  config.groupWindows = {GroupWindow{0, intervals / 4},
                         GroupWindow{intervals / 4, intervals / 2}};
  const GroupExperimentResult windowed =
      runGroupExperiment(topology.graph(), tr, config);
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    EXPECT_LE(windowed.at(g, 0, 1).unavailableAllSeconds,
              whole.at(g, 0, 1).unavailableAllSeconds + 1e-9);
    EXPECT_LE(windowed.at(g, 0, 1).problematicIntervals,
              whole.at(g, 0, 1).problematicIntervals);
  }
}

// Both group runners report the stage breakdown: Monte-Carlo intervals
// land in "mc", deterministic ones in "memo", and nothing is timed unless
// asked for.
TEST(GroupExperiment, StageTimingsCoverMonteCarloIntervals) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());
  GroupExperimentConfig config = baseConfig(topology);
  config.threads = 2;

  const GroupExperimentResult untimed =
      runGroupExperiment(topology.graph(), tr, config);
  EXPECT_EQ(untimed.stages.mcNs, 0u);
  EXPECT_EQ(untimed.stages.memoNs, 0u);
  EXPECT_EQ(untimed.stages.mergeNs, 0u);

  config.playback.base.collectStageTimings = true;
  telemetry::Telemetry telemetry;
  const GroupExperimentResult timed =
      runGroupExperiment(topology.graph(), tr, config, &telemetry);
  double mcIntervals = 0.0;
  for (const auto& [key, value] : telemetry.metrics.samples()) {
    if (key.find("dg_mcast_mc_intervals_total") != std::string::npos)
      mcIntervals += value;
  }
  ASSERT_GT(mcIntervals, 0.0);
  EXPECT_GT(timed.stages.mcNs, 0u);
  EXPECT_GT(timed.stages.memoNs, 0u);
  expectResultsIdentical(untimed, timed);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "mcast_stages.dgtrace")
          .string();
  store::WriterOptions options;
  options.chunkIntervals = 64;
  store::packTrace(tr, path, options);
  const GroupExperimentResult packed =
      runPackedGroupExperiment(topology.graph(), path, config);
  EXPECT_GT(packed.stages.mcNs, 0u);
  EXPECT_GT(packed.stages.memoNs, 0u);
  EXPECT_GT(packed.stages.mergeNs, 0u);
  std::filesystem::remove(path);
}

TEST(GroupExperiment, RejectsMalformedConfigs) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::Trace tr = experimentTrace(topology.graph());

  GroupExperimentConfig empty;
  EXPECT_THROW(runGroupExperiment(topology.graph(), tr, empty),
               std::invalid_argument);

  GroupExperimentConfig config = baseConfig(topology);
  config.groupWindows = {GroupWindow{}};  // not parallel to groups
  EXPECT_THROW(runGroupExperiment(topology.graph(), tr, config),
               std::invalid_argument);

  config.groupWindows = {GroupWindow{10, 10}, GroupWindow{}};  // empty window
  EXPECT_THROW(runGroupExperiment(topology.graph(), tr, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace dg::mcast
