// Group playback engine semantics, anchored by the subsystem's central
// contract: a single-receiver group is bit-identical to the unicast
// playback of the scheme's unicastEquivalent(), for every scheme pair,
// on a trace that exercises both the deterministic and the Monte-Carlo
// evaluation paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "mcast/experiment.hpp"
#include "mcast/playback.hpp"
#include "playback/experiment.hpp"
#include "playback/playback.hpp"
#include "store/writer.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace dg::mcast {
namespace {

/// A 6-hour ltn12 trace dense enough in loss/latency events that every
/// scheme hits Monte-Carlo intervals, graph switches, and clean spans.
trace::SyntheticTrace lossyTrace(const graph::Graph& overlay) {
  trace::GeneratorParams params;
  params.seed = 11;
  params.duration = util::hours(6);
  params.nodeEventsPerDay = 40.0;
  params.linkEventsPerDay = 40.0;
  return trace::generateSyntheticTrace(overlay, params);
}

double mcastMcIntervals(const telemetry::Telemetry& telemetry) {
  double total = 0.0;
  for (const auto& [key, value] : telemetry.metrics.samples()) {
    if (key.find("dg_mcast_mc_intervals_total") != std::string::npos)
      total += value;
  }
  return total;
}

/// Bitwise equality, not tolerance: the group engine must reduce to the
/// unicast engine exactly when the receiver set is a singleton.
void expectBitIdentical(const GroupSchemeResult& grouped,
                        const playback::FlowSchemeResult& unicast,
                        const std::string& label) {
  EXPECT_EQ(grouped.unavailabilityAll, unicast.unavailability) << label;
  EXPECT_EQ(grouped.unavailabilityK, unicast.unavailability) << label;
  EXPECT_EQ(grouped.unavailableAllSeconds, unicast.unavailableSeconds)
      << label;
  EXPECT_EQ(grouped.problematicIntervals, unicast.problematicIntervals)
      << label;
  EXPECT_EQ(grouped.averageCost, unicast.averageCost) << label;
  ASSERT_EQ(grouped.receivers.size(), 1u) << label;
  EXPECT_EQ(grouped.receivers[0].unavailability, unicast.unavailability)
      << label;
  EXPECT_EQ(grouped.receivers[0].averageLatencyUs, unicast.averageLatencyUs)
      << label;
  ASSERT_EQ(grouped.problems.size(), unicast.problems.size()) << label;
  for (std::size_t i = 0; i < grouped.problems.size(); ++i) {
    EXPECT_EQ(grouped.problems[i].interval, unicast.problems[i].interval)
        << label;
    EXPECT_EQ(grouped.problems[i].missProbability,
              unicast.problems[i].missProbability)
        << label;
  }
}

// Pinned through three inputs that share the replay core and the sweep
// scheduler: whole-trace run(); chunk partials starting past interval 0
// (decisions from interval 0, accumulation blocks, ascending fold); and the
// packed experiment runners over one packed trace.
TEST(GroupPlayback, SingleReceiverGroupBitIdenticalToUnicastForEveryScheme) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());
  const std::size_t intervals = synth.trace.intervalCount();
  const std::size_t block = 360;  // one hour; six blocks over the trace

  playback::PlaybackParams unicastParams;
  unicastParams.mcSamples = 200;
  GroupPlaybackParams groupParams;
  groupParams.base = unicastParams;

  const routing::Flow flow{topology.at("NYC"), topology.at("SJC")};
  Group group;
  group.source = flow.source;
  group.receivers = {flow.destination};

  {  // Whole-trace run().
    const playback::PlaybackEngine unicastEngine(topology.graph(),
                                                 synth.trace, unicastParams);
    const GroupPlaybackEngine groupEngine(topology.graph(), synth.trace,
                                          groupParams);
    bool sawMonteCarlo = false;
    for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
      const playback::FlowSchemeResult unicast = unicastEngine.run(
          flow, unicastEquivalent(kind), routing::SchemeParams{});
      telemetry::Telemetry telemetry;
      const GroupSchemeResult grouped = groupEngine.run(
          group, kind, routing::SchemeParams{}, &telemetry);
      if (mcastMcIntervals(telemetry) > 0) sawMonteCarlo = true;
      expectBitIdentical(grouped, unicast,
                         std::string("run ") +
                             std::string(groupSchemeName(kind)));
    }
    EXPECT_TRUE(sawMonteCarlo)
        << "trace never exercised the Monte-Carlo path; the bit-identity "
           "claim was only tested on deterministic intervals";
  }

  {  // Chunk partials over [block, intervals), folded and finalized.
    playback::PlaybackParams blockedParams = unicastParams;
    blockedParams.accumBlockIntervals = block;
    GroupPlaybackParams blockedGroupParams;
    blockedGroupParams.base = blockedParams;
    const playback::PlaybackEngine unicastEngine(topology.graph(),
                                                 synth.trace, blockedParams);
    const GroupPlaybackEngine groupEngine(topology.graph(), synth.trace,
                                          blockedGroupParams);
    bool sawMonteCarlo = false;
    for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
      const routing::SchemeKind unicastKind = unicastEquivalent(kind);
      playback::RunPartial unicastTotal;
      GroupRunPartial groupTotal;
      telemetry::Telemetry telemetry;
      for (std::size_t first = block; first < intervals; first += block) {
        const std::size_t last = std::min(first + block, intervals);
        unicastTotal.merge(unicastEngine.runChunkPartial(
            flow, unicastKind, routing::SchemeParams{}, first, last, nullptr,
            nullptr));
        groupTotal.merge(groupEngine.runChunkPartial(
            group, kind, routing::SchemeParams{}, first, last, nullptr,
            nullptr, &telemetry));
      }
      if (mcastMcIntervals(telemetry) > 0) sawMonteCarlo = true;
      expectBitIdentical(
          groupEngine.finalizePartial(group, kind, std::move(groupTotal)),
          unicastEngine.finalizePartial(flow, unicastKind,
                                        std::move(unicastTotal)),
          std::string("chunks ") + std::string(groupSchemeName(kind)));
    }
    EXPECT_TRUE(sawMonteCarlo)
        << "chunk partials never exercised the Monte-Carlo path";
  }

  {  // The packed experiment runners over the same packed trace.
    const std::string path =
        (std::filesystem::path(::testing::TempDir()) /
         "single_receiver_identity.dgtrace")
            .string();
    store::WriterOptions options;
    options.chunkIntervals = block;
    store::packTrace(synth.trace, path, options);

    playback::ExperimentConfig unicastConfig;
    unicastConfig.flows = {flow};
    unicastConfig.schemes.clear();
    for (const GroupSchemeKind kind : allGroupSchemeKinds())
      unicastConfig.schemes.push_back(unicastEquivalent(kind));
    unicastConfig.playback = unicastParams;
    unicastConfig.threads = 2;
    GroupExperimentConfig groupConfig;
    groupConfig.groups = {group};
    groupConfig.playback = groupParams;
    groupConfig.threads = 2;

    const playback::ExperimentResult unicast =
        playback::runPackedExperiment(topology.graph(), path, unicastConfig);
    telemetry::Telemetry telemetry;
    const GroupExperimentResult grouped = runPackedGroupExperiment(
        topology.graph(), path, groupConfig, &telemetry);
    EXPECT_GT(mcastMcIntervals(telemetry), 0.0)
        << "packed sweep never exercised the Monte-Carlo path";
    const std::size_t schemeCount = groupConfig.schemes.size();
    ASSERT_EQ(unicastConfig.schemes.size(), schemeCount);
    for (std::size_t s = 0; s < schemeCount; ++s) {
      expectBitIdentical(grouped.at(0, s, schemeCount),
                         unicast.at(0, s, schemeCount),
                         std::string("packed ") +
                             std::string(groupSchemeName(
                                 groupConfig.schemes[s])));
    }
  }
}

TEST(GroupPlayback, MultiReceiverInvariantsHold) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());

  GroupPlaybackParams params;
  params.base.mcSamples = 200;
  const GroupPlaybackEngine engine(topology.graph(), synth.trace, params);

  Group group;
  group.source = topology.at("NYC");
  group.receivers = {topology.at("SJC"), topology.at("LAX"),
                     topology.at("DEN")};

  for (const GroupSchemeKind kind :
       {GroupSchemeKind::kDynamicMesh, GroupSchemeKind::kStaticTrees}) {
    const GroupSchemeResult result =
        engine.run(group, kind, routing::SchemeParams{});
    ASSERT_EQ(result.receivers.size(), 3u);
    // Delivered-to-all is at least as hard as any single receiver.
    for (const GroupReceiverResult& receiver : result.receivers) {
      EXPECT_GE(result.unavailabilityAll, receiver.unavailability - 1e-12)
          << groupSchemeName(kind);
    }
    // deliveredK defaults to "all receivers".
    EXPECT_EQ(result.unavailabilityK, result.unavailabilityAll);
    EXPECT_GT(result.averageCost, 0.0);
  }
}

TEST(GroupPlayback, DeliveredKRelaxesDeliveredAll) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());

  GroupPlaybackParams all;
  all.base.mcSamples = 200;
  GroupPlaybackParams kOne = all;
  kOne.deliveredK = 1;

  const GroupPlaybackEngine engineAll(topology.graph(), synth.trace, all);
  const GroupPlaybackEngine engineK(topology.graph(), synth.trace, kOne);

  Group group;
  group.source = topology.at("NYC");
  group.receivers = {topology.at("SJC"), topology.at("LAX")};

  const GroupSchemeResult rAll = engineAll.run(
      group, GroupSchemeKind::kStaticMesh, routing::SchemeParams{});
  const GroupSchemeResult rK = engineK.run(
      group, GroupSchemeKind::kStaticMesh, routing::SchemeParams{});
  // Reaching at least one receiver is never harder than reaching all;
  // the all-receivers line itself is unaffected by k.
  EXPECT_LE(rK.unavailabilityK, rK.unavailabilityAll + 1e-12);
  EXPECT_EQ(rK.unavailabilityAll, rAll.unavailabilityAll);
}

TEST(GroupPlayback, PerReceiverDeadlinesAreHonored) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());

  GroupPlaybackParams params;
  params.base.mcSamples = 100;
  const GroupPlaybackEngine engine(topology.graph(), synth.trace, params);

  Group group;
  group.source = topology.at("NYC");
  group.receivers = {topology.at("SJC"), topology.at("FRA")};
  // An absurdly tight deadline for FRA makes that receiver miss always;
  // SJC keeps the default and stays mostly served.
  group.deadlines = {util::milliseconds(65), util::microseconds(1)};

  const GroupSchemeResult result = engine.run(
      group, GroupSchemeKind::kStaticMesh, routing::SchemeParams{});
  ASSERT_EQ(result.receivers.size(), 2u);
  EXPECT_EQ(result.receivers[1].unavailability, 1.0);
  EXPECT_LT(result.receivers[0].unavailability, 0.5);
  EXPECT_EQ(result.unavailabilityAll, 1.0);
}

TEST(GroupPlayback, ChunkPartialsFoldToBlockedRunExactly) {
  const trace::Topology topology = trace::Topology::ltn12();
  const trace::SyntheticTrace synth = lossyTrace(topology.graph());
  const std::size_t intervals = synth.trace.intervalCount();
  const std::size_t block = 100;

  GroupPlaybackParams params;
  params.base.mcSamples = 200;
  params.base.accumBlockIntervals = block;
  const GroupPlaybackEngine engine(topology.graph(), synth.trace, params);

  Group group;
  group.source = topology.at("NYC");
  group.receivers = {topology.at("SJC"), topology.at("LAX")};

  for (const GroupSchemeKind kind :
       {GroupSchemeKind::kDynamicTrees, GroupSchemeKind::kTargetedReceivers,
        GroupSchemeKind::kGroupFlooding}) {
    const GroupSchemeResult whole =
        engine.run(group, kind, routing::SchemeParams{});

    GroupRunPartial folded;
    for (std::size_t first = 0; first < intervals; first += block) {
      const std::size_t last = std::min(first + block, intervals);
      folded.merge(engine.runChunkPartial(group, kind,
                                          routing::SchemeParams{}, first,
                                          last, nullptr, nullptr));
    }
    const GroupSchemeResult chunked =
        engine.finalizePartial(group, kind, std::move(folded));

    EXPECT_EQ(chunked.unavailabilityAll, whole.unavailabilityAll)
        << groupSchemeName(kind);
    EXPECT_EQ(chunked.unavailabilityK, whole.unavailabilityK)
        << groupSchemeName(kind);
    EXPECT_EQ(chunked.unavailableAllSeconds, whole.unavailableAllSeconds)
        << groupSchemeName(kind);
    EXPECT_EQ(chunked.averageCost, whole.averageCost)
        << groupSchemeName(kind);
    ASSERT_EQ(chunked.receivers.size(), whole.receivers.size());
    for (std::size_t r = 0; r < whole.receivers.size(); ++r) {
      EXPECT_EQ(chunked.receivers[r].unavailability,
                whole.receivers[r].unavailability)
          << groupSchemeName(kind) << " receiver " << r;
      EXPECT_EQ(chunked.receivers[r].averageLatencyUs,
                whole.receivers[r].averageLatencyUs)
          << groupSchemeName(kind) << " receiver " << r;
    }
  }
}

}  // namespace
}  // namespace dg::mcast
