#include "mcast/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "store/reader.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace dg::mcast {

namespace {

/// Per-scheme aggregation shared by both runners.
void summarizeSchemes(GroupExperimentResult& result,
                      const GroupExperimentConfig& config) {
  const std::size_t schemeCount = config.schemes.size();
  std::vector<GroupSchemeSummary> summaries(schemeCount);
  for (std::size_t s = 0; s < schemeCount; ++s) {
    GroupSchemeSummary& summary = summaries[s];
    summary.scheme = config.schemes[s];
    util::OnlineStats unavailAll;
    util::OnlineStats unavailK;
    util::OnlineStats cost;
    for (std::size_t g = 0; g < config.groups.size(); ++g) {
      const GroupSchemeResult& r = result.at(g, s, schemeCount);
      unavailAll.add(r.unavailabilityAll);
      unavailK.add(r.unavailabilityK);
      cost.add(r.averageCost);
      summary.unavailableAllSeconds += r.unavailableAllSeconds;
      summary.problematicIntervals += r.problematicIntervals;
      for (const GroupReceiverResult& receiver : r.receivers) {
        summary.worstReceiverUnavailability = std::max(
            summary.worstReceiverUnavailability, receiver.unavailability);
      }
    }
    summary.unavailabilityAll = unavailAll.mean();
    summary.unavailabilityK = unavailK.mean();
    summary.averageCost = cost.mean();
  }
  result.summary = std::move(summaries);
}

/// Runs the sweep in chunks of `chunkIntervals` (0 = one chunk) and
/// collects it: experiment metrics after the sequential telemetry merge,
/// then per-scheme summaries.
GroupExperimentResult sweepGroups(const GroupPlaybackEngine& engine,
                                  const GroupExperimentConfig& config,
                                  std::size_t chunkIntervals,
                                  telemetry::Telemetry* telemetry,
                                  const char* done) {
  playback::SweepOutcome<GroupSchemeResult> outcome = playback::runSweep(
      engine, config.groups, config.schemes, config.schemeParams,
      playback::resolveWindows(config.groupWindows, config.groups.size(),
                               engine.trace().intervalCount(), "group"),
      chunkIntervals, config.threads, telemetry);
  GroupExperimentResult result;
  result.perGroup = std::move(outcome.results);
  if (telemetry != nullptr) {
    playback::recordSweepMetrics(*telemetry, "dg_mcast", result.perGroup,
                                 &GroupSchemeResult::unavailableAllSeconds);
  }
  result.stages = outcome.stages;
  summarizeSchemes(result, config);
  DG_LOG(Info) << done << ": " << result.perGroup.size() << " runs, "
               << outcome.threads << " threads";
  return result;
}

}  // namespace

// dgcheck: worker
GroupExperimentResult runGroupExperiment(const graph::Graph& overlay,
                                         const trace::Trace& trace,
                                         const GroupExperimentConfig& config,
                                         telemetry::Telemetry* telemetry) {
  if (config.groups.empty() || config.schemes.empty())
    throw std::invalid_argument("runGroupExperiment: empty groups or schemes");
  const GroupPlaybackEngine engine(overlay, trace, config.playback);
  return sweepGroups(engine, config, 0, telemetry,
                     "group experiment complete");
}

// dgcheck: worker
GroupExperimentResult runPackedGroupExperiment(
    const graph::Graph& overlay, const std::string& packedPath,
    const GroupExperimentConfig& config, telemetry::Telemetry* telemetry) {
  if (config.groups.empty() || config.schemes.empty())
    throw std::invalid_argument(
        "runPackedGroupExperiment: empty groups or schemes");
  store::PackedTraceReader reader = store::PackedTraceReader::open(packedPath);
  if (reader.info().intervalCount == 0)
    throw std::invalid_argument("runPackedGroupExperiment: empty trace");
  const trace::Trace trace = reader.readAll();

  // The chunk is the accumulation block, exactly as in the unicast packed
  // runner: the per-job ascending-chunk fold then reproduces a
  // single-threaded blocked run bit for bit.
  GroupPlaybackParams playback = config.playback;
  playback.base.accumBlockIntervals = reader.info().chunkIntervals;
  const GroupPlaybackEngine engine(overlay, trace, playback);
  return sweepGroups(engine, config, reader.info().chunkIntervals, telemetry,
                     "packed group experiment complete");
}

}  // namespace dg::mcast
