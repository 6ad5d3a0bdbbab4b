#include "playback/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "store/reader.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace dg::playback {

namespace {

/// Per-scheme aggregation shared by both runners: flow-mean
/// unavailability/cost, gap coverage against the configured baseline and
/// optimal schemes, and cost relative to static two-disjoint-paths.
void summarizeSchemes(ExperimentResult& result,
                      const ExperimentConfig& config) {
  const std::size_t schemeCount = config.schemes.size();
  double baselineUnavailability = 0.0;
  double optimalUnavailability = 0.0;
  double twoDisjointCost = 0.0;
  bool haveTwoDisjoint = false;
  std::vector<SchemeSummary> summaries(schemeCount);
  for (std::size_t s = 0; s < schemeCount; ++s) {
    SchemeSummary& summary = summaries[s];
    summary.scheme = config.schemes[s];
    util::OnlineStats unavail;
    util::OnlineStats cost;
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const FlowSchemeResult& r = result.at(f, s, schemeCount);
      unavail.add(r.unavailability);
      cost.add(r.averageCost);
      summary.unavailableSeconds += r.unavailableSeconds;
      summary.problematicIntervals += r.problematicIntervals;
    }
    summary.unavailability = unavail.mean();
    summary.averageCost = cost.mean();
    if (summary.scheme == config.gapBaseline)
      baselineUnavailability = summary.unavailability;
    if (summary.scheme == config.gapOptimal)
      optimalUnavailability = summary.unavailability;
    if (summary.scheme == routing::SchemeKind::StaticTwoDisjoint) {
      twoDisjointCost = summary.averageCost;
      haveTwoDisjoint = true;
    }
  }

  const double gap = baselineUnavailability - optimalUnavailability;
  for (SchemeSummary& summary : summaries) {
    summary.gapCoverage =
        gap > 0 ? (baselineUnavailability - summary.unavailability) / gap
                : 0.0;
    summary.costVsTwoDisjoint =
        haveTwoDisjoint && twoDisjointCost > 0
            ? summary.averageCost / twoDisjointCost
            : 0.0;
  }
  result.summary = std::move(summaries);
}

/// Runs the sweep in chunks of `chunkIntervals` (0 = one chunk) and
/// collects it into `result`: experiment metrics after the sequential
/// telemetry merge, stage timings, per-scheme summaries. Returns the
/// worker count used.
unsigned sweepFlows(ExperimentResult& result, const PlaybackEngine& engine,
                    const ExperimentConfig& config, std::size_t chunkIntervals,
                    telemetry::Telemetry* telemetry) {
  SweepOutcome<FlowSchemeResult> sweep = runSweep(
      engine, config.flows, config.schemes, config.schemeParams,
      resolveWindows(config.flowWindows, config.flows.size(),
                     engine.trace().intervalCount(), "flow"),
      chunkIntervals, config.threads, telemetry);
  result.perFlow = std::move(sweep.results);
  if (telemetry != nullptr) {
    recordSweepMetrics(*telemetry, "dg_playback", result.perFlow,
                       &FlowSchemeResult::unavailableSeconds);
  }
  result.stages = sweep.stages;
  summarizeSchemes(result, config);
  return sweep.threads;
}

}  // namespace

// dgcheck: worker
ExperimentResult runExperiment(const graph::Graph& overlay,
                               const trace::Trace& trace,
                               const ExperimentConfig& config,
                               telemetry::Telemetry* telemetry) {
  if (config.flows.empty() || config.schemes.empty())
    throw std::invalid_argument("runExperiment: empty flows or schemes");
  const PlaybackEngine engine(overlay, trace, config.playback);
  ExperimentResult result;
  sweepFlows(result, engine, config, 0, telemetry);
  DG_LOG(Info) << "experiment complete: " << result.perFlow.size()
               << " runs";
  return result;
}

// dgcheck: worker
ExperimentResult runPackedExperiment(const graph::Graph& overlay,
                                     const std::string& packedPath,
                                     const ExperimentConfig& config,
                                     telemetry::Telemetry* telemetry) {
  if (config.flows.empty() || config.schemes.empty())
    throw std::invalid_argument(
        "runPackedExperiment: empty flows or schemes");
  store::PackedTraceReader reader = store::PackedTraceReader::open(packedPath);
  if (reader.info().intervalCount == 0)
    throw std::invalid_argument("runPackedExperiment: empty trace");
  const trace::Trace trace = reader.readAll();
  const std::size_t chunkIntervals = reader.info().chunkIntervals;

  // The chunk is the accumulation block: the per-job fold then reproduces
  // a single-threaded blocked run bit for bit (see
  // PlaybackParams::accumBlockIntervals).
  PlaybackParams playback = config.playback;
  playback.accumBlockIntervals = chunkIntervals;
  const PlaybackEngine engine(overlay, trace, playback);

  ExperimentResult result;
  const bool useMemoCache =
      !config.memoCachePath.empty() && playback.decisionMemo;
  std::uint64_t fingerprint = 0;
  if (useMemoCache) {
    fingerprint = reader.contentFingerprint();
    result.memoCacheLoad = loadMemoCache(config.memoCachePath, fingerprint,
                                         engine.decisionMemoMutable());
    DG_LOG(Info) << "memo cache " << config.memoCachePath << ": "
                 << memoCacheLoadResultName(result.memoCacheLoad);
  }
  const unsigned threads =
      sweepFlows(result, engine, config, chunkIntervals, telemetry);
  if (useMemoCache)
    saveMemoCache(config.memoCachePath, fingerprint, engine.decisionMemo());
  result.memoStats = engine.decisionMemo().stats();
  DG_LOG(Info) << "packed experiment complete: " << result.perFlow.size()
               << " runs, " << reader.info().chunkCount << " chunks, "
               << threads << " threads";
  return result;
}

std::vector<routing::Flow> transcontinentalFlows(
    const trace::Topology& topology) {
  const std::vector<std::pair<const char*, const char*>> pairs = {
      {"NYC", "SJC"}, {"NYC", "LAX"}, {"JHU", "SEA"}, {"JHU", "SJC"},
      {"WAS", "LAX"}, {"WAS", "SEA"}, {"ATL", "SJC"}, {"ATL", "SEA"},
  };
  std::vector<routing::Flow> flows;
  flows.reserve(pairs.size() * 2);
  for (const auto& [east, west] : pairs) {
    const graph::NodeId e = topology.at(east);
    const graph::NodeId w = topology.at(west);
    flows.push_back(routing::Flow{e, w});
    flows.push_back(routing::Flow{w, e});
  }
  return flows;
}

}  // namespace dg::playback
