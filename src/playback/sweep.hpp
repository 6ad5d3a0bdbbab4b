// The sweep scheduler shared by the unicast and group experiment runners.
//
// A sweep scores every (entity, scheme) job of a config, entity-major, in
// two phases. Phase 1 runs one decision task per job: the engine's
// decide() over [0, window end), observed from the window start, records
// the job's SelectionTimeline. Phase 2 splits each job into (job, chunk)
// scoring tasks over fixed chunk geometry -- one chunk spanning the trace
// for the in-memory runners, the container's chunks for the packed ones
// -- clamped to the entity's active window, each scoring its range of the
// shared timeline through the engine's score(). Every runner replays the
// engine's in-memory trace (a packed runner decodes its file once, up
// front), so workers share no decode state. In both phases workers claim
// tasks in index order and record into per-task private telemetry. After
// the join, each job's partials are folded in ascending chunk order, and
// the telemetry is merged job by job: the decision task's, then the job's
// chunk tasks' in chunk order. Results are therefore bit-identical, and
// metric and trace exports byte-identical, at any thread count and chunk
// geometry.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "playback/replay.hpp"
#include "routing/scheme.hpp"
#include "telemetry/telemetry.hpp"
#include "util/wall_clock.hpp"

namespace dg::playback {

/// Half-open interval range a flow (or group) is active over. lastInterval
/// values beyond the trace end are clamped to it.
struct FlowWindow {
  std::size_t firstInterval = 0;
  std::size_t lastInterval = static_cast<std::size_t>(-1);
};

using IntervalRange = std::pair<std::size_t, std::size_t>;

/// Clamps and validates per-entity windows against the trace geometry:
/// one [first, last) pair per entity, {0, intervalCount} for every entity
/// when `windows` is empty. `entity` ("flow", "group") names the config
/// fields in errors. Throws std::invalid_argument on a length mismatch or
/// a window that clamps to empty.
std::vector<IntervalRange> resolveWindows(
    const std::vector<FlowWindow>& windows, std::size_t entityCount,
    std::size_t intervalCount, std::string_view entity);

template <typename Result>
struct SweepOutcome {
  std::vector<Result> results;  ///< one per job, entity-major
  /// The engine's stage totals after the sweep, the partial fold counted
  /// as merge (all zero unless PlaybackParams::collectStageTimings is set).
  StageBreakdown stages;
  unsigned threads = 0;  ///< workers actually used
};

/// Experiment-level series recorded after the sequential telemetry merge:
/// `<prefix>_jobs_total` and the per-job `<prefix>_job_unavailable_seconds`
/// summary over each result's `unavailableSeconds` member.
template <typename Result>
void recordSweepMetrics(telemetry::Telemetry& telemetry,
                        const std::string& prefix,
                        const std::vector<Result>& results,
                        double Result::*unavailableSeconds) {
  telemetry.metrics.counter(prefix + "_jobs_total").inc(results.size());
  telemetry::SummaryMetric& perJob =
      telemetry.metrics.summary(prefix + "_job_unavailable_seconds");
  for (const Result& r : results) perJob.observe(r.*unavailableSeconds);
}

/// Runs the sweep of `engine` (PlaybackEngine or GroupPlaybackEngine)
/// over entities x schemes in chunks of `chunkIntervals` (0 = one chunk
/// spanning the trace) on `threads` workers (0 = hardware concurrency);
/// see the file comment for the contract.
template <typename Engine, typename Entity, typename Kind>
auto runSweep(const Engine& engine, const std::vector<Entity>& entities,
              const std::vector<Kind>& schemes,
              const routing::SchemeParams& schemeParams,
              const std::vector<IntervalRange>& windows,
              std::size_t chunkIntervals, unsigned threads,
              telemetry::Telemetry* telemetry) {
  using Result = decltype(engine.finalizePartial(entities[0], schemes[0],
                                                 std::declval<RunPartial>()));
  const std::size_t intervalCount = engine.trace().intervalCount();
  if (chunkIntervals == 0)
    chunkIntervals = std::max<std::size_t>(intervalCount, 1);
  const std::size_t chunkCount =
      std::max<std::size_t>((intervalCount + chunkIntervals - 1) /
                                chunkIntervals, 1);
  const std::size_t schemeCount = schemes.size();
  const std::size_t jobs = entities.size() * schemeCount;
  const std::size_t tasks = jobs * chunkCount;
  std::vector<SelectionTimeline> timelines(jobs);
  std::vector<RunPartial> partials(tasks);

  SweepOutcome<Result> out;
  out.threads = threads != 0 ? threads : std::thread::hardware_concurrency();
  out.threads = std::max(
      1u, std::min<unsigned>(out.threads, static_cast<unsigned>(tasks)));

  // One private Telemetry per task, laid out job by job (the decision
  // task, then the chunk tasks): workers never share an instrument, and
  // merging in slot order is merging in job order.
  const std::size_t slotsPerJob = chunkCount + 1;
  std::vector<std::unique_ptr<telemetry::Telemetry>> taskTelemetry;
  if (telemetry != nullptr) {
    taskTelemetry.resize(jobs * slotsPerJob);
    for (auto& t : taskTelemetry)
      t = std::make_unique<telemetry::Telemetry>(telemetry->trace.capacity());
  }
  const auto telemetryOf = [&](std::size_t job, std::size_t slot) {
    return telemetry != nullptr ? taskTelemetry[job * slotsPerJob + slot].get()
                                : nullptr;
  };

  // Runs body(i) for every i in [0, count) on the workers.
  const auto parallel = [&](std::size_t count, const auto& body) {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1))
        body(i);
    };
    const unsigned workers =
        std::min<unsigned>(out.threads, static_cast<unsigned>(count));
    if (workers <= 1) return worker();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < workers; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  };

  parallel(jobs, [&](std::size_t job) {
    const auto [windowFirst, windowLast] = windows[job / schemeCount];
    timelines[job] = engine.decide(
        entities[job / schemeCount], schemes[job % schemeCount], schemeParams,
        0,
        {.caller = "runSweep", .first = windowFirst, .last = windowLast,
         .telemetry = telemetryOf(job, 0)});
  });
  parallel(tasks, [&](std::size_t task) {
    const std::size_t job = task / chunkCount;
    const std::size_t chunkFirst = task % chunkCount * chunkIntervals;
    // Clamp the chunk to the entity's window; chunks entirely outside
    // leave their partial empty (merging it is a no-op). Blocks sit at
    // absolute chunk boundaries, so the clamped fold still reproduces the
    // single-threaded blocked run over the window, and the skip depends
    // only on the task index.
    const auto [windowFirst, windowLast] = windows[job / schemeCount];
    const std::size_t first = std::max(chunkFirst, windowFirst);
    const std::size_t last =
        std::min({chunkFirst + chunkIntervals, intervalCount, windowLast});
    if (first >= last) return;
    partials[task] = engine.score(
        entities[job / schemeCount], schemes[job % schemeCount],
        timelines[job],
        {.caller = "runSweep", .first = first, .last = last,
         .telemetry = telemetryOf(job, 1 + task % chunkCount)});
  });

  // Deterministic fold: each job's partials in ascending chunk order --
  // the same merge tree as the single-threaded blocked run.
  const std::int64_t foldStart = util::nowNanos();
  out.results.resize(jobs);
  for (std::size_t job = 0; job < jobs; ++job) {
    RunPartial total;
    for (std::size_t chunk = 0; chunk < chunkCount; ++chunk)
      total.merge(std::move(partials[job * chunkCount + chunk]));
    out.results[job] = engine.finalizePartial(entities[job / schemeCount],
                                              schemes[job % schemeCount],
                                              std::move(total));
  }
  engine.addStageMergeNs(
      static_cast<std::uint64_t>(util::nowNanos() - foldStart));
  out.stages = engine.stageTimings().snapshot();

  for (const auto& taskResult : taskTelemetry) telemetry->merge(*taskResult);
  return out;
}

}  // namespace dg::playback
