// The four benchmark workloads. Each one: sets its inputs up from the
// seed (several times, for a steady setup_s), then either times its
// runner calls for the requested seconds (untraced) or runs one untraced
// and one traced call plus the layer probes (traced), and finally checks
// the outputs outside every timed region.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "chaos/bridge.hpp"
#include "chaos/schedule.hpp"
#include "layers.hpp"
#include "live/fleet.hpp"
#include "mcast/experiment.hpp"
#include "mcast/playback.hpp"
#include "perfbench.hpp"
#include "playback/experiment.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace perfbench {

namespace {

using dg::graph::Graph;
using dg::playback::ExperimentConfig;
using dg::playback::ExperimentResult;
using dg::playback::FlowSchemeResult;

// ---------------------------------------------------------------------
// Shared sweep plumbing.
// ---------------------------------------------------------------------

/// Sizes of a sweep workload; `small` shrinks every one of them.
struct SweepShape {
  double days = 7.0;
  unsigned threads = 1;
  int mcSamples = 1000;
  std::size_t chunkIntervals = 8640;  ///< one day of 10-s intervals
  std::size_t flows = 16;
  std::size_t probeIntervals = 8640;
};

SweepShape shapeFor(double days, unsigned threads, bool small) {
  SweepShape shape;
  shape.days = days;
  shape.threads = threads;
  if (small) {
    shape.days = 0.25;
    shape.mcSamples = 200;
    shape.chunkIntervals = 720;
    shape.flows = 4;
    shape.probeIntervals = 720;
  }
  return shape;
}

/// Generator seed of the sweeps' synthetic traces (the experiment
/// binaries' default). The trace is part of each sweep's definition, as
/// the paper's recorded weeks are: which problem events a seed draws moves
/// the Monte-Carlo work, and with it intervals/s, by up to 40% between
/// seeds. The run seed drives the Monte-Carlo sampling streams instead.
constexpr std::uint64_t kTraceSeed = 20170605;

dg::trace::GeneratorParams generatorFor(double days) {
  dg::trace::GeneratorParams params;
  params.seed = kTraceSeed;
  params.duration =
      dg::util::seconds(static_cast<std::int64_t>(days * 86'400.0));
  return params;
}

void recordSweepConfig(RunReport& report, const SweepShape& shape,
                       std::size_t intervals) {
  report.setConfig("days", shape.days);
  report.setConfig("trace_seed", static_cast<double>(kTraceSeed));
  report.setConfig("intervals", static_cast<double>(intervals));
  report.setConfig("threads", shape.threads);
  report.setConfig("mc_samples", shape.mcSamples);
  report.setConfig("chunk_intervals", static_cast<double>(shape.chunkIntervals));
  report.setConfig("chunk_count",
                   std::ceil(static_cast<double>(intervals) /
                             static_cast<double>(shape.chunkIntervals)));
  report.setConfig("probe_intervals", static_cast<double>(shape.probeIntervals));
}

/// Runs `setup` once untimed, then kSetupReps times, each after a pause,
/// and reports the median as setup_s (untraced runs only; the traced run
/// sets up once). The pause makes every timed set-up a cold one, as a
/// user's single set-up is, and an independent sample of the host:
/// back-to-back repetitions share one host state, and their medians read
/// up to 1.7x apart between runs, where spaced ones stay within about 10%.
template <typename Setup>
void timedSetups(const Options& options, RunReport& report, Setup&& setup) {
  setup();
  if (options.trace) return;
  constexpr int kSetupReps = 15;
  std::vector<double> seconds;
  for (int i = 0; i < kSetupReps; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::int64_t start = nowNs();
    setup();
    seconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
  }
  report.add("setup_s", median(seconds), "s");
}

/// Calls `call` (which returns the operations it completed) until
/// `options.seconds` have elapsed, at least twice, and reports the
/// end-to-end rate metrics as medians over the calls.
void timedCalls(const Options& options, RunReport& report,
                const std::function<double()>& call) {
  std::vector<double> opsPerSecond;
  std::vector<double> cpuUsPerOp;
  const std::int64_t start = nowNs();
  while (opsPerSecond.size() < 2 ||
         static_cast<double>(nowNs() - start) / 1e9 < options.seconds) {
    const CallTimer timer;
    const double ops = call();
    const double wall = timer.wallSeconds();
    const double cpu = timer.cpuSeconds();
    opsPerSecond.push_back(ops / wall);
    cpuUsPerOp.push_back(cpu * 1e6 / ops);
    std::cout << "call " << opsPerSecond.size() << ": " << wall << " s, "
              << opsPerSecond.back() << " ops/s, " << cpuUsPerOp.back()
              << " cpu us/op\n";
  }
  report.timedCalls = opsPerSecond.size();
  report.add("ops_per_s", median(opsPerSecond), "1/s");
  report.add("cpu_us_per_op", median(cpuUsPerOp), "us");
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Bit-identity of two unicast job results (every scored field).
bool identical(const FlowSchemeResult& a, const FlowSchemeResult& b) {
  if (!sameBits(a.unavailability, b.unavailability) ||
      !sameBits(a.unavailableSeconds, b.unavailableSeconds) ||
      a.problematicIntervals != b.problematicIntervals ||
      !sameBits(a.averageCost, b.averageCost) ||
      !sameBits(a.averageLatencyUs, b.averageLatencyUs) ||
      a.problems.size() != b.problems.size())
    return false;
  for (std::size_t i = 0; i < a.problems.size(); ++i) {
    if (a.problems[i].interval != b.problems[i].interval ||
        !sameBits(a.problems[i].missProbability, b.problems[i].missProbability))
      return false;
  }
  return true;
}

bool identical(const dg::mcast::GroupSchemeResult& a,
               const dg::mcast::GroupSchemeResult& b) {
  if (!sameBits(a.unavailabilityAll, b.unavailabilityAll) ||
      !sameBits(a.unavailabilityK, b.unavailabilityK) ||
      !sameBits(a.unavailableAllSeconds, b.unavailableAllSeconds) ||
      a.problematicIntervals != b.problematicIntervals ||
      !sameBits(a.averageCost, b.averageCost) ||
      a.receivers.size() != b.receivers.size() ||
      a.problems.size() != b.problems.size())
    return false;
  for (std::size_t i = 0; i < a.receivers.size(); ++i) {
    const auto& x = a.receivers[i];
    const auto& y = b.receivers[i];
    if (!sameBits(x.unavailability, y.unavailability) ||
        !sameBits(x.unavailableSeconds, y.unavailableSeconds) ||
        x.problematicIntervals != y.problematicIntervals ||
        !sameBits(x.averageLatencyUs, y.averageLatencyUs))
      return false;
  }
  for (std::size_t i = 0; i < a.problems.size(); ++i) {
    if (a.problems[i].interval != b.problems[i].interval ||
        !sameBits(a.problems[i].missProbability, b.problems[i].missProbability))
      return false;
  }
  return true;
}

bool inUnit(double x) { return std::isfinite(x) && x >= 0.0 && x <= 1.0; }

/// Range checks of one unicast result: a NaN or out-of-range value is a
/// failed operation.
bool plausible(const FlowSchemeResult& r, const Graph& overlay) {
  return inUnit(r.unavailability) && std::isfinite(r.unavailableSeconds) &&
         r.unavailableSeconds >= 0.0 && std::isfinite(r.averageCost) &&
         r.averageCost >= 0.0 &&
         r.averageCost <= static_cast<double>(overlay.edgeCount()) &&
         std::isfinite(r.averageLatencyUs) && r.averageLatencyUs >= 0.0;
}

bool plausible(const dg::mcast::GroupSchemeResult& r, const Graph& overlay) {
  bool ok = inUnit(r.unavailabilityAll) && inUnit(r.unavailabilityK) &&
            r.unavailabilityK <= r.unavailabilityAll + 1e-12 &&
            std::isfinite(r.averageCost) && r.averageCost >= 0.0 &&
            r.averageCost <= static_cast<double>(overlay.edgeCount());
  for (const auto& receiver : r.receivers)
    ok = ok && inUnit(receiver.unavailability);
  return ok;
}

/// Checks every result of a call: range checks, and bit-identity with
/// the first call's results (the runners are deterministic).
template <typename Result>
void checkCall(const std::vector<Result>& results,
               const std::vector<Result>& reference, const Graph& overlay,
               RunReport& report, const char* what) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    ++report.attempted;
    if (!plausible(results[i], overlay)) {
      report.fail(std::string(what) + ": job " + std::to_string(i) +
                  " has a NaN or out-of-range result");
    } else if (!reference.empty() && !identical(results[i], reference[i])) {
      report.fail(std::string(what) + ": job " + std::to_string(i) +
                  " differs from the first call");
    }
  }
}

/// Compares the subset re-run through the other runner against the
/// timed runner's results; `perturb` corrupts one timed result first.
template <typename Result>
void checkRunnersAgree(std::vector<Result> timed,
                       const std::vector<Result>& other,
                       const std::vector<std::size_t>& subsetJobs,
                       bool perturb, RunReport& report, const char* what) {
  if (perturb) {
    Result& victim = timed.at(subsetJobs.front());
    if constexpr (std::is_same_v<Result, FlowSchemeResult>)
      victim.unavailability = std::nextafter(victim.unavailability, 2.0);
    else
      victim.unavailabilityAll = std::nextafter(victim.unavailabilityAll, 2.0);
  }
  for (std::size_t k = 0; k < subsetJobs.size(); ++k) {
    ++report.attempted;
    if (!identical(timed[subsetJobs[k]], other[k]))
      report.fail(std::string(what) + ": job " +
                  std::to_string(subsetJobs[k]) +
                  " differs between the packed and in-memory runners");
  }
}

/// Job indices of the runner check: every scheme of the first and of the
/// last flow (or group), in the runners' flow-major job order.
std::vector<std::size_t> firstAndLastJobs(std::size_t count,
                                          std::size_t schemes) {
  std::vector<std::size_t> jobs;
  for (const std::size_t f : {std::size_t{0}, count - 1}) {
    for (std::size_t s = 0; s < schemes; ++s) jobs.push_back(f * schemes + s);
  }
  return jobs;
}

double meanOnTime(const std::vector<FlowSchemeResult>& results) {
  double sum = 0.0;
  for (const FlowSchemeResult& r : results) sum += 1.0 - r.unavailability;
  return results.empty() ? 0.0 : sum / static_cast<double>(results.size());
}

double meanOnTime(const std::vector<dg::mcast::GroupSchemeResult>& results) {
  double sum = 0.0;
  for (const auto& r : results) sum += 1.0 - r.unavailabilityAll;
  return results.empty() ? 0.0 : sum / static_cast<double>(results.size());
}

void reportJobTimes(const std::vector<double>& jobSeconds, RunReport& report) {
  report.add("playback.job_s_p50", median(jobSeconds), "s");
  report.add("playback.job_s_max",
             jobSeconds.empty()
                 ? 0.0
                 : *std::max_element(jobSeconds.begin(), jobSeconds.end()),
             "s");
}

void reportOverhead(double untracedOpsPerS, double tracedOpsPerS,
                    RunReport& report) {
  report.add("bench.tracing_overhead",
             untracedOpsPerS > 0.0 ? 1.0 - tracedOpsPerS / untracedOpsPerS
                                   : 0.0,
             "ratio");
}

std::string packedPathFor(const Options& options, const char* tag) {
  std::filesystem::create_directories(options.outDir + "/data");
  return options.outDir + "/data/" + options.workload + "-" + tag + "-seed" +
         std::to_string(options.seed) + ".dgtrace";
}

/// Which per-layer metrics a sweep's own traced call did not produce
/// and the probes must.
struct ProbeNeeds {
  bool groupJobTimes = true;
  bool stageShare = false;
  bool merge = true;
  bool memo = false;
  bool miniFleet = true;
};

/// The per-layer probes every workload runs on its own inputs.
void probeLayers(const ProbeInputs& in, const Options& options,
                 RunReport& report, Recorder* recorder,
                 const ProbeNeeds& needs) {
  {
    Span span(recorder, "probe.store");
    probeStore(in, report);
  }
  {
    Span span(recorder, "probe.trace");
    probeCursor(in, report);
  }
  {
    Span span(recorder, "probe.unicast_replay");
    probeUnicastReplay(in, report);
  }
  {
    Span span(recorder, "probe.chunk_warmup");
    probeChunkWarmup(in, report, needs.merge, needs.memo);
  }
  if (needs.stageShare) {
    Span span(recorder, "probe.stage_share");
    probeStageShare(in, report);
  }
  {
    Span span(recorder, "probe.group_replay");
    probeGroupReplay(in, report, needs.groupJobTimes);
  }
  {
    Span span(recorder, "probe.live_calls");
    probeLiveCalls(options.seed, report, recorder);
  }
  if (needs.miniFleet) {
    Span span(recorder, "probe.mini_fleet");
    probeMiniFleet(options.seed, options.small, report, recorder);
  }
}

std::vector<dg::mcast::Group> ltn12Groups(const dg::trace::Topology& topology,
                                          bool small) {
  std::vector<dg::mcast::Group> groups = dg::mcast::parseGroupList(
      "NYC:LAX+SJC+SEA+DEN+DFW+CHI+LON+FRA,"
      "LAX:NYC+JHU+WAS+ATL+CHI+LON+FRA+DFW,"
      "SEA:NYC+JHU+WAS+ATL+LON+FRA+DFW+DEN,"
      "WAS:LAX+SJC+SEA+DEN+DFW+CHI+LON+FRA",
      topology);
  if (small) groups.resize(2);
  return groups;
}

// ---------------------------------------------------------------------
// unicast-week: playback::runExperiment over an in-memory week.
// ---------------------------------------------------------------------

RunReport runUnicastWeek(const Options& options, Recorder* recorder) {
  RunReport report;
  const SweepShape shape = shapeFor(7.0, 1, options.small);
  const dg::trace::Topology topology = dg::trace::Topology::ltn12();
  const Graph& overlay = topology.graph();

  std::optional<dg::trace::Trace> generated;
  timedSetups(options, report, [&] {
    generated = dg::trace::generateSyntheticTrace(
                    overlay, generatorFor(shape.days))
                    .trace;
  });
  const dg::trace::Trace& trace = *generated;
  recordSweepConfig(report, shape, trace.intervalCount());

  ExperimentConfig config;
  config.flows = dg::playback::transcontinentalFlows(topology);
  config.flows.resize(shape.flows);
  config.playback.mcSamples = shape.mcSamples;
  config.playback.seed = options.seed;
  // Fix the merge tree at the chunk length so the packed runner can
  // reproduce these results bit for bit (see the runner check below).
  config.playback.accumBlockIntervals = shape.chunkIntervals;
  config.threads = shape.threads;
  report.setConfig("flows", static_cast<double>(config.flows.size()));
  report.setConfig("schemes", static_cast<double>(config.schemes.size()));
  const double opsPerCall = static_cast<double>(config.flows.size()) *
                            static_cast<double>(config.schemes.size()) *
                            static_cast<double>(trace.intervalCount());

  std::vector<FlowSchemeResult> first;
  std::vector<FlowSchemeResult> last;
  const auto call = [&] {
    ExperimentResult result = dg::playback::runExperiment(overlay, trace, config);
    checkCall(result.perFlow, first, overlay, report, "unicast-week");
    if (first.empty()) first = result.perFlow;
    last = std::move(result.perFlow);
    return opsPerCall;
  };

  if (!options.trace) {
    timedCalls(options, report, call);
  } else {
    const CallTimer untimed;
    call();
    const double untraced = opsPerCall / untimed.wallSeconds();

    // Traced call: the same jobs driven one by one on one engine, so each
    // job gets its own span and the engine's stage timings and memo stay
    // observable.
    dg::playback::PlaybackParams pb = config.playback;
    pb.collectStageTimings = true;
    const int root = recorder->begin("workload.call");
    const std::uint64_t allocs0 = allocationCount();
    const CallTimer timer;
    const dg::playback::PlaybackEngine engine(overlay, trace, pb);
    std::vector<FlowSchemeResult> traced;
    std::size_t job = 0;
    for (const auto& flow : config.flows) {
      for (const auto kind : config.schemes) {
        Span span(recorder, "playback.run", root, static_cast<std::int64_t>(job++));
        traced.push_back(engine.run(flow, kind, config.schemeParams));
      }
    }
    const double wall = timer.wallSeconds();
    const double cpu = timer.cpuSeconds();
    const std::uint64_t allocs = allocationCount() - allocs0;
    recorder->end(root);
    checkCall(traced, first, overlay, report, "unicast-week traced");

    reportOverhead(untraced, opsPerCall / wall, report);
    report.add("playback.stage_mc_share",
               static_cast<double>(engine.stageTimings().mcNs.load()) / 1e9 / wall,
               "ratio");
    report.add("playback.worker_busy_ratio", cpu / wall, "ratio");
    reportJobTimes(recorder->durationsSeconds("playback.run"), report);
    report.add("playback.allocs_per_interval",
               static_cast<double>(allocs) / opsPerCall, "count");
    report.add("routing.memo_hit_ratio", hitRatio(engine.decisionMemo().stats()),
               "ratio");
    report.add("routing.memo_lookup_ns", memoLookupNs(engine.decisionMemo()),
               "ns");
  }

  // Runner check: a fixed subset of jobs re-run through the packed runner
  // at the same block length must reproduce the timed results bit for bit.
  const std::string packed = packedPathFor(options, "week");
  dg::store::WriterOptions writerParams;
  writerParams.chunkIntervals = static_cast<std::uint32_t>(shape.chunkIntervals);
  dg::store::packTrace(trace, packed, writerParams);
  ExperimentConfig subset = config;
  subset.flows = {config.flows.front(), config.flows.back()};
  subset.threads = 1;
  const ExperimentResult other =
      dg::playback::runPackedExperiment(overlay, packed, subset);
  const std::vector<std::size_t> subsetJobs =
      firstAndLastJobs(config.flows.size(), config.schemes.size());
  checkRunnersAgree(last, other.perFlow, subsetJobs, options.perturb, report,
                    "unicast-week");

  if (!options.trace) {
    report.add("ontime_ratio", meanOnTime(last), "ratio");
  } else {
    ProbeInputs probe;
    probe.overlay = &overlay;
    probe.trace = &trace;
    probe.packedPath = packed;
    probe.packedRunner = false;
    probe.flows = config.flows;
    probe.groups = ltn12Groups(topology, options.small);
    probe.schemeParams = config.schemeParams;
    probe.playback = config.playback;
    probe.chunkIntervals = shape.chunkIntervals;
    probe.probeIntervals = std::min(shape.probeIntervals, trace.intervalCount());
    probe.seed = options.seed;
    probe.recorder = recorder;
    probeLayers(probe, options, report, recorder, ProbeNeeds{});
  }
  std::filesystem::remove(packed);
  return report;
}

// ---------------------------------------------------------------------
// chunked-fortnight: playback::runPackedExperiment over 14 one-day chunks.
// ---------------------------------------------------------------------

/// What the benchmark-driven packed sweep leaves behind besides results.
struct TracedSweep {
  std::vector<FlowSchemeResult> results;
  double mcSeconds = 0.0;
  double mergeNs = 0.0;
  double merges = 0.0;
  dg::routing::DecisionMemo::Stats memo;
  double memoLookupNs = 0.0;
};

/// The packed runner's chunk-parallel sweep, driven from the benchmark so
/// every (flow, scheme, chunk) task and every merge gets its own span.
/// Mirrors runPackedExperiment: worker-private readers and condition
/// sources, ascending-chunk fold per job.
TracedSweep tracedPackedSweep(const Graph& overlay, const std::string& packed,
                              const ExperimentConfig& config,
                              Recorder& recorder, int root) {
  auto reader = [&] {
    Span span(&recorder, "store.open", root);
    return dg::store::PackedTraceReader::open(packed);
  }();
  const dg::trace::Trace trace = [&] {
    Span span(&recorder, "store.readAll", root);
    return reader.readAll();
  }();
  dg::playback::PlaybackParams pb = config.playback;
  pb.conditionCursor = true;
  pb.accumBlockIntervals = reader.info().chunkIntervals;
  pb.collectStageTimings = true;
  const dg::playback::PlaybackEngine engine(overlay, trace, pb);

  const std::size_t schemes = config.schemes.size();
  const std::size_t jobs = config.flows.size() * schemes;
  const std::size_t chunks = static_cast<std::size_t>(reader.info().chunkCount);
  const std::size_t chunkIntervals = reader.info().chunkIntervals;
  const std::size_t n = trace.intervalCount();
  std::vector<dg::playback::RunPartial> partials(jobs * chunks);
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(std::max(1u, config.threads));
  const auto worker = [&](unsigned id) {
    try {
      auto own = dg::store::PackedTraceReader::open(packed);
      dg::store::PackedConditionSource decision(own);
      dg::store::PackedConditionSource truth(own);
      for (;;) {
        const std::size_t task = next.fetch_add(1);
        if (task >= partials.size()) return;
        const std::size_t job = task / chunks;
        const std::size_t first = (task % chunks) * chunkIntervals;
        const std::size_t last = std::min(first + chunkIntervals, n);
        Span span(&recorder, "playback.runChunkPartial", root,
                  static_cast<std::int64_t>(task));
        partials[task] = engine.runChunkPartial(
            config.flows[job / schemes], config.schemes[job % schemes],
            config.schemeParams, first, last, &decision, &truth);
      }
    } catch (...) {
      errors[id] = std::current_exception();
      next = partials.size();  // stop the other workers early
    }
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < config.threads; ++i) pool.emplace_back(worker, i);
  worker(0);
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  TracedSweep out;
  for (std::size_t job = 0; job < jobs; ++job) {
    Span span(&recorder, "playback.merge", root, static_cast<std::int64_t>(job));
    dg::playback::RunPartial total;
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const std::int64_t m0 = nowNs();
      total.merge(std::move(partials[job * chunks + chunk]));
      out.mergeNs += static_cast<double>(nowNs() - m0);
      out.merges += 1.0;
    }
    out.results.push_back(engine.finalizePartial(
        config.flows[job / schemes], config.schemes[job % schemes],
        std::move(total)));
  }
  out.mcSeconds = static_cast<double>(engine.stageTimings().mcNs.load()) / 1e9;
  out.memo = engine.decisionMemo().stats();
  out.memoLookupNs = memoLookupNs(engine.decisionMemo());
  return out;
}

RunReport runChunkedFortnight(const Options& options, Recorder* recorder) {
  RunReport report;
  const SweepShape shape = shapeFor(14.0, 2, options.small);
  const dg::trace::Topology topology = dg::trace::Topology::ltn12();
  const Graph& overlay = topology.graph();
  const std::string packed = packedPathFor(options, "fortnight");
  dg::store::WriterOptions writer;
  writer.chunkIntervals = static_cast<std::uint32_t>(shape.chunkIntervals);

  std::optional<dg::trace::Trace> generated;
  timedSetups(options, report, [&] {
    generated = dg::trace::generateSyntheticTrace(
                    overlay, generatorFor(shape.days))
                    .trace;
    dg::store::packTrace(*generated, packed, writer);
    auto reader = dg::store::PackedTraceReader::open(packed);
    if (reader.contentFingerprint() == 0)
      report.fail("chunked-fortnight: zero content fingerprint");
  });
  const dg::trace::Trace& trace = *generated;
  recordSweepConfig(report, shape, trace.intervalCount());

  ExperimentConfig config;
  config.flows = dg::playback::transcontinentalFlows(topology);
  config.flows.resize(shape.flows);
  config.playback.mcSamples = shape.mcSamples;
  config.playback.seed = options.seed;
  config.threads = shape.threads;
  report.setConfig("flows", static_cast<double>(config.flows.size()));
  report.setConfig("schemes", static_cast<double>(config.schemes.size()));
  const double opsPerCall = static_cast<double>(config.flows.size()) *
                            static_cast<double>(config.schemes.size()) *
                            static_cast<double>(trace.intervalCount());

  std::vector<FlowSchemeResult> first;
  std::vector<FlowSchemeResult> last;
  const auto call = [&] {
    ExperimentResult result =
        dg::playback::runPackedExperiment(overlay, packed, config);
    checkCall(result.perFlow, first, overlay, report, "chunked-fortnight");
    if (first.empty()) first = result.perFlow;
    last = std::move(result.perFlow);
    return opsPerCall;
  };

  if (!options.trace) {
    timedCalls(options, report, call);
  } else {
    const CallTimer untimed;
    call();
    const double untraced = opsPerCall / untimed.wallSeconds();
    const int root = recorder->begin("workload.call");
    const std::uint64_t allocs0 = allocationCount();
    const CallTimer timer;
    const TracedSweep traced =
        tracedPackedSweep(overlay, packed, config, *recorder, root);
    const double wall = timer.wallSeconds();
    const double cpu = timer.cpuSeconds();
    const std::uint64_t allocs = allocationCount() - allocs0;
    recorder->end(root);
    checkCall(traced.results, first, overlay, report, "chunked-fortnight traced");
    const double threads = static_cast<double>(config.threads);
    reportOverhead(untraced, opsPerCall / wall, report);
    report.add("playback.stage_mc_share", traced.mcSeconds / (wall * threads),
               "ratio");
    report.add("routing.memo_hit_ratio", hitRatio(traced.memo), "ratio");
    report.add("routing.memo_lookup_ns", traced.memoLookupNs, "ns");
    report.add("playback.worker_busy_ratio", cpu / (wall * threads), "ratio");
    reportJobTimes(recorder->durationsSeconds("playback.runChunkPartial"),
                   report);
    report.add("playback.merge_ns", traced.mergeNs / std::max(traced.merges, 1.0),
               "ns");
    report.add("playback.allocs_per_interval",
               static_cast<double>(allocs) / opsPerCall, "count");
  }

  // Runner check: a fixed subset re-run in memory at the chunk block
  // length must reproduce the packed runner's results bit for bit.
  ExperimentConfig subset = config;
  subset.flows = {config.flows.front(), config.flows.back()};
  subset.threads = 1;
  subset.playback.accumBlockIntervals = shape.chunkIntervals;
  const ExperimentResult other =
      dg::playback::runExperiment(overlay, trace, subset);
  const std::vector<std::size_t> subsetJobs =
      firstAndLastJobs(config.flows.size(), config.schemes.size());
  checkRunnersAgree(last, other.perFlow, subsetJobs, options.perturb, report,
                    "chunked-fortnight");

  if (!options.trace) {
    report.add("ontime_ratio", meanOnTime(last), "ratio");
  } else {
    ProbeInputs probe;
    probe.overlay = &overlay;
    probe.trace = &trace;
    probe.packedPath = packed;
    probe.packedRunner = true;
    probe.flows = config.flows;
    probe.groups = ltn12Groups(topology, options.small);
    probe.schemeParams = config.schemeParams;
    probe.playback = config.playback;
    probe.chunkIntervals = shape.chunkIntervals;
    probe.probeIntervals = std::min(shape.probeIntervals, trace.intervalCount());
    probe.seed = options.seed;
    probe.recorder = recorder;
    ProbeNeeds needs;
    needs.merge = false;
    probeLayers(probe, options, report, recorder, needs);
  }
  std::filesystem::remove(packed);
  return report;
}

// ---------------------------------------------------------------------
// mcast-groups: mcast::runPackedGroupExperiment over three days.
// ---------------------------------------------------------------------

RunReport runMcastGroups(const Options& options, Recorder* recorder) {
  RunReport report;
  const SweepShape shape = shapeFor(3.0, 1, options.small);
  const dg::trace::Topology topology = dg::trace::Topology::ltn12();
  const Graph& overlay = topology.graph();
  const std::string packed = packedPathFor(options, "groups");
  dg::store::WriterOptions writer;
  writer.chunkIntervals = static_cast<std::uint32_t>(shape.chunkIntervals);

  std::optional<dg::trace::Trace> generated;
  timedSetups(options, report, [&] {
    generated = dg::trace::generateSyntheticTrace(
                    overlay, generatorFor(shape.days))
                    .trace;
    dg::store::packTrace(*generated, packed, writer);
    auto reader = dg::store::PackedTraceReader::open(packed);
    if (reader.contentFingerprint() == 0)
      report.fail("mcast-groups: zero content fingerprint");
  });
  const dg::trace::Trace& trace = *generated;
  recordSweepConfig(report, shape, trace.intervalCount());

  dg::mcast::GroupExperimentConfig config;
  config.groups = ltn12Groups(topology, options.small);
  config.schemeParams.deadline = dg::util::milliseconds(150);
  config.playback.base.delivery.deadline = config.schemeParams.deadline;
  config.playback.base.mcSamples = shape.mcSamples;
  config.playback.base.seed = options.seed;
  config.playback.deliveredK = 6;
  config.threads = shape.threads;
  report.setConfig("groups", static_cast<double>(config.groups.size()));
  report.setConfig("receivers_per_group", 8);
  report.setConfig("schemes", static_cast<double>(config.schemes.size()));
  report.setConfig("deadline_ms", 150);
  report.setConfig("delivered_k", 6);
  const double opsPerCall = static_cast<double>(config.groups.size()) *
                            static_cast<double>(config.schemes.size()) *
                            static_cast<double>(trace.intervalCount());

  using GroupResult = dg::mcast::GroupSchemeResult;
  std::vector<GroupResult> first;
  std::vector<GroupResult> last;
  const auto call = [&] {
    dg::mcast::GroupExperimentResult result =
        dg::mcast::runPackedGroupExperiment(overlay, packed, config);
    checkCall(result.perGroup, first, overlay, report, "mcast-groups");
    if (first.empty()) first = result.perGroup;
    last = std::move(result.perGroup);
    return opsPerCall;
  };

  if (!options.trace) {
    timedCalls(options, report, call);
  } else {
    const CallTimer untimed;
    call();
    const double untraced = opsPerCall / untimed.wallSeconds();

    // Traced call: the group runner's (group, scheme, chunk) tasks driven
    // from the benchmark on one thread, folded in ascending chunk order.
    const int root = recorder->begin("workload.call");
    const std::uint64_t allocs0 = allocationCount();
    const CallTimer timer;
    auto reader = dg::store::PackedTraceReader::open(packed);
    const dg::trace::Trace loaded = reader.readAll();
    dg::mcast::GroupPlaybackParams gp = config.playback;
    gp.base.conditionCursor = true;
    gp.base.accumBlockIntervals = reader.info().chunkIntervals;
    const dg::mcast::GroupPlaybackEngine engine(overlay, loaded, gp);
    dg::store::PackedConditionSource decision(reader);
    dg::store::PackedConditionSource truth(reader);
    const std::size_t chunks = static_cast<std::size_t>(reader.info().chunkCount);
    const std::size_t chunkIntervals = reader.info().chunkIntervals;
    std::vector<GroupResult> traced;
    std::vector<double> jobSeconds;
    std::size_t task = 0;
    for (const auto& group : config.groups) {
      for (const auto kind : config.schemes) {
        const std::int64_t j0 = nowNs();
        dg::mcast::GroupRunPartial total;
        for (std::size_t c = 0; c < chunks; ++c) {
          Span span(recorder, "mcast.runChunkPartial", root,
                    static_cast<std::int64_t>(task++));
          const std::size_t begin = c * chunkIntervals;
          total.merge(engine.runChunkPartial(
              group, kind, config.schemeParams, begin,
              std::min(begin + chunkIntervals, loaded.intervalCount()),
              &decision, &truth));
        }
        traced.push_back(engine.finalizePartial(group, kind, std::move(total)));
        jobSeconds.push_back(static_cast<double>(nowNs() - j0) / 1e9);
      }
    }
    const double wall = timer.wallSeconds();
    const double cpu = timer.cpuSeconds();
    const std::uint64_t allocs = allocationCount() - allocs0;
    recorder->end(root);
    checkCall(traced, first, overlay, report, "mcast-groups traced");

    reportOverhead(untraced, opsPerCall / wall, report);
    report.add("mcast.job_s_p50", median(jobSeconds), "s");
    report.add("playback.worker_busy_ratio", cpu / wall, "ratio");
    reportJobTimes(recorder->durationsSeconds("mcast.runChunkPartial"), report);
    report.add("playback.allocs_per_interval",
               static_cast<double>(allocs) / opsPerCall, "count");
    report.add("routing.memo_hit_ratio", hitRatio(engine.decisionMemo().stats()),
               "ratio");
    report.add("routing.memo_lookup_ns", memoLookupNs(engine.decisionMemo()),
               "ns");
  }

  // Runner check: a fixed subset of groups re-run in memory at the chunk
  // block length must reproduce the packed runner's results bit for bit.
  dg::mcast::GroupExperimentConfig subset = config;
  subset.groups = {config.groups.front(), config.groups.back()};
  subset.playback.base.accumBlockIntervals = shape.chunkIntervals;
  const dg::mcast::GroupExperimentResult other =
      dg::mcast::runGroupExperiment(overlay, trace, subset);
  const std::vector<std::size_t> subsetJobs =
      firstAndLastJobs(config.groups.size(), config.schemes.size());
  checkRunnersAgree(last, other.perGroup, subsetJobs, options.perturb, report,
                    "mcast-groups");

  if (!options.trace) {
    report.add("ontime_ratio", meanOnTime(last), "ratio");
  } else {
    ProbeInputs probe;
    probe.overlay = &overlay;
    probe.trace = &trace;
    probe.packedPath = packed;
    probe.packedRunner = true;
    probe.flows = dg::playback::transcontinentalFlows(topology);
    probe.flows.resize(shape.flows);
    probe.groups = config.groups;
    probe.schemeParams = config.schemeParams;
    probe.playback = config.playback.base;
    probe.chunkIntervals = shape.chunkIntervals;
    probe.probeIntervals = std::min(shape.probeIntervals, trace.intervalCount());
    probe.seed = options.seed;
    probe.recorder = recorder;
    ProbeNeeds needs;
    needs.groupJobTimes = false;
    needs.stageShare = true;
    probeLayers(probe, options, report, recorder, needs);
  }
  std::filesystem::remove(packed);
  return report;
}

// ---------------------------------------------------------------------
// live-soak: live::runFleetInProcess on mesh5 under chaos.
// ---------------------------------------------------------------------

/// Correctness of one fleet call: every flow within the differential
/// tolerance, a converged and collected fleet (else all flows fail), and
/// no wire decode errors.
void checkFleet(dg::live::FleetResult result, bool perturb,
                RunReport& report) {
  if (perturb && !result.flows.empty())
    result.flows.front().liveUnavailability = 1.0;
  const bool fleetOk = result.converged && result.completed;
  for (const auto& flow : result.flows) {
    ++report.attempted;
    if (!fleetOk) {
      report.fail("live-soak: fleet did not converge or collect");
    } else if (!flow.withinTolerance()) {
      report.fail("live-soak: flow " + flow.spec.source + "->" +
                  flow.spec.destination + " outside the differential tolerance");
    }
  }
  for (const auto& [node, counters] : result.nodeCounters) {
    report.attempted += counters.socketReceives;
    for (std::uint64_t i = 0; i < counters.decodeErrors; ++i)
      report.fail("live-soak: wire decode error at node " + std::to_string(node));
  }
}

double fleetOnTime(const dg::live::FleetResult& result) {
  double sent = 0.0;
  double onTime = 0.0;
  for (const auto& flow : result.flows) {
    sent += static_cast<double>(flow.sent);
    onTime += static_cast<double>(flow.deliveredOnTime);
  }
  return sent > 0.0 ? onTime / sent : 0.0;
}

RunReport runLiveSoak(const Options& options, Recorder* recorder) {
  RunReport report;
  const int soakSeconds = options.small ? 2 : 8;
  const int faults = 4;
  const int mcSamples = 4000;
  dg::live::FleetParams params;
  timedSetups(options, report, [&] {
    params = soakFleetParams(options.seed, soakSeconds, faults, mcSamples);
    for (const auto& flow : params.flows) {
      dg::live::selectLiveGraphMask(params.topology, flow.scheme,
                                    params.topology.at(flow.source),
                                    params.topology.at(flow.destination),
                                    params.schemeParams, params.residualLoss);
    }
  });
  report.setConfig("topology", "\"mesh5\"");
  report.setConfig("flows", static_cast<double>(params.flows.size()));
  report.setConfig("soak_s", soakSeconds);
  report.setConfig("packet_interval_us", static_cast<double>(params.packetInterval));
  report.setConfig("faults", faults);
  report.setConfig("schedule_seed", static_cast<double>(kSoakScheduleSeed));
  report.setConfig("fault_grid_s", 1);
  report.setConfig("mc_samples", mcSamples);
  report.setConfig("threads", 1);

  dg::live::FleetResult last;
  double lastWall = 0.0;
  const auto call = [&] {
    const std::int64_t start = nowNs();
    dg::live::FleetResult result = dg::live::runFleetInProcess(params);
    lastWall = static_cast<double>(nowNs() - start) / 1e9;
    checkFleet(result, false, report);
    last = std::move(result);
    return static_cast<double>(std::max<std::uint64_t>(fleetDatagrams(last), 1));
  };

  if (!options.trace) {
    timedCalls(options, report, call);
    report.add("ontime_ratio", fleetOnTime(last), "ratio");
  } else {
    const CallTimer untimed;
    const double untracedOps = call();
    const double untraced = untracedOps / untimed.wallSeconds();
    const int root = recorder->begin("workload.call");
    const CallTimer timer;
    double ops = 0.0;
    {
      Span span(recorder, "live.runFleetInProcess", root);
      ops = call();
    }
    const double wall = timer.wallSeconds();
    const double cpu = timer.cpuSeconds();
    recorder->end(root);
    reportOverhead(untraced, ops / wall, report);
    report.add("playback.worker_busy_ratio", cpu / wall, "ratio");

    const FleetPrediction prediction = [&] {
      Span span(recorder, "live.prediction");
      return replayFleetPrediction(params, recorder, span.id());
    }();
    reportFleetLayers(last, lastWall, prediction, report, recorder);
    report.add("playback.stage_mc_share",
               prediction.mcSeconds / std::max(prediction.seconds, 1e-12),
               "ratio");
    reportJobTimes(prediction.jobSeconds, report);
    report.add("playback.allocs_per_interval",
               static_cast<double>(prediction.allocations) /
                   static_cast<double>(std::max<std::size_t>(1, prediction.intervals)),
               "count");

    // Layer probes over the compiled soak trace (the prediction's input).
    const dg::trace::Trace compiled = dg::chaos::compileToTrace(
        params.schedule, params.topology, params.residualLoss);
    const std::string packed = packedPathFor(options, "soak");
    dg::store::WriterOptions writer;
    writer.chunkIntervals = 4;
    dg::store::packTrace(compiled, packed, writer);
    ProbeInputs probe;
    probe.overlay = &params.topology.graph();
    probe.trace = &compiled;
    probe.packedPath = packed;
    for (const auto& flow : params.flows)
      probe.flows.push_back({params.topology.at(flow.source),
                             params.topology.at(flow.destination)});
    probe.groups = dg::mcast::parseGroupList(
        "NYC:CHI+DFW+DEN+SJC,SJC:NYC+CHI+DFW+DEN", params.topology);
    probe.schemeParams = params.schemeParams;
    probe.playback.delivery.deadline = params.schemeParams.deadline;
    probe.playback.delivery.packetInterval = params.packetInterval;
    probe.playback.delivery.recoveryEnabled = params.recoveryEnabled;
    probe.playback.mcSamples = params.mcSamples;
    probe.playback.seed = params.playbackSeed;
    probe.chunkIntervals = 4;
    probe.probeIntervals = compiled.intervalCount();
    probe.seed = options.seed;
    probe.recorder = recorder;
    ProbeNeeds needs;
    needs.memo = true;
    needs.miniFleet = false;
    probeLayers(probe, options, report, recorder, needs);
    std::filesystem::remove(packed);
  }
  // Every call was checked as it returned; a perturbed re-check of the
  // last one must fail (self-test of the failure accounting).
  if (options.perturb) checkFleet(last, true, report);
  return report;
}

}  // namespace

RunReport runWorkload(const Options& options, Recorder* recorder) {
  RunReport report;
  if (options.workload == "unicast-week") {
    report = runUnicastWeek(options, recorder);
  } else if (options.workload == "chunked-fortnight") {
    report = runChunkedFortnight(options, recorder);
  } else if (options.workload == "mcast-groups") {
    report = runMcastGroups(options, recorder);
  } else if (options.workload == "live-soak") {
    report = runLiveSoak(options, recorder);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (!options.trace) report.add("peak_rss_mb", peakRssMb(), "MB");
  return report;
}

}  // namespace perfbench
