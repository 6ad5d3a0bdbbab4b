// Playback hot-path throughput benchmark.
//
// Replays the full transcontinental flows x schemes experiment over a
// synthetic week-long trace twice with the same engine parameters:
// once on legacy replay (per-interval vector materialization, every
// select() run, no decision memo -- still selectable via PlaybackParams)
// and once on the optimized path (condition-timeline cursor + cross-job
// decision memo). Both arms run the same optimized evaluators; the
// frozen reference evaluators are test oracles only. It reports wall time,
// replayed intervals per second and heap allocations (counted by the
// operator new replacement below) for both runs, verifies the two
// produce *identical* results, and writes everything to
// BENCH_playback.json.
//
// Two further arms measure the chunk-parallel packed sweep: the trace is
// packed into a temporary dgtrace container and runPackedExperiment is
// timed cold (no decision-memo sidecar) and warm (sidecar written by the
// cold run), end to end including container open and decode. Per-stage
// wall-clock breakdowns (decode / Monte-Carlo / memo / merge) are
// collected for every arm; the two extra clock reads per operation apply
// to all arms equally, so the speedup stays a fair comparison.
//
// Keys: --days=7 --threads=1 --seed=S --mc_samples=N --out=FILE plus the
// trace-generator keys of bench_common.hpp. The JSON ends with the
// machine fingerprint (bench::appendMachineJson). With --baseline=FILE
// (a previous BENCH_playback.json) the run acts as a regression gate: if
// the optimized arm's intervals_per_second drops more than 10% below the
// baseline's, the bench exits 3. The gate compares like with like only:
// an unreadable baseline, or one whose days, mc_samples, threads, flows
// or schemes differ from this run's, exits 2 before any work.
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <new>
#include <optional>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "playback/experiment.hpp"
#include "playback/playback.hpp"
#include "store/writer.hpp"
#include "util/wall_clock.hpp"

// ---------------------------------------------------------------------
// Allocation instrumentation: global counters fed by replacing the
// default operator new/delete for this binary. The array and sized forms
// forward here per the standard's default behavior.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocationCount{0};
std::atomic<std::uint64_t> g_allocationBytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocationCount.fetch_add(1, std::memory_order_relaxed);
  g_allocationBytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dg;

struct RunMeasurement {
  double wallSeconds = 0.0;
  double intervalsPerSecond = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t allocatedBytes = 0;
  std::vector<playback::FlowSchemeResult> results;
};

/// Runs every (flow, scheme) job on one shared engine, mirroring
/// runExperiment's worker pool (kept local so the engine's memo
/// statistics stay accessible).
RunMeasurement runAllJobs(const playback::PlaybackEngine& engine,
                          const std::vector<routing::Flow>& flows,
                          const std::vector<routing::SchemeKind>& schemes,
                          const routing::SchemeParams& schemeParams,
                          unsigned threadCount) {
  const trace::Trace& trace = engine.trace();
  const std::size_t jobs = flows.size() * schemes.size();
  RunMeasurement m;
  m.results.resize(jobs);

  const std::uint64_t allocBefore =
      g_allocationCount.load(std::memory_order_relaxed);
  const std::uint64_t bytesBefore =
      g_allocationBytes.load(std::memory_order_relaxed);
  util::WallClock stopwatch;
  stopwatch.start();

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t job = next.fetch_add(1);
      if (job >= jobs) return;
      const std::size_t flowIndex = job / schemes.size();
      const std::size_t schemeIndex = job % schemes.size();
      m.results[job] = engine.run(flows[flowIndex], schemes[schemeIndex],
                                  schemeParams);
    }
  };
  if (threadCount <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threadCount);
    for (unsigned i = 0; i < threadCount; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  m.wallSeconds = stopwatch.elapsedSeconds();
  m.allocations =
      g_allocationCount.load(std::memory_order_relaxed) - allocBefore;
  m.allocatedBytes =
      g_allocationBytes.load(std::memory_order_relaxed) - bytesBefore;
  const double replayed =
      static_cast<double>(jobs) * static_cast<double>(trace.intervalCount());
  m.intervalsPerSecond = m.wallSeconds > 0 ? replayed / m.wallSeconds : 0.0;
  return m;
}

bool resultsIdentical(const std::vector<playback::FlowSchemeResult>& a,
                      const std::vector<playback::FlowSchemeResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.unavailability != y.unavailability ||
        x.unavailableSeconds != y.unavailableSeconds ||
        x.problematicIntervals != y.problematicIntervals ||
        x.averageCost != y.averageCost ||
        x.averageLatencyUs != y.averageLatencyUs ||
        x.problems.size() != y.problems.size()) {
      std::cerr << "DIFF job " << i << ": unavail " << x.unavailability
                << " vs " << y.unavailability << ", cost " << x.averageCost
                << " vs " << y.averageCost << ", latency "
                << x.averageLatencyUs << " vs " << y.averageLatencyUs
                << ", problems " << x.problems.size() << " vs "
                << y.problems.size() << ", probIntervals "
                << x.problematicIntervals << " vs " << y.problematicIntervals
                << "\n";
      return false;
    }
    for (std::size_t p = 0; p < x.problems.size(); ++p) {
      if (x.problems[p].interval != y.problems[p].interval ||
          x.problems[p].missProbability != y.problems[p].missProbability) {
        return false;
      }
    }
  }
  return true;
}

void appendRunJson(std::ostringstream& json, const char* name,
                   const RunMeasurement& m) {
  json << "  \"" << name << "\": {\n"
       << "    \"wall_seconds\": " << m.wallSeconds << ",\n"
       << "    \"intervals_per_second\": " << m.intervalsPerSecond << ",\n"
       << "    \"allocations\": " << m.allocations << ",\n"
       << "    \"allocated_bytes\": " << m.allocatedBytes << "\n"
       << "  }";
}

void appendStagesJson(std::ostringstream& json, const char* name,
                      const playback::StageBreakdown& s) {
  json << "  \"" << name << "\": {\n"
       << "    \"decode_seconds\": " << static_cast<double>(s.decodeNs) / 1e9
       << ",\n"
       << "    \"mc_seconds\": " << static_cast<double>(s.mcNs) / 1e9
       << ",\n"
       << "    \"memo_seconds\": " << static_cast<double>(s.memoNs) / 1e9
       << ",\n"
       << "    \"merge_seconds\": " << static_cast<double>(s.mergeNs) / 1e9
       << "\n  }";
}

/// The number following `"key":` in `text` at or after `from`; nullopt
/// when the key is absent. Hand-rolled scan (the repo has no JSON parser
/// dependency).
std::optional<double> jsonNumber(const std::string& text,
                                 const std::string& key,
                                 std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  const char* begin = text.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

/// Reads a previous bench JSON for the regression gate: the optimized
/// arm's intervals_per_second, after checking that the baseline ran the
/// same configuration as this run (`config`: top-level key -> value). A
/// gate over a different configuration compares unlike with like, so any
/// unreadable file, missing key or mismatch is an error (message in
/// `error`).
double readBaseline(const std::string& path,
                    const std::vector<std::pair<std::string, double>>& config,
                    std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read baseline " + path;
    return 0.0;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  for (const auto& [key, value] : config) {
    const std::optional<double> recorded = jsonNumber(text, key);
    if (!recorded) {
      error = "baseline " + path + " has no \"" + key + "\"";
      return 0.0;
    }
    if (*recorded != value) {
      std::ostringstream message;
      message << "baseline " << path << " ran with " << key << "="
              << *recorded << ", this run has " << key << "=" << value
              << "; rerun with matching settings";
      error = message.str();
      return 0.0;
    }
  }
  const std::size_t optimized = text.find("\"optimized\"");
  const std::optional<double> ips =
      optimized == std::string::npos
          ? std::nullopt
          : jsonNumber(text, "intervals_per_second", optimized);
  if (!ips || *ips <= 0.0) {
    error = "baseline " + path + " has no optimized intervals_per_second";
    return 0.0;
  }
  return *ips;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parseArgs(argc, argv);
  const auto topology = trace::Topology::ltn12();
  const auto flows = playback::transcontinentalFlows(topology);
  const auto schemes = routing::allSchemeKinds();
  const unsigned threads =
      static_cast<unsigned>(args.getInt("threads", 1));

  routing::SchemeParams schemeParams;
  playback::PlaybackParams base;
  base.mcSamples = static_cast<int>(args.getInt("mc_samples", 1000));
  base.collectStageTimings = true;  // all arms pay the same clock reads

  // Read the baseline before any output: --baseline and --out may name
  // the same file (CI gates against the committed results in place).
  double baselineIps = 0.0;
  if (args.has("baseline")) {
    std::string error;
    baselineIps = readBaseline(
        args.getString("baseline", ""),
        {{"days", args.getDouble("days", 7.0)},
         {"mc_samples", static_cast<double>(base.mcSamples)},
         {"threads", static_cast<double>(threads)},
         {"flows", static_cast<double>(flows.size())},
         {"schemes", static_cast<double>(schemes.size())}},
        error);
    if (!error.empty()) {
      std::cerr << "bench_playback_throughput: " << error << '\n';
      return 2;
    }
  }

  auto generator = bench::makeGeneratorParams(args);
  generator.duration = util::hours(
      static_cast<std::int64_t>(args.getDouble("days", 7.0) * 24.0));
  const auto synthetic =
      generateSyntheticTrace(topology.graph(), generator);
  const trace::Trace& trace = synthetic.trace;

  std::cout << "=== playback throughput: " << flows.size() << " flows x "
            << schemes.size() << " schemes over "
            << trace.intervalCount() << " intervals ("
            << util::toSeconds(trace.duration()) / 86'400.0 << " days), "
            << threads << " thread(s) ===\n";

  // Legacy replay: per-interval vector materialization, no decision memo,
  // optimized evaluators.
  playback::PlaybackParams legacyParams = base;
  legacyParams.decisionMemo = false;
  legacyParams.conditionCursor = false;
  const playback::PlaybackEngine legacyEngine(topology.graph(), trace,
                                              legacyParams);
  const RunMeasurement legacy =
      runAllJobs(legacyEngine, flows, schemes, schemeParams, threads);
  std::cout << "baseline (legacy):  " << legacy.wallSeconds << " s, "
            << legacy.intervalsPerSecond << " intervals/s, "
            << legacy.allocations << " allocations\n";

  // Optimized path: condition cursor + cross-job decision memo.
  const playback::PlaybackEngine optimizedEngine(topology.graph(), trace,
                                                 base);
  const RunMeasurement optimized =
      runAllJobs(optimizedEngine, flows, schemes, schemeParams, threads);
  const routing::DecisionMemo::Stats memoStats =
      optimizedEngine.decisionMemo().stats();
  std::cout << "optimized (cursor+memo): " << optimized.wallSeconds
            << " s, " << optimized.intervalsPerSecond << " intervals/s, "
            << optimized.allocations << " allocations\n";

  const double speedup =
      legacy.wallSeconds > 0 && optimized.wallSeconds > 0
          ? legacy.wallSeconds / optimized.wallSeconds
          : 0.0;
  const bool identical =
      resultsIdentical(legacy.results, optimized.results);
  std::cout << "speedup: " << speedup << "x; results identical: "
            << (identical ? "yes" : "NO") << "; decision memo: "
            << memoStats.decisionHits << " hits / "
            << memoStats.decisionMisses << " misses\n";

  const playback::StageBreakdown optimizedStages =
      optimizedEngine.stageTimings().snapshot();

  // ---- Chunk-parallel packed sweep, cold and warm memo cache ----------
  const auto tmpDir = std::filesystem::temp_directory_path();
  const std::string packedPath =
      (tmpDir / "bench_playback_trace.dgtrace").string();
  const std::string memoPath =
      (tmpDir / "bench_playback_memo.dgmemo").string();
  store::packTrace(trace, packedPath);
  std::filesystem::remove(memoPath);

  playback::ExperimentConfig chunkedConfig;
  chunkedConfig.flows = flows;
  chunkedConfig.schemes = schemes;
  chunkedConfig.schemeParams = schemeParams;
  chunkedConfig.playback = base;
  chunkedConfig.threads = threads;
  chunkedConfig.memoCachePath = memoPath;

  const auto runChunked = [&](const char* label, RunMeasurement& m) {
    const std::uint64_t allocBefore =
        g_allocationCount.load(std::memory_order_relaxed);
    const std::uint64_t bytesBefore =
        g_allocationBytes.load(std::memory_order_relaxed);
    util::WallClock stopwatch;
    stopwatch.start();
    auto result = playback::runPackedExperiment(topology.graph(), packedPath,
                                                chunkedConfig);
    m.wallSeconds = stopwatch.elapsedSeconds();
    m.allocations =
        g_allocationCount.load(std::memory_order_relaxed) - allocBefore;
    m.allocatedBytes =
        g_allocationBytes.load(std::memory_order_relaxed) - bytesBefore;
    const double replayed = static_cast<double>(flows.size()) *
                            static_cast<double>(schemes.size()) *
                            static_cast<double>(trace.intervalCount());
    m.intervalsPerSecond =
        m.wallSeconds > 0 ? replayed / m.wallSeconds : 0.0;
    m.results = std::move(result.perFlow);
    std::cout << label << ": " << m.wallSeconds << " s, "
              << m.intervalsPerSecond << " intervals/s (memo cache "
              << playback::memoCacheLoadResultName(result.memoCacheLoad)
              << ", " << result.memoStats.decisionHits << " hits)\n";
    return result;
  };

  RunMeasurement chunkedCold;
  const auto coldResult =
      runChunked("chunked cold (packed)", chunkedCold);
  RunMeasurement chunkedWarm;
  const auto warmResult =
      runChunked("chunked warm (packed)", chunkedWarm);
  // The warm sidecar may change timing, never results.
  const bool chunkedIdentical =
      resultsIdentical(chunkedCold.results, chunkedWarm.results);
  if (!chunkedIdentical)
    std::cerr << "FAIL: warm memo cache changed chunked results\n";

  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\n"
       << "  \"days\": " << args.getDouble("days", 7.0) << ",\n"
       << "  \"intervals\": " << trace.intervalCount() << ",\n"
       << "  \"flows\": " << flows.size() << ",\n"
       << "  \"schemes\": " << schemes.size() << ",\n"
       << "  \"jobs\": " << flows.size() * schemes.size() << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"mc_samples\": " << base.mcSamples << ",\n";
  appendRunJson(json, "baseline", legacy);
  json << ",\n";
  appendRunJson(json, "optimized", optimized);
  json << ",\n";
  appendStagesJson(json, "optimized_stages", optimizedStages);
  json << ",\n";
  appendRunJson(json, "chunked_cold", chunkedCold);
  json << ",\n";
  appendStagesJson(json, "chunked_cold_stages", coldResult.stages);
  json << ",\n";
  appendRunJson(json, "chunked_warm", chunkedWarm);
  json << ",\n";
  appendStagesJson(json, "chunked_warm_stages", warmResult.stages);
  json << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"results_identical\": " << (identical ? "true" : "false")
       << ",\n"
       << "  \"chunked_results_identical\": "
       << (chunkedIdentical ? "true" : "false") << ",\n"
       << "  \"memo_cache\": {\n"
       << "    \"cold_load\": \""
       << playback::memoCacheLoadResultName(coldResult.memoCacheLoad)
       << "\",\n"
       << "    \"warm_load\": \""
       << playback::memoCacheLoadResultName(warmResult.memoCacheLoad)
       << "\",\n"
       << "    \"warm_hits\": " << warmResult.memoStats.decisionHits << ",\n"
       << "    \"warm_misses\": " << warmResult.memoStats.decisionMisses
       << ",\n"
       << "    \"decisions\": " << warmResult.memoStats.decisions << "\n"
       << "  },\n"
       << "  \"decision_memo\": {\n"
       << "    \"hits\": " << memoStats.decisionHits << ",\n"
       << "    \"misses\": " << memoStats.decisionMisses << ",\n"
       << "    \"decisions\": " << memoStats.decisions << ",\n"
       << "    \"edge_lists\": " << memoStats.edgeLists << ",\n"
       << "    \"contexts\": " << memoStats.contexts << "\n"
       << "  },\n";
  bench::appendMachineJson(json);
  json << "\n}\n";

  const std::string outPath =
      args.getString("out", "BENCH_playback.json");
  std::ofstream out(outPath);
  if (!out) {
    std::cerr << "cannot open " << outPath << '\n';
    return 1;
  }
  out << json.str();
  std::cout << "wrote " << outPath << '\n';

  if (!identical) {
    std::cerr << "FAIL: legacy and optimized results differ\n";
    return 1;
  }
  if (!chunkedIdentical) return 1;

  // Regression gate: compare against a previous run's optimized arm.
  if (args.has("baseline")) {
    const double previous = baselineIps;
    if (optimized.intervalsPerSecond < previous * 0.9) {
      std::cerr << "FAIL: optimized throughput "
                << optimized.intervalsPerSecond << " intervals/s is >10% below baseline "
                << previous << " intervals/s\n";
      return 3;
    }
    std::cout << "regression gate: " << optimized.intervalsPerSecond
              << " vs baseline " << previous << " intervals/s -- ok\n";
  }
  return 0;
}
