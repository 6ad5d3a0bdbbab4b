// The decision replay and the evaluation step shared by the unicast and
// group playback engines.
//
// Both engines score a scheme by replaying the identical condition
// stream: the decision for interval t sees the view of interval
// t - staleness (the healthy baseline until the scheme has history to
// look at), and the selection is then evaluated under interval t's true
// conditions. The decisions depend only on the views, never on the
// scoring, so a run is two passes. ReplayCore::decide runs a scheme once
// over a range, calling select() on every interval, and records a
// run-length SelectionTimeline: the first interval of each run of equal
// selections and the sorted edge list of each distinct selection. It
// also records the decisions' telemetry: the scheme's classifications
// and a GraphSwitch at every run start after the decision start.
// ReplayCore::score then scores any sub-range of that timeline with no
// scheme at all: range checks, a cursor over an optional ConditionSource,
// accumulation-block folds, the clean-interval reuse cache (keyed by
// selection) and the optional miss timeline. EvalStep scores one
// interval's send against a receiver set -- a unicast flow is the
// one-receiver case -- and adds it to a RunPartial; the engines are
// drivers that build the scheme and the step and read their result
// records out of the merged partial.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "graph/graph.hpp"
#include "playback/delivery_model.hpp"
#include "routing/network_view.hpp"
#include "routing/scheme.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/condition_timeline.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"
#include "util/wall_clock.hpp"

namespace dg::playback {

struct PlaybackParams {
  DeliveryModelParams delivery;
  /// Monte-Carlo samples per lossy interval.
  int mcSamples = 1000;
  /// Member-link loss rate above which an interval needs Monte-Carlo.
  double lossEpsilon = 1e-3;
  /// How stale the view driving adaptive decisions is, in intervals.
  /// 0 = oracle (decisions see current conditions), 1 = realistic.
  int viewStaleness = 1;
  /// An interval is counted as "problematic" for a flow/scheme when its
  /// miss probability exceeds this.
  double problematicThreshold = 1e-3;
  /// Seed driving all Monte-Carlo sampling (per-interval streams are
  /// derived deterministically, so results are independent of run order).
  std::uint64_t seed = 7;
  /// When set, FlowSchemeResult::intervalLatenciesUs records the selected
  /// graph's earliest-arrival latency for every interval where delivery
  /// is possible (for latency-distribution figures; receiver 0 of a
  /// group).
  bool collectIntervalLatencies = false;
  /// Consult/populate the engine's cross-job decision memo (results are
  /// bit-identical either way; off = recompute every selection, for
  /// benchmarking and equivalence tests).
  bool decisionMemo = true;
  /// Drive replay with the condition-timeline cursor and fingerprinted
  /// views (off = legacy per-interval vector materialization; results
  /// are bit-identical either way).
  bool conditionCursor = true;
  /// Accumulation block length in intervals. 0 (default) accumulates the
  /// whole range into one block -- the historical behavior. When set,
  /// per-interval statistics are folded into per-block partials at
  /// absolute interval boundaries (t % block == 0) and the blocks are
  /// merged in order, and the run-local clean-interval reuse cache is
  /// reset at each boundary. This fixes the floating-point merge tree, so
  /// a chunk-parallel sweep whose chunks coincide with the blocks
  /// produces bit-identical results at any thread count -- and identical
  /// to a single-threaded run with the same block length. (Results with
  /// block B differ from block 0 in the last float bits; both are valid.)
  std::size_t accumBlockIntervals = 0;
  /// Accumulate per-stage wall-clock nanoseconds (decode / Monte-Carlo /
  /// memo / merge) into PlaybackEngine::stageTimings(). Adds two clock
  /// reads around each non-trivial operation; leave off outside
  /// benchmarks.
  bool collectStageTimings = false;
};

/// Per-stage wall-clock totals of a finished sweep, summed over all
/// workers (see StageTimings for what each stage covers).
struct StageBreakdown {
  std::uint64_t decodeNs = 0;
  std::uint64_t mcNs = 0;
  std::uint64_t memoNs = 0;
  std::uint64_t mergeNs = 0;
};

/// Cumulative wall-clock nanoseconds per replay stage, summed across all
/// runs on one engine (each pass adds its local tallies once, relaxed).
/// Collected only when PlaybackParams::collectStageTimings is set.
/// "decode" is condition access (cursor seeks, span fetches, legacy
/// vector materialization), "mc" is Monte-Carlo evaluation, "memo" is
/// routing selects plus deterministic evaluations and memo traffic,
/// "merge" is block folds and partial merges.
struct StageTimings {
  std::atomic<std::uint64_t> decodeNs{0};
  std::atomic<std::uint64_t> mcNs{0};
  std::atomic<std::uint64_t> memoNs{0};
  std::atomic<std::uint64_t> mergeNs{0};

  StageBreakdown snapshot() const {
    return {decodeNs.load(std::memory_order_relaxed),
            mcNs.load(std::memory_order_relaxed),
            memoNs.load(std::memory_order_relaxed),
            mergeNs.load(std::memory_order_relaxed)};
  }
};

/// One pass's stage tallies: start() before a stage, stop(bucket) after
/// it. A disabled clock never reads the clock.
class StageClock {
 public:
  explicit StageClock(bool enabled) : enabled_(enabled) {}
  void start() {
    if (enabled_) t0_ = util::nowNanos();
  }
  void stop(std::uint64_t& bucket) {
    if (enabled_) bucket += static_cast<std::uint64_t>(util::nowNanos() - t0_);
  }
  void flush(StageTimings& into) const {
    if (!enabled_) return;
    into.decodeNs.fetch_add(decodeNs, std::memory_order_relaxed);
    into.mcNs.fetch_add(mcNs, std::memory_order_relaxed);
    into.memoNs.fetch_add(memoNs, std::memory_order_relaxed);
    into.mergeNs.fetch_add(mergeNs, std::memory_order_relaxed);
  }

  std::uint64_t decodeNs = 0;
  std::uint64_t mcNs = 0;
  std::uint64_t memoNs = 0;
  std::uint64_t mergeNs = 0;

 private:
  bool enabled_;
  std::int64_t t0_ = 0;
};

/// The per-interval telemetry series an engine records, labeled
/// {labelKey=EvalSpec::label, scheme=EvalSpec::schemeName}.
struct ReplayMetricNames {
  const char* labelKey;
  const char* intervals;
  const char* mcIntervals;
  const char* mcSamples;
  const char* graphSwitches;
  const char* missHistogram;
};

/// One pass over [first, last): scoring it from a SelectionTimeline that
/// covers it, or deciding what scoring it needs (ReplayCore::decide).
struct ScoreSpec {
  const char* caller = "";  ///< names the entry point in range errors
  std::size_t first = 0;
  std::size_t last = 0;
  /// Nullable: cursor over the engine's in-memory trace instead.
  trace::ConditionSource* source = nullptr;
  telemetry::Telemetry* telemetry = nullptr;
  /// Reuse the evaluation of a clean interval while the selected graph
  /// is unchanged (including Monte-Carlo ones -- identical inputs,
  /// identical distribution). Off = every interval evaluated fresh, so
  /// each Monte-Carlo interval reflects its own RNG stream.
  bool reuseCleanEvals = true;
  /// Nullable: receives every scored interval's delivered-to-all miss (a
  /// unicast flow's miss probability).
  std::vector<double>* missTimeline = nullptr;
};

/// The decisions of one (flow or group, scheme) pass, run-length coded.
/// Selections are stored as edge lists: a DisseminationGraph is canonical
/// in its edge set (addEdge keeps every list sorted), so graph() rebuilds
/// the scheme's graph exactly.
struct SelectionTimeline {
  struct Run {
    std::size_t start = 0;      ///< the run's first interval
    std::size_t selection = 0;  ///< index into `selections`
  };
  std::size_t first = 0;  ///< decision start
  std::size_t last = 0;   ///< one past the last decided interval
  graph::NodeId source = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  std::vector<Run> runs;  ///< ascending starts; runs[0].start == first
  /// Distinct selections, sorted edge lists in first-use order.
  std::vector<std::vector<graph::EdgeId>> selections;

  /// Records interval t's selection (t ascending, one call per
  /// interval); returns whether it starts a new run.
  bool append(std::size_t t, const graph::DisseminationGraph& dg);
  /// Selection `index` as a graph over `overlay`.
  graph::DisseminationGraph graph(const graph::Graph& overlay,
                                  std::size_t index) const;
};

/// Deterministic per-(source, receivers, scheme, interval) Monte-Carlo
/// seed, so results do not depend on evaluation order. A unicast flow is
/// the one-receiver case -- which is what makes a single-receiver group
/// draw the identical stream as the unicast run of its scheme's unicast
/// equivalent.
std::uint64_t intervalSeed(std::uint64_t seed, graph::NodeId source,
                           std::span<const graph::NodeId> receivers,
                           routing::SchemeKind kind, std::size_t interval);

/// Appends `later` (the record list of the range after `into`'s) in order.
template <typename T>
void appendInOrder(std::vector<T>& into, std::vector<T>&& later) {
  if (into.empty()) {
    into = std::move(later);
  } else {
    into.insert(into.end(), later.begin(), later.end());
  }
}

/// One problematic interval of a run (sparse record).
struct ProblematicInterval {
  std::size_t interval = 0;
  double missProbability = 0.0;
};

/// Partial accumulation of one contiguous interval range of a (flow or
/// group, scheme) run. Chunk-parallel sweeps compute one RunPartial per
/// chunk and fold them in chunk order; merging partials of adjacent
/// ranges in ascending order reproduces the single-threaded blocked
/// accumulation bit for bit (see PlaybackParams::accumBlockIntervals).
struct RunPartial {
  std::vector<util::WeightedMean> receiverMiss;
  std::vector<util::OnlineStats> receiverLatency;
  std::vector<double> receiverUnavailableSeconds;
  std::vector<std::size_t> receiverProblematic;
  util::WeightedMean missAllMean;
  util::WeightedMean missKMean;
  util::OnlineStats costStats;
  double unavailableAllSeconds = 0.0;
  std::size_t problematicIntervals = 0;
  std::vector<ProblematicInterval> problems;
  /// Receiver 0's arrival per interval where delivery is possible
  /// (PlaybackParams::collectIntervalLatencies only).
  std::vector<double> intervalLatenciesUs;

  /// Sizes the per-receiver accumulators (idempotent).
  void resize(std::size_t receiverCount);
  /// Folds a partial covering the range immediately *after* this one.
  void merge(RunPartial&& later);
};

/// One interval's evaluation. Hoisted outside the scoring loop (the
/// vectors keep their capacity across intervals).
struct IntervalEval {
  std::vector<double> miss;            ///< per receiver
  std::vector<util::SimTime> arrival;  ///< per receiver, kNever = none
  double missAll = 0.0;                ///< P(some receiver misses)
  double missK = 0.0;                  ///< P(fewer than k on time)
  double cost = 0.0;
  bool monteCarlo = false;  ///< the lossy path actually sampled
};

/// What one scoring pass evaluates, and how its telemetry is labeled.
struct EvalSpec {
  graph::NodeId source = graph::kInvalidNode;
  /// Borrowed; must outlive the step. A unicast flow is {destination}.
  std::span<const graph::NodeId> receivers;
  /// Parallel to `receivers`.
  std::vector<util::SimTime> deadlines;
  /// Delivered-to-k bar; 0 (or >= receiver count) means all receivers.
  std::size_t deliveredK = 0;
  /// The scheme kind folded into the Monte-Carlo stream seed (a group
  /// scheme's unicast equivalent, so one receiver draws unicast's stream).
  routing::SchemeKind seedKind{};
  std::string label;  ///< metric label value
  std::string_view schemeName;
  ReplayMetricNames metrics;

  /// {metrics.labelKey=label, scheme=schemeName}.
  telemetry::Labels metricLabels() const {
    return {{metrics.labelKey, label}, {"scheme", std::string(schemeName)}};
  }
};

/// ReplayCore::score's evaluation step. It evaluates each interval the
/// clean-interval cache does not serve -- per-receiver misses on the
/// deterministic near-lossless path (group lines by inclusion-exclusion
/// and the delivered-to-k Poisson-binomial DP), or the per-sample
/// delivered-count histogram under Monte-Carlo over the interval's own
/// RNG stream -- and adds every interval's evaluation to a RunPartial.
class EvalStep {
 public:
  EvalStep(const PlaybackParams& params, EvalSpec spec);

  const EvalSpec& spec() const { return spec_; }

  void evaluateInterval(std::size_t t, const graph::DisseminationGraph& dg,
                        std::span<const double> lossRates,
                        std::span<const util::SimTime> latencies,
                        IntervalEval& eval, StageClock& clock);
  void accumulate(RunPartial& acc, std::size_t t, const IntervalEval& eval,
                  double intervalSeconds) const;

 private:
  const PlaybackParams& params_;
  EvalSpec spec_;
  std::size_t kBar_;
  DeliveryWorkspace workspace_;
  // Monte-Carlo tallies and the delivered-to-k DP row, sized once so
  // per-interval work never allocates.
  std::vector<int> onTimeCounts_;
  std::vector<int> deliveredHistogram_;
  std::vector<double> dp_;
};

// The per-interval methods are defined here, not in replay.cpp, so they
// inline into ReplayCore::score's loop: out of line, the unicast-week and
// mcast-groups benchmark workloads ran measurably slower.
inline void EvalStep::evaluateInterval(
    std::size_t t, const graph::DisseminationGraph& dg,
    std::span<const double> lossRates,
    std::span<const util::SimTime> latencies, IntervalEval& eval,
    StageClock& clock) {
  const std::size_t n = spec_.receivers.size();
  eval.miss.resize(n);  // no-op after the first interval
  eval.arrival.resize(n);
  // Stage buckets: the deterministic evaluation (and its group
  // accounting) is "memo", the Monte-Carlo one "mc".
  clock.start();
  if (nearLossless(dg, lossRates, params_.lossEpsilon)) {
    missGroupNearLossless(dg, spec_.receivers, spec_.deadlines, lossRates,
                          latencies, params_.delivery, workspace_, eval.miss,
                          eval.arrival);
    eval.monteCarlo = false;
    // Group accounting under per-receiver independence (residual misses
    // live on near-disjoint earliest paths; shared hops make this an
    // upper bound on the delivered-to-all probability gap): P(some
    // receiver misses) via incremental inclusion-exclusion.
    double missAll = eval.miss[0];
    for (std::size_t r = 1; r < n; ++r)
      missAll = missAll + eval.miss[r] - missAll * eval.miss[r];
    eval.missAll = missAll;
    if (kBar_ == n) {
      eval.missK = missAll;
    } else {
      // Poisson-binomial tail: dp[c] = P(exactly c receivers on time)
      // after the receivers folded so far.
      std::fill(dp_.begin(), dp_.end(), 0.0);
      dp_[0] = 1.0;
      for (std::size_t r = 0; r < n; ++r) {
        const double q = 1.0 - eval.miss[r];
        for (std::size_t c = r + 1; c >= 1; --c)
          dp_[c] = dp_[c] * eval.miss[r] + dp_[c - 1] * q;
        dp_[0] *= eval.miss[r];
      }
      double atLeastK = 0.0;
      for (std::size_t c = kBar_; c <= n; ++c) atLeastK += dp_[c];
      eval.missK = 1.0 - atLeastK;
    }
    clock.stop(clock.memoNs);
  } else {
    // The stream folds in every receiver (in order) and the seed kind, so
    // a single-receiver group draws the stream of its unicast equivalent.
    util::Rng rng(intervalSeed(params_.seed, spec_.source, spec_.receivers,
                               spec_.seedKind, t));
    onTimeCountsMCGroup(dg, spec_.receivers, spec_.deadlines, lossRates,
                        latencies, params_.delivery, params_.mcSamples, rng,
                        workspace_, onTimeCounts_, deliveredHistogram_);
    const auto samples = static_cast<double>(params_.mcSamples);
    for (std::size_t r = 0; r < n; ++r)
      eval.miss[r] = 1.0 - static_cast<double>(onTimeCounts_[r]) / samples;
    int deliveredAtLeastK = 0;
    for (std::size_t c = kBar_; c <= n; ++c)
      deliveredAtLeastK += deliveredHistogram_[c];
    eval.missAll = 1.0 - static_cast<double>(deliveredHistogram_[n]) / samples;
    eval.missK = 1.0 - static_cast<double>(deliveredAtLeastK) / samples;
    clock.stop(clock.mcNs);
    groupCleanArrivals(dg, latencies, spec_.receivers, workspace_,
                       eval.arrival);
    eval.monteCarlo = true;
  }
  // Both evaluations above leave the clean earliest-arrival run under
  // `latencies` in the workspace; the cost is counted off it.
  eval.cost = static_cast<double>(
      dg.cost(latencies, workspace_.dist, workspace_.via));
}

inline void EvalStep::accumulate(RunPartial& acc, std::size_t t,
                                 const IntervalEval& eval,
                                 double intervalSeconds) const {
  const std::size_t n = spec_.receivers.size();
  acc.resize(n);  // no-op once sized
  for (std::size_t r = 0; r < n; ++r) {
    acc.receiverMiss[r].add(eval.miss[r], 1.0);
    if (eval.arrival[r] != util::kNever)
      acc.receiverLatency[r].add(static_cast<double>(eval.arrival[r]));
    acc.receiverUnavailableSeconds[r] += eval.miss[r] * intervalSeconds;
    if (eval.miss[r] > params_.problematicThreshold)
      ++acc.receiverProblematic[r];
  }
  if (params_.collectIntervalLatencies && eval.arrival[0] != util::kNever) {
    acc.intervalLatenciesUs.push_back(  // dgcheck: ok(R5): opt-in interval-latency capture; amortized push on the diagnostic path
        static_cast<double>(eval.arrival[0]));
  }
  acc.missAllMean.add(eval.missAll, 1.0);
  acc.missKMean.add(eval.missK, 1.0);
  acc.costStats.add(eval.cost);
  acc.unavailableAllSeconds += eval.missAll * intervalSeconds;
  if (eval.missAll > params_.problematicThreshold) {
    ++acc.problematicIntervals;
    acc.problems.push_back(  // dgcheck: ok(R5): bounded by problematic intervals; diagnostic record with amortized growth
        ProblematicInterval{t, eval.missAll});
  }
}


class ReplayCore {
 public:
  /// `owner` prefixes construction errors.
  ReplayCore(const graph::Graph& overlay, const trace::Trace& trace,
             const PlaybackParams& params, std::string_view owner);

  const PlaybackParams& params() const { return params_; }
  const graph::Graph& overlay() const { return *overlay_; }
  const trace::Trace& trace() const { return *trace_; }
  const trace::ConditionIndex& conditionIndex() const {
    return conditionIndex_;
  }
  StageTimings& stageTimings() const { return stageTimings_; }
  /// Adds a sweep's own merge work to the "merge" stage (when collected).
  void addMergeNs(std::uint64_t ns) const {
    if (params_.collectStageTimings)
      stageTimings_.mergeNs.fetch_add(ns, std::memory_order_relaxed);
  }

  /// Pass 1: initializes `scheme` (memo-attached, not yet initialized)
  /// and selects on every interval of [from, spec.last) -- on the
  /// baseline view while the scheme has no history or the view of
  /// t - staleness is clean, otherwise on that view. Over spec's range,
  /// the scheme's classifications and every GraphSwitch (a run start
  /// after `from`) are recorded under `target`'s labels, so a job's trace
  /// events come in the order its decisions were made; decisions before
  /// it only build up state.
  template <typename Scheme>
  SelectionTimeline decide(Scheme& scheme, std::size_t from,
                           const ScoreSpec& spec,
                           const EvalSpec& target) const {
    if (from > spec.first || spec.first > spec.last ||
        spec.last > trace_->intervalCount())
      throw std::out_of_range(std::string(spec.caller) + ": bad range");
    // dgcheck: setup begin
    const routing::NetworkView baselineView =
        routing::NetworkView::baseline(*trace_);
    scheme.initialize(baselineView);
    trace::ConditionTimeline cursor = cursorOver(spec.source);
    telemetry::Telemetry* const telemetry = spec.telemetry;
    telemetry::Counter* switchCounter = nullptr;
    if (telemetry != nullptr) {
      switchCounter = &telemetry->metrics.counter(target.metrics.graphSwitches,
                                                  target.metricLabels());
    }
    SelectionTimeline timeline;
    timeline.first = from;
    timeline.last = spec.last;
    StageClock clock(params_.collectStageTimings);
    // dgcheck: setup end
    for (std::size_t t = from; t < spec.last; ++t) {
      if (telemetry != nullptr) {
        if (t == spec.first) scheme.setTelemetry(telemetry, target.label);
        telemetry->now =
            static_cast<util::SimTime>(t) * trace_->intervalLength();
      }
      const graph::DisseminationGraph* dg = nullptr;
      if (t < from + staleness_ || !trace_->hasDeviation(t - staleness_)) {
        clock.start();
        dg = &scheme.select(baselineView);
        clock.stop(clock.memoNs);
      } else {
        const std::size_t viewInterval = t - staleness_;
        clock.start();
        if (params_.conditionCursor) cursor.seek(viewInterval);
        const routing::NetworkView view =
            params_.conditionCursor
                ? routing::NetworkView::borrowing(
                      cursor, conditionIndex_.contentId(viewInterval))
                : routing::NetworkView::atInterval(*trace_, viewInterval);
        clock.stop(clock.decodeNs);
        clock.start();
        dg = &scheme.select(view);
        clock.stop(clock.memoNs);
      }
      if (timeline.append(t, *dg) && telemetry != nullptr &&
          t >= spec.first && t > from) {
        switchCounter->inc();
        telemetry->trace.record(telemetry->now,
                                telemetry::TraceEventKind::GraphSwitch, -1,
                                target.source, -1,
                                static_cast<double>(dg->edges().size()),
                                std::string(target.schemeName));
      }
    }
    clock.flush(stageTimings_);
    return timeline;
  }

  /// Pass 2: scores spec's range of `timeline` with `step`. With
  /// accumBlockIntervals == B > 0, per-interval statistics fold into
  /// blocks at absolute boundaries (t % B == 0), where the clean-reuse
  /// cache is also reset -- so partials of B-aligned ranges merged in
  /// ascending order reproduce one pass over their union bit for bit.
  // dgcheck: hot
  RunPartial score(const SelectionTimeline& timeline, EvalStep& step,
                   const ScoreSpec& spec) const {
    if (spec.first > spec.last || spec.first < timeline.first ||
        spec.last > timeline.last)
      throw std::out_of_range(std::string(spec.caller) + ": bad range");
    // dgcheck: setup begin
    trace::ConditionTimeline truthCursor = cursorOver(spec.source);
    std::vector<graph::DisseminationGraph> graphs;
    graphs.reserve(timeline.selections.size());
    for (std::size_t i = 0; i < timeline.selections.size(); ++i)
      graphs.push_back(timeline.graph(*overlay_, i));
    std::size_t run = 0;  // the run in force at spec.first
    while (run + 1 < timeline.runs.size() &&
           timeline.runs[run + 1].start <= spec.first)
      ++run;

    telemetry::Telemetry* const telemetry = spec.telemetry;
    telemetry::Counter* intervalsCounter = nullptr;
    telemetry::Counter* mcIntervalsCounter = nullptr;
    telemetry::Counter* mcSamplesCounter = nullptr;
    telemetry::HistogramMetric* missHistogram = nullptr;
    if (telemetry != nullptr) {
      const ReplayMetricNames& names = step.spec().metrics;
      const telemetry::Labels labels = step.spec().metricLabels();
      telemetry::MetricsRegistry& metrics = telemetry->metrics;
      intervalsCounter = &metrics.counter(names.intervals, labels);
      mcIntervalsCounter = &metrics.counter(names.mcIntervals, labels);
      mcSamplesCounter = &metrics.counter(names.mcSamples, labels);
      missHistogram =
          &metrics.histogram(names.missHistogram, 0.0, 1.0, 20, labels);
    }

    RunPartial total;
    RunPartial block;
    const std::size_t blockLen = params_.accumBlockIntervals;
    RunPartial* const acc = blockLen > 0 ? &block : &total;
    const double intervalSeconds = util::toSeconds(trace_->intervalLength());

    // Run-local reuse: when the interval is clean and the selection is
    // the one whose clean evaluation is cached, the evaluation is
    // unchanged.
    constexpr std::size_t kNoSelection = static_cast<std::size_t>(-1);
    IntervalEval eval;
    IntervalEval cachedEval;
    std::size_t cachedSelection = kNoSelection;
    // Legacy (non-cursor) mode materializes each interval's conditions.
    std::vector<double> lossBuffer;
    std::vector<util::SimTime> latencyBuffer;
    StageClock clock(params_.collectStageTimings);
    // dgcheck: setup end
    for (std::size_t t = spec.first; t < spec.last; ++t) {
      if (blockLen > 0 && t != spec.first && t % blockLen == 0) {
        clock.start();
        foldBlock(total, block);
        clock.stop(clock.mergeNs);
        cachedSelection = kNoSelection;
      }
      if (run + 1 < timeline.runs.size() && timeline.runs[run + 1].start <= t)
        ++run;
      const std::size_t selection = timeline.runs[run].selection;
      const graph::DisseminationGraph& dg = graphs[selection];

      // --- Outcome under the interval's true conditions ----------------
      const bool clean = !trace_->hasDeviation(t);
      if (spec.reuseCleanEvals && clean && selection == cachedSelection) {
        eval = cachedEval;
      } else {
        std::span<const double> lossRates;
        std::span<const util::SimTime> latencies;
        clock.start();
        if (params_.conditionCursor) {
          truthCursor.seek(t);
          lossRates = truthCursor.lossRates();
          latencies = truthCursor.latencies();
        } else {
          lossBuffer = trace_->lossRatesAt(t);
          latencyBuffer = trace_->latenciesAt(t);
          lossRates = lossBuffer;
          latencies = latencyBuffer;
        }
        clock.stop(clock.decodeNs);
        step.evaluateInterval(t, dg, lossRates, latencies, eval, clock);
        if (spec.reuseCleanEvals && clean) {
          cachedEval = eval;
          cachedSelection = selection;
        }
        if (eval.monteCarlo && mcIntervalsCounter != nullptr) {
          mcIntervalsCounter->inc();
          mcSamplesCounter->inc(static_cast<std::uint64_t>(params_.mcSamples));
        }
      }
      // The observed miss is the delivered-to-all one (a flow's miss).
      if (intervalsCounter != nullptr) {
        intervalsCounter->inc();
        missHistogram->observe(eval.missAll);
      }
      if (spec.missTimeline != nullptr)
        spec.missTimeline->push_back(eval.missAll);  // dgcheck: ok(R5): diagnostic miss-timeline output; absent in benchmark runs
      step.accumulate(*acc, t, eval, intervalSeconds);
    }
    if (blockLen > 0) {
      clock.start();
      foldBlock(total, block);
      clock.stop(clock.mergeNs);
    }
    clock.flush(stageTimings_);
    return total;
  }

  /// The selection `scheme` (not yet initialized) has in force at
  /// `interval`: a lookup in the timeline of a decision pass over
  /// [0, interval].
  template <typename Scheme>
  graph::DisseminationGraph selectionAt(Scheme& scheme,
                                        std::size_t interval) const {
    const SelectionTimeline timeline = decide(
        scheme, 0,
        {.caller = "ReplayCore::selectionAt", .first = interval,
         .last = interval + 1},
        EvalSpec{});
    return timeline.graph(*overlay_, timeline.runs.back().selection);
  }

 private:
  /// A cursor over `source`, or over the in-memory trace when null.
  trace::ConditionTimeline cursorOver(trace::ConditionSource* source) const {
    return source != nullptr ? trace::ConditionTimeline(*source)
                             : trace::ConditionTimeline(*trace_);
  }

  /// Folds the finished accumulation block into `total` and empties it.
  // dgcheck: cold: runs once per accumulation block, not per interval
  static void foldBlock(RunPartial& total, RunPartial& block) {
    total.merge(std::move(block));
    block = RunPartial{};
  }

  const graph::Graph* overlay_;
  const trace::Trace* trace_;
  PlaybackParams params_;
  std::size_t staleness_;
  trace::ConditionIndex conditionIndex_;
  mutable StageTimings stageTimings_;
};

}  // namespace dg::playback
