// The decision replay and the evaluation step shared by the unicast and
// group playback engines.
//
// Both engines score a scheme by replaying the identical condition
// stream: the decision for interval t sees the view of interval
// t - staleness (the healthy baseline until the scheme has history to
// look at), and the selection is then evaluated under interval t's true
// conditions. ReplayCore owns every part of that replay that does not
// depend on what is being scored: range checks, cursors over an optional
// ConditionSource, the warm-up roll-forward with its steady-span jump,
// the per-interval decision step (cursor and legacy mode), GraphSwitch
// continuity, accumulation-block folds, the clean-interval reuse cache
// and the optional miss timeline. EvalStep scores one interval's send
// against a receiver set -- a unicast flow is the one-receiver case --
// and adds it to a RunPartial; the engines are drivers that build the
// step and read their result records out of the merged partial.
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

/// One scoring pass: decisions start from a freshly initialized scheme
/// at `historyStart`, [historyStart, first) is replayed for decision
/// state only (telemetry detached), and [first, last) is scored. runRange
/// passes historyStart == first; chunk partials pass 0 so their decision
/// state matches a full run's.
struct ScoreSpec {
  const char* caller = "";  ///< names the entry point in range errors
  std::size_t historyStart = 0;
  std::size_t first = 0;
  std::size_t last = 0;
  /// Nullable: cursor over the engine's in-memory trace instead.
  trace::ConditionSource* decisionSource = nullptr;
  trace::ConditionSource* truthSource = nullptr;
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
  eval.cost = static_cast<double>(dg.cost(latencies));
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

  /// Scores spec's range with `scheme` (already memo-attached, not yet
  /// initialized) and `step`. With accumBlockIntervals == B > 0,
  /// per-interval statistics fold into blocks at absolute boundaries
  /// (t % B == 0), where the clean-reuse cache is also reset -- so
  /// partials of B-aligned ranges merged in ascending order reproduce one
  /// pass over their union bit for bit.
  // dgcheck: hot
  template <typename Scheme>
  RunPartial score(Scheme& scheme, EvalStep& step,
                   const ScoreSpec& spec) const {
    if (spec.historyStart > spec.first || spec.first > spec.last ||
        spec.last > trace_->intervalCount())
      throw std::out_of_range(std::string(spec.caller) + ": bad range");
    // dgcheck: setup begin
    const routing::NetworkView baselineView =
        routing::NetworkView::baseline(*trace_);
    scheme.initialize(baselineView);
    trace::ConditionTimeline decisionCursor = cursorOver(spec.decisionSource);
    trace::ConditionTimeline truthCursor = cursorOver(spec.truthSource);
    Decision decision{&baselineView, &decisionCursor,
                      spec.historyStart + staleness_};
    rollForward(scheme, decision, spec.historyStart, spec.first);
    decision.steady = false;

    telemetry::Telemetry* const telemetry = spec.telemetry;
    // GraphSwitch continuity: a chunk's first interval compares against
    // the selection in force at the end of its warm-up.
    std::vector<graph::EdgeId> lastSelectedEdges;
    bool haveSelected = false;
    telemetry::Counter* intervalsCounter = nullptr;
    telemetry::Counter* mcIntervalsCounter = nullptr;
    telemetry::Counter* mcSamplesCounter = nullptr;
    telemetry::Counter* switchCounter = nullptr;
    telemetry::HistogramMetric* missHistogram = nullptr;
    if (telemetry != nullptr) {
      if (decision.dg != nullptr) {
        lastSelectedEdges = decision.dg->edges();
        haveSelected = true;
      }
      const EvalSpec& target = step.spec();
      scheme.setTelemetry(telemetry, target.label);
      const ReplayMetricNames& names = target.metrics;
      const telemetry::Labels labels{
          {names.labelKey, target.label},
          {"scheme", std::string(target.schemeName)}};
      telemetry::MetricsRegistry& metrics = telemetry->metrics;
      intervalsCounter = &metrics.counter(names.intervals, labels);
      mcIntervalsCounter = &metrics.counter(names.mcIntervals, labels);
      mcSamplesCounter = &metrics.counter(names.mcSamples, labels);
      switchCounter = &metrics.counter(names.graphSwitches, labels);
      missHistogram =
          &metrics.histogram(names.missHistogram, 0.0, 1.0, 20, labels);
    }

    // Steady fast path: while the scheme is at its clean fixed point and
    // the decision view stays on baseline, select() calls are provably
    // no-ops and may be skipped -- but only when nobody can observe them:
    // telemetry counts classifications per call, and passes without
    // clean reuse must evaluate every interval fresh.
    const bool fastPathOk =
        params_.conditionCursor && telemetry == nullptr &&
        spec.reuseCleanEvals;

    RunPartial total;
    RunPartial block;
    const std::size_t blockLen = params_.accumBlockIntervals;
    RunPartial* const acc = blockLen > 0 ? &block : &total;
    const double intervalSeconds = util::toSeconds(trace_->intervalLength());

    // Run-local reuse: when the interval is clean and the scheme returns
    // the same graph as last time, the evaluation is unchanged. `cachedDg`
    // short-circuits the edge-list comparison: it is reset on every actual
    // select()/fold, so pointer equality implies the selection was not
    // touched since the cache was filled.
    IntervalEval eval;
    IntervalEval cachedEval;
    std::vector<graph::EdgeId> cachedEdges;
    bool cacheValid = false;
    const graph::DisseminationGraph* cachedDg = nullptr;
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
        cacheValid = false;
        cachedDg = nullptr;
      }
      if (telemetry != nullptr) {
        telemetry->now =
            static_cast<util::SimTime>(t) * trace_->intervalLength();
      }
      if (decide(scheme, decision, t, fastPathOk, clock)) cachedDg = nullptr;
      const graph::DisseminationGraph& dg = *decision.dg;
      if (telemetry != nullptr) {
        if (haveSelected && dg.edges() != lastSelectedEdges) {
          switchCounter->inc();
          telemetry->trace.record(
              telemetry->now, telemetry::TraceEventKind::GraphSwitch, -1,
              step.spec().source, -1,
              static_cast<double>(dg.edges().size()),
              std::string(step.spec().schemeName));
        }
        lastSelectedEdges = dg.edges();
        haveSelected = true;
      }

      // --- Outcome under the interval's true conditions ----------------
      const bool clean = !trace_->hasDeviation(t);
      if (spec.reuseCleanEvals && clean && cacheValid &&
          (&dg == cachedDg || dg.edges() == cachedEdges)) {
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
          cachedEdges = dg.edges();
          cachedEval = eval;
          cacheValid = true;
          cachedDg = &dg;
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
  /// `interval`, reproduced by the same decision replay a scoring pass
  /// runs over [0, interval].
  template <typename Scheme>
  const graph::DisseminationGraph& selectionAt(Scheme& scheme,
                                               std::size_t interval) const {
    if (interval >= trace_->intervalCount())
      throw std::out_of_range("ReplayCore::selectionAt: bad interval");
    const routing::NetworkView baselineView =
        routing::NetworkView::baseline(*trace_);
    scheme.initialize(baselineView);
    trace::ConditionTimeline cursor(*trace_);
    Decision decision{&baselineView, &cursor, staleness_};
    rollForward(scheme, decision, 0, interval + 1);
    return *decision.dg;
  }

 private:
  /// Decision state carried across intervals.
  struct Decision {
    const routing::NetworkView* baselineView = nullptr;
    trace::ConditionTimeline* cursor = nullptr;
    /// Intervals below this are decided on the baseline view regardless
    /// of trace content (the scheme cannot have observed anything yet).
    std::size_t warmupUntil = 0;
    const graph::DisseminationGraph* dg = nullptr;
    /// The last select() was on baseline and left the scheme at its
    /// clean fixed point (RoutingScheme::steadyOnBaseline()).
    bool steady = false;
  };

  /// The decision step for interval t: selects on the view of
  /// t - staleness, or on the baseline view when the scheme has no
  /// history yet or that view is clean -- skipping the baseline select
  /// when `skipSteady` and the scheme is steady. Returns whether select()
  /// ran.
  template <typename Scheme>
  bool decide(Scheme& scheme, Decision& d, std::size_t t, bool skipSteady,
              StageClock& clock) const {
    const std::size_t staleness = staleness_;
    if (t < d.warmupUntil || !trace_->hasDeviation(t - staleness)) {
      if (d.steady && skipSteady) return false;
      clock.start();
      d.dg = &scheme.select(*d.baselineView);
      d.steady = scheme.steadyOnBaseline();
      clock.stop(clock.memoNs);
      return true;
    }
    const std::size_t viewInterval = t - staleness;
    clock.start();
    if (params_.conditionCursor) d.cursor->seek(viewInterval);
    const routing::NetworkView view =
        params_.conditionCursor
            ? routing::NetworkView::borrowing(
                  *d.cursor, conditionIndex_.contentId(viewInterval))
            : routing::NetworkView::atInterval(*trace_, viewInterval);
    clock.stop(clock.decodeNs);
    clock.start();
    d.dg = &scheme.select(view);
    clock.stop(clock.memoNs);
    d.steady = false;
    return true;
  }

  /// Warm-up: runs the decision step over [from, until) with telemetry
  /// detached, jumping clean steady spans straight to the next interval
  /// whose decision view deviates (the skipped selects are fixed-point
  /// no-ops, so nothing observable changes).
  template <typename Scheme>
  void rollForward(Scheme& scheme, Decision& d, std::size_t from,
                   std::size_t until) const {
    StageClock untimed(false);
    std::size_t t = from;
    while (t < until) {
      decide(scheme, d, t, false, untimed);
      t = d.steady ? nextDeviatingDecision(t + 1) : t + 1;
    }
  }

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

  /// Smallest interval t >= fromInterval whose decision view (t -
  /// staleness) carries a deviation; trace end if none. O(log
  /// deviations) via the sorted deviation list built at construction.
  std::size_t nextDeviatingDecision(std::size_t fromInterval) const;

  const graph::Graph* overlay_;
  const trace::Trace* trace_;
  PlaybackParams params_;
  std::size_t staleness_;
  trace::ConditionIndex conditionIndex_;
  /// Sorted intervals that deviate from baseline (for steady-span jumps).
  std::vector<std::size_t> deviatingIntervals_;
  mutable StageTimings stageTimings_;
};

}  // namespace dg::playback
