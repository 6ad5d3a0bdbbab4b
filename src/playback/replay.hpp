// The decision replay shared by the unicast and group playback engines.
//
// Both engines score a scheme by replaying the identical condition
// stream: the decision for interval t sees the view of interval
// t - staleness (the healthy baseline until the scheme has history to
// look at), and the selection is then evaluated under interval t's true
// conditions. ReplayCore owns every part of that replay that does not
// depend on what is being scored: range checks, cursors over an optional
// ConditionSource, the warm-up roll-forward with its steady-span jump,
// the per-interval decision step (cursor and legacy mode), GraphSwitch
// continuity, accumulation-block folds and the clean-interval reuse
// cache. An engine plugs in an evaluation step (a template parameter)
// that evaluates one interval, adds the evaluation to its partial, and
// names its metrics:
//
//   struct Step {
//     using Eval = ...;     // default-constructible, has `bool monteCarlo`
//     using Partial = ...;  // default = empty, has `void merge(Partial&&)`
//     static constexpr ReplayMetricNames kMetrics{...};
//     std::string label() const;            // metric label value
//     graph::NodeId source() const;         // GraphSwitch event node
//     std::string_view schemeName() const;
//     void evaluateInterval(std::size_t t, const graph::DisseminationGraph&,
//                           std::span<const double> lossRates,
//                           std::span<const util::SimTime> latencies,
//                           Eval& out, StageClock& clock);
//     double observedMiss(const Eval&) const;  // miss histogram sample
//     void accumulate(Partial&, std::size_t t, const Eval&,
//                     double intervalSeconds);
//   };
#pragma once

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
#include "util/sim_time.hpp"
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
  /// is possible (for latency-distribution figures).
  bool collectIntervalLatencies = false;
  /// Consult/populate the engine's cross-job decision and evaluation
  /// memos (results are bit-identical either way; off = recompute
  /// everything, for benchmarking and equivalence tests).
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
/// {labelKey=step.label(), scheme=step.schemeName()}.
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
  template <typename Scheme, typename Step>
  typename Step::Partial score(Scheme& scheme, Step& step,
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
      const std::string label = step.label();
      scheme.setTelemetry(telemetry, label);
      const telemetry::Labels labels{
          {Step::kMetrics.labelKey, label},
          {"scheme", std::string(step.schemeName())}};
      telemetry::MetricsRegistry& metrics = telemetry->metrics;
      intervalsCounter = &metrics.counter(Step::kMetrics.intervals, labels);
      mcIntervalsCounter =
          &metrics.counter(Step::kMetrics.mcIntervals, labels);
      mcSamplesCounter = &metrics.counter(Step::kMetrics.mcSamples, labels);
      switchCounter = &metrics.counter(Step::kMetrics.graphSwitches, labels);
      missHistogram = &metrics.histogram(Step::kMetrics.missHistogram, 0.0,
                                         1.0, 20, labels);
    }

    // Steady fast path: while the scheme is at its clean fixed point and
    // the decision view stays on baseline, select() calls are provably
    // no-ops and may be skipped -- but only when nobody can observe them:
    // telemetry counts classifications per call, and passes without
    // clean reuse must evaluate every interval fresh.
    const bool fastPathOk =
        params_.conditionCursor && telemetry == nullptr &&
        spec.reuseCleanEvals;

    typename Step::Partial total;
    typename Step::Partial block;
    const std::size_t blockLen = params_.accumBlockIntervals;
    typename Step::Partial* const acc = blockLen > 0 ? &block : &total;
    const double intervalSeconds = util::toSeconds(trace_->intervalLength());

    // Run-local reuse: when the interval is clean and the scheme returns
    // the same graph as last time, the evaluation is unchanged. `cachedDg`
    // short-circuits the edge-list comparison: it is reset on every actual
    // select()/fold, so pointer equality implies the selection was not
    // touched since the cache was filled.
    typename Step::Eval eval;
    typename Step::Eval cachedEval;
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
              step.source(), -1, static_cast<double>(dg.edges().size()),
              std::string(step.schemeName()));
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
      if (intervalsCounter != nullptr) {
        intervalsCounter->inc();
        missHistogram->observe(step.observedMiss(eval));
      }
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
  template <typename Partial>
  static void foldBlock(Partial& total, Partial& block) {
    total.merge(std::move(block));
    block = Partial{};
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
