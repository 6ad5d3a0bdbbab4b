#include "mcast/playback.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "playback/delivery_model.hpp"
#include "util/rng.hpp"

namespace dg::mcast {

void GroupRunPartial::resize(std::size_t receiverCount) {
  if (receiverMiss.size() == receiverCount) return;
  receiverMiss.resize(receiverCount);
  receiverLatency.resize(receiverCount);
  receiverUnavailableSeconds.resize(receiverCount, 0.0);
  receiverProblematic.resize(receiverCount, 0);
}

// dgcheck: cold: runs once per chunk at merge time, not per interval
void GroupRunPartial::merge(GroupRunPartial&& later) {
  if (receiverMiss.empty()) {
    receiverMiss = std::move(later.receiverMiss);
    receiverLatency = std::move(later.receiverLatency);
    receiverUnavailableSeconds = std::move(later.receiverUnavailableSeconds);
    receiverProblematic = std::move(later.receiverProblematic);
  } else if (!later.receiverMiss.empty()) {
    for (std::size_t r = 0; r < receiverMiss.size(); ++r) {
      receiverMiss[r].merge(later.receiverMiss[r]);
      receiverLatency[r].merge(later.receiverLatency[r]);
      receiverUnavailableSeconds[r] += later.receiverUnavailableSeconds[r];
      receiverProblematic[r] += later.receiverProblematic[r];
    }
  }
  missAllMean.merge(later.missAllMean);
  missKMean.merge(later.missKMean);
  costStats.merge(later.costStats);
  unavailableAllSeconds += later.unavailableAllSeconds;
  problematicIntervals += later.problematicIntervals;
  playback::appendInOrder(problems, std::move(later.problems));
}

/// Group evaluation: per-receiver misses on the deterministic path (group
/// accounting by inclusion-exclusion and the delivered-to-k DP) or the
/// per-sample delivered-count histogram under Monte-Carlo.
class GroupPlaybackEngine::EvalStep {
 public:
  using Eval = GroupIntervalEval;
  using Partial = GroupRunPartial;
  static constexpr playback::ReplayMetricNames kMetrics{
      "group",
      "dg_mcast_intervals_total",
      "dg_mcast_mc_intervals_total",
      "dg_mcast_mc_samples_total",
      "dg_mcast_graph_switches_total",
      "dg_mcast_miss_all_probability"};

  EvalStep(const GroupPlaybackParams& params, const Group& group,
           GroupSchemeKind kind)
      : params_(params.base),
        group_(group),
        kind_(kind),
        receiverCount_(group.receivers.size()),
        // Delivered-to-k bar: 0 means "all receivers".
        kBar_(params.deliveredK == 0 || params.deliveredK >= receiverCount_
                  ? receiverCount_
                  : params.deliveredK),
        deadlines_(receiverCount_),
        onTimeCounts_(receiverCount_),
        deliveredHistogram_(receiverCount_ + 1),
        dp_(receiverCount_ + 1) {
    for (std::size_t r = 0; r < receiverCount_; ++r)
      deadlines_[r] = receiverDeadline(group, r, params_.delivery.deadline);
  }

  std::string label() const { return groupLabel(group_); }
  graph::NodeId source() const { return group_.source; }
  std::string_view schemeName() const { return groupSchemeName(kind_); }
  double observedMiss(const Eval& eval) const { return eval.missAll; }

  void evaluateInterval(std::size_t t, const graph::DisseminationGraph& dg,
                        std::span<const double> lossRates,
                        std::span<const util::SimTime> latencies, Eval& eval,
                        playback::StageClock& clock) {
    const std::size_t n = receiverCount_;
    eval.miss.resize(n);  // no-op after the first interval
    eval.arrival.resize(n);
    // Stage buckets as in the unicast step: the deterministic evaluation
    // (and its group accounting) is "memo", the Monte-Carlo one "mc".
    clock.start();
    if (playback::nearLossless(dg, lossRates, params_.lossEpsilon)) {
      playback::missGroupNearLossless(dg, group_.receivers, deadlines_,
                                      lossRates, latencies, params_.delivery,
                                      workspace_, eval.miss, eval.arrival);
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
      // The group's stream folds in every receiver (in group order) and
      // the scheme's unicast equivalent, so a single-receiver group draws
      // the unicast run's stream.
      util::Rng rng(playback::intervalSeed(params_.seed, group_.source,
                                           group_.receivers,
                                           unicastEquivalent(kind_), t));
      playback::onTimeCountsMCGroup(dg, group_.receivers, deadlines_,
                                    lossRates, latencies, params_.delivery,
                                    params_.mcSamples, rng, workspace_,
                                    onTimeCounts_, deliveredHistogram_);
      const auto samples = static_cast<double>(params_.mcSamples);
      for (std::size_t r = 0; r < n; ++r)
        eval.miss[r] = 1.0 - static_cast<double>(onTimeCounts_[r]) / samples;
      int deliveredAtLeastK = 0;
      for (std::size_t c = kBar_; c <= n; ++c)
        deliveredAtLeastK += deliveredHistogram_[c];
      eval.missAll =
          1.0 - static_cast<double>(deliveredHistogram_[n]) / samples;
      eval.missK = 1.0 - static_cast<double>(deliveredAtLeastK) / samples;
      clock.stop(clock.mcNs);
      playback::groupCleanArrivals(dg, latencies, group_.receivers,
                                   workspace_, eval.arrival);
      eval.monteCarlo = true;
    }
    eval.cost = static_cast<double>(dg.cost(latencies));
  }

  void accumulate(GroupRunPartial& acc, std::size_t t, const Eval& eval,
                  double intervalSeconds) const {
    acc.resize(receiverCount_);  // no-op once sized
    for (std::size_t r = 0; r < receiverCount_; ++r) {
      acc.receiverMiss[r].add(eval.miss[r], 1.0);
      if (eval.arrival[r] != util::kNever)
        acc.receiverLatency[r].add(static_cast<double>(eval.arrival[r]));
      acc.receiverUnavailableSeconds[r] += eval.miss[r] * intervalSeconds;
      if (eval.miss[r] > params_.problematicThreshold)
        ++acc.receiverProblematic[r];
    }
    acc.missAllMean.add(eval.missAll, 1.0);
    acc.missKMean.add(eval.missK, 1.0);
    acc.costStats.add(eval.cost);
    acc.unavailableAllSeconds += eval.missAll * intervalSeconds;
    if (eval.missAll > params_.problematicThreshold) {
      ++acc.problematicIntervals;
      acc.problems.push_back(  // dgcheck: ok(R5): bounded by problematic intervals; diagnostic record with amortized growth
          playback::ProblematicInterval{t, eval.missAll});
    }
  }

 private:
  const playback::PlaybackParams& params_;
  const Group& group_;
  GroupSchemeKind kind_;
  std::size_t receiverCount_;
  std::size_t kBar_;
  playback::DeliveryWorkspace workspace_;
  // Per-receiver deadlines plus the Monte-Carlo tallies and the
  // delivered-to-k DP row, sized once so per-interval work never
  // allocates.
  std::vector<util::SimTime> deadlines_;
  std::vector<int> onTimeCounts_;
  std::vector<int> deliveredHistogram_;
  std::vector<double> dp_;
};

GroupPlaybackEngine::GroupPlaybackEngine(const graph::Graph& overlay,
                                         const trace::Trace& trace,
                                         GroupPlaybackParams params)
    : params_(params),
      core_(overlay, trace, params_.base, "GroupPlaybackEngine") {}

GroupSchemeResult GroupPlaybackEngine::run(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams,
    telemetry::Telemetry* telemetry) const {
  return runRange(group, kind, schemeParams, 0, trace().intervalCount(),
                  telemetry);
}

GroupSchemeResult GroupPlaybackEngine::runRange(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, telemetry::Telemetry* telemetry) const {
  const playback::ScoreSpec spec{.caller = "GroupPlaybackEngine::runRange",
                                 .historyStart = first,
                                 .first = first,
                                 .last = last,
                                 .telemetry = telemetry};
  return finalizePartial(group, kind,
                         replay(group, kind, schemeParams, spec));
}

// dgcheck: hot
GroupRunPartial GroupPlaybackEngine::runChunkPartial(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams, std::size_t first,
    std::size_t last, trace::ConditionSource* decisionSource,
    trace::ConditionSource* truthSource,
    telemetry::Telemetry* telemetry) const {
  const playback::ScoreSpec spec{
      .caller = "GroupPlaybackEngine::runChunkPartial",
      .first = first,
      .last = last,
      .decisionSource = decisionSource,
      .truthSource = truthSource,
      .telemetry = telemetry};
  return replay(group, kind, schemeParams, spec);
}

GroupRunPartial GroupPlaybackEngine::replay(
    const Group& group, GroupSchemeKind kind,
    const routing::SchemeParams& schemeParams,
    const playback::ScoreSpec& spec) const {
  // dgcheck: setup begin
  auto scheme = makeGroupScheme(kind, core_.overlay(), group, schemeParams);
  if (params_.base.decisionMemo) scheme->attachDecisionMemo(&decisionMemo_);
  EvalStep step(params_, group, kind);
  // dgcheck: setup end
  return core_.score(*scheme, step, spec);
}

GroupSchemeResult GroupPlaybackEngine::finalizePartial(
    const Group& group, GroupSchemeKind kind, GroupRunPartial&& total) const {
  total.resize(group.receivers.size());
  GroupSchemeResult result;
  result.group = group;
  result.scheme = kind;
  result.unavailabilityAll = total.missAllMean.mean();
  result.unavailabilityK = total.missKMean.mean();
  result.unavailableAllSeconds = total.unavailableAllSeconds;
  result.problematicIntervals = total.problematicIntervals;
  result.averageCost = total.costStats.mean();
  result.receivers.resize(group.receivers.size());
  for (std::size_t r = 0; r < group.receivers.size(); ++r) {
    GroupReceiverResult& out = result.receivers[r];
    out.receiver = group.receivers[r];
    out.deadline = receiverDeadline(group, r, params_.base.delivery.deadline);
    out.unavailability = total.receiverMiss[r].mean();
    out.unavailableSeconds = total.receiverUnavailableSeconds[r];
    out.problematicIntervals = total.receiverProblematic[r];
    out.averageLatencyUs = total.receiverLatency[r].mean();
  }
  result.problems = std::move(total.problems);
  return result;
}

}  // namespace dg::mcast
