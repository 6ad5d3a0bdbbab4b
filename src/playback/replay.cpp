#include "playback/replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace dg::playback {

std::uint64_t intervalSeed(std::uint64_t seed, graph::NodeId source,
                           std::span<const graph::NodeId> receivers,
                           routing::SchemeKind kind, std::size_t interval) {
  std::uint64_t x = seed;
  const auto mix = [&x](std::uint64_t v) {
    x ^= v + 0x9E3779B97F4A7C15ULL + (x << 6) + (x >> 2);
  };
  mix(source);
  for (const graph::NodeId r : receivers) mix(r);
  mix(static_cast<std::uint64_t>(kind));
  mix(interval);
  return x;
}

void RunPartial::resize(std::size_t receiverCount) {
  if (receiverMiss.size() == receiverCount) return;
  receiverMiss.resize(receiverCount);
  receiverLatency.resize(receiverCount);
  receiverUnavailableSeconds.resize(receiverCount, 0.0);
  receiverProblematic.resize(receiverCount, 0);
}

// dgcheck: cold: runs once per chunk at merge time, not per interval
void RunPartial::merge(RunPartial&& later) {
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
  appendInOrder(problems, std::move(later.problems));
  appendInOrder(intervalLatenciesUs, std::move(later.intervalLatenciesUs));
}

EvalStep::EvalStep(const PlaybackParams& params, EvalSpec spec)
    : params_(params),
      spec_(std::move(spec)),
      kBar_(spec_.deliveredK == 0 ||
                    spec_.deliveredK >= spec_.receivers.size()
                ? spec_.receivers.size()
                : spec_.deliveredK),
      onTimeCounts_(spec_.receivers.size()),
      deliveredHistogram_(spec_.receivers.size() + 1),
      dp_(spec_.receivers.size() + 1) {}

ReplayCore::ReplayCore(const graph::Graph& overlay, const trace::Trace& trace,
                       const PlaybackParams& params, std::string_view owner)
    : overlay_(&overlay),
      trace_(&trace),
      params_(params),
      staleness_(static_cast<std::size_t>(std::max(params.viewStaleness, 0))),
      conditionIndex_(trace) {
  if (trace.edgeCount() != overlay.edgeCount())
    throw std::invalid_argument(std::string(owner) +
                                ": trace edge count does not match overlay");
  if (params.viewStaleness < 0)
    throw std::invalid_argument(std::string(owner) + ": negative staleness");
  for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
    if (trace.hasDeviation(t)) deviatingIntervals_.push_back(t);
  }
}

std::size_t ReplayCore::nextDeviatingDecision(std::size_t fromInterval) const {
  // The decision at t sees interval t - staleness, so the first candidate
  // deviation is at view interval max(fromInterval, staleness) -
  // staleness.
  const std::size_t fromView =
      fromInterval > staleness_ ? fromInterval - staleness_ : 0;
  const auto it = std::lower_bound(deviatingIntervals_.begin(),
                                   deviatingIntervals_.end(), fromView);
  if (it == deviatingIntervals_.end()) return trace_->intervalCount();
  return std::max(fromInterval, *it + staleness_);
}

}  // namespace dg::playback
