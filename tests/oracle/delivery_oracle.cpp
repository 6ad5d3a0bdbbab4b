#include "oracle/delivery_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace dg::oracle {

double onTimeProbabilityMCReference(const graph::DisseminationGraph& dg,
                                    std::span<const double> lossRates,
                                    std::span<const util::SimTime> latencies,
                                    const playback::DeliveryModelParams& params,
                                    int samples, util::Rng& rng) {
  if (samples <= 0) return 0.0;
  const graph::Graph& overlay = dg.overlay();
  std::vector<util::SimTime> sampled(overlay.edgeCount(), util::kNever);
  std::vector<util::SimTime> dist(overlay.nodeCount());
  int delivered = 0;

  for (int s = 0; s < samples; ++s) {
    for (const graph::EdgeId e : dg.edges()) {
      sampled[e] =
          playback::sampleHopLatency(lossRates[e], latencies[e], params, rng);
    }
    std::fill(dist.begin(), dist.end(), util::kNever);
    using Entry = std::pair<util::SimTime, graph::NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    dist[dg.source()] = 0;
    queue.push({0, dg.source()});
    bool onTime = false;
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d > dist[u]) continue;
      if (u == dg.destination()) {
        onTime = d <= params.deadline;
        break;
      }
      if (d > params.deadline) break;
      for (const graph::EdgeId e : dg.outEdges(u)) {
        if (sampled[e] == util::kNever) continue;
        const graph::NodeId v = overlay.edge(e).to;
        const util::SimTime nd = d + sampled[e];
        if (nd < dist[v]) {
          dist[v] = nd;
          queue.push({nd, v});
        }
      }
    }
    if (onTime) ++delivered;
  }
  return static_cast<double>(delivered) / static_cast<double>(samples);
}

double missProbabilityNearLosslessReference(
    const graph::DisseminationGraph& dg, std::span<const double> lossRates,
    std::span<const util::SimTime> latencies,
    const playback::DeliveryModelParams& params) {
  const graph::Graph& overlay = dg.overlay();
  std::vector<util::SimTime> dist(overlay.nodeCount(), util::kNever);
  std::vector<graph::EdgeId> via(overlay.nodeCount(), graph::kInvalidEdge);
  using Entry = std::pair<util::SimTime, graph::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  dist[dg.source()] = 0;
  queue.push({0, dg.source()});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    for (const graph::EdgeId e : dg.outEdges(u)) {
      const util::SimTime w = latencies[e];
      if (w == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      if (d + w < dist[v]) {
        dist[v] = d + w;
        via[v] = e;
        queue.push({d + w, v});
      }
    }
  }
  const util::SimTime at = dist[dg.destination()];
  if (at == util::kNever || at > params.deadline) return 1.0;

  double residual = 0.0;
  for (graph::NodeId n = dg.destination(); n != dg.source();) {
    const graph::EdgeId e = via[n];
    const double p = lossRates[e];
    residual += params.recoveryEnabled ? p * p : p;
    n = overlay.edge(e).from;
  }
  return std::min(residual, 1.0);
}

namespace {

// Bounded earliest-arrival run of the evaluator's anonymous namespace,
// frozen alongside the group loop that calls it.
bool distancesWithin(const graph::DisseminationGraph& dg,
                     std::span<const util::SimTime> weights,
                     util::SimTime deadline,
                     playback::DeliveryWorkspace& ws) {
  const graph::Graph& overlay = dg.overlay();
  const std::size_t nodeCount = overlay.nodeCount();
  std::fill_n(ws.dist.begin(), static_cast<std::ptrdiff_t>(nodeCount),
              util::kNever);
  std::fill_n(ws.via.begin(), static_cast<std::ptrdiff_t>(nodeCount),
              graph::kInvalidEdge);
  ws.heap.clear();
  ws.dist[dg.source()] = 0;
  ws.heap.push(0, dg.source());
  while (!ws.heap.empty()) {
    const auto [d, u] = ws.heap.popMin();
    if (d > ws.dist[u]) continue;
    if (d > deadline) break;
    for (const graph::EdgeId e : dg.outEdges(u)) {
      if (weights[e] == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      const util::SimTime nd = d + weights[e];
      if (nd < ws.dist[v]) {
        ws.dist[v] = nd;
        ws.via[v] = e;
        ws.heap.push(nd, v);
      }
    }
  }
  return ws.dist[dg.destination()] <= deadline;
}

}  // namespace

void onTimeCountsMCGroupReference(
    const graph::DisseminationGraph& dg,
    std::span<const graph::NodeId> receivers,
    std::span<const util::SimTime> deadlines,
    std::span<const double> lossRates,
    std::span<const util::SimTime> latencies,
    const playback::DeliveryModelParams& params, int samples, util::Rng& rng,
    std::span<int> onTimeCounts, std::span<int> deliveredHistogram) {
  playback::DeliveryWorkspace ws;
  std::vector<char> groupCleanOnTime;
  std::vector<char> groupMemberOnCleanPath;
  const std::size_t receiverCount = receivers.size();
  std::fill(onTimeCounts.begin(), onTimeCounts.end(), 0);
  std::fill(deliveredHistogram.begin(), deliveredHistogram.end(), 0);
  if (samples <= 0) return;
  ws.prepare(dg.overlay());

  util::SimTime maxDeadline = 0;
  for (const util::SimTime d : deadlines) maxDeadline = std::max(maxDeadline, d);
  distancesWithin(dg, latencies, maxDeadline, ws);
  if (groupCleanOnTime.size() < receiverCount)
    groupCleanOnTime.resize(receiverCount);
  for (std::size_t r = 0; r < receiverCount; ++r) {
    groupCleanOnTime[r] = ws.dist[receivers[r]] <= deadlines[r] ? 1 : 0;
  }

  const std::vector<graph::EdgeId>& members = dg.edges();
  const std::size_t memberCount = members.size();
  if (ws.mcThrOnTime.size() < memberCount) {
    ws.mcThrOnTime.resize(memberCount);
    ws.mcThrRecovered.resize(memberCount);
    ws.mcLatency.resize(memberCount);
    ws.mcRecoveredLatency.resize(memberCount);
  }
  constexpr double kScale53 = 9007199254740992.0;  // 2^53
  for (std::size_t i = 0; i < memberCount; ++i) {
    const double p = lossRates[members[i]];
    const util::SimTime lat = latencies[members[i]];
    ws.mcThrOnTime[i] =
        static_cast<std::uint64_t>(std::ceil((1.0 - p) * kScale53));
    ws.mcThrRecovered[i] =
        params.recoveryEnabled
            ? static_cast<std::uint64_t>(std::ceil((1.0 - p * p) * kScale53))
            : ws.mcThrOnTime[i];
    ws.mcLatency[i] = lat;
    ws.mcRecoveredLatency[i] = 3 * lat + params.packetInterval;
  }

  if (groupMemberOnCleanPath.size() < memberCount)
    groupMemberOnCleanPath.resize(memberCount);
  std::fill_n(groupMemberOnCleanPath.begin(),
              static_cast<std::ptrdiff_t>(memberCount), char{0});
  {
    const graph::Graph& overlay = dg.overlay();
    for (std::size_t r = 0; r < receiverCount; ++r) {
      if (groupCleanOnTime[r] == 0) continue;
      for (graph::NodeId n = receivers[r]; n != dg.source();) {
        const graph::EdgeId e = ws.via[n];
        const std::size_t i = static_cast<std::size_t>(
            std::lower_bound(members.begin(), members.end(), e) -
            members.begin());
        groupMemberOnCleanPath[i] = 1;
        n = overlay.edge(e).from;
      }
    }
  }

  util::Rng localRng = rng;
  for (int s = 0; s < samples; ++s) {
    bool deviates = false;
    bool touches = false;
    for (std::size_t i = 0; i < memberCount; ++i) {
      const std::uint64_t k = localRng.next() >> 11;
      const util::SimTime hop = k < ws.mcThrOnTime[i] ? ws.mcLatency[i]
                                : k < ws.mcThrRecovered[i]
                                    ? ws.mcRecoveredLatency[i]
                                    : util::kNever;
      ws.sampledHop[members[i]] = hop;
      if (hop != ws.mcLatency[i]) {
        deviates = true;
        touches |= groupMemberOnCleanPath[i] != 0;
      }
    }
    int deliveredCount = 0;
    if (deviates && touches) {
      distancesWithin(dg, ws.sampledHop, maxDeadline, ws);
      for (std::size_t r = 0; r < receiverCount; ++r) {
        if (ws.dist[receivers[r]] <= deadlines[r]) {
          ++onTimeCounts[r];
          ++deliveredCount;
        }
      }
    } else {
      for (std::size_t r = 0; r < receiverCount; ++r) {
        if (groupCleanOnTime[r] != 0) {
          ++onTimeCounts[r];
          ++deliveredCount;
        }
      }
    }
    ++deliveredHistogram[static_cast<std::size_t>(deliveredCount)];
  }
  rng = localRng;
}

}  // namespace dg::oracle
