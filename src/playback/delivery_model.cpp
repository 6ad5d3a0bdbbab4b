#include "playback/delivery_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

namespace dg::playback {

namespace detail {

void DaryHeap::push(util::SimTime time, graph::NodeId node) {
  entries_.push_back(Entry{time, node});
  std::size_t i = entries_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!less(entries_[i], entries_[parent])) break;
    std::swap(entries_[i], entries_[parent]);
    i = parent;
  }
}

DaryHeap::Entry DaryHeap::popMin() {
  const Entry top = entries_.front();
  entries_.front() = entries_.back();
  entries_.pop_back();
  const std::size_t n = entries_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t firstChild = i * kArity + 1;
    if (firstChild >= n) break;
    const std::size_t lastChild = std::min(firstChild + kArity, n);
    std::size_t best = firstChild;
    for (std::size_t c = firstChild + 1; c < lastChild; ++c) {
      if (less(entries_[c], entries_[best])) best = c;
    }
    if (!less(entries_[best], entries_[i])) break;
    std::swap(entries_[i], entries_[best]);
    i = best;
  }
  return top;
}

void SampleOutcomeCache::beginEpoch() {
  if (slots_.empty()) slots_.resize(kSlots);
  if (++epoch_ == 0) {  // uint32 wrap: stale tags could alias, hard-reset
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
}

bool SampleOutcomeCache::find(std::uint64_t keyLo, std::uint64_t keyHi,
                              std::uint64_t& verdict) {
  std::uint64_t h = keyLo * 0x9E3779B97F4A7C15ULL + keyHi;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  for (std::size_t probe = 0; probe < kMaxProbes; ++probe) {
    const std::size_t i = (static_cast<std::size_t>(h) + probe) & (kSlots - 1);
    Slot& slot = slots_[i];
    if (slot.epoch != epoch_) {
      slot.keyLo = keyLo;
      slot.keyHi = keyHi;
      slot.epoch = epoch_;
      pending_ = i;
      return false;
    }
    if (slot.keyLo == keyLo && slot.keyHi == keyHi) {
      verdict = slot.verdict;
      return true;
    }
  }
  pending_ = kNoSlot;
  return false;
}

void SampleOutcomeCache::store(std::uint64_t verdict) {
  if (pending_ != kNoSlot) slots_[pending_].verdict = verdict;
  pending_ = kNoSlot;
}

}  // namespace detail

void DeliveryWorkspace::prepare(const graph::Graph& overlay) {
  if (sampledHop.size() < overlay.edgeCount())
    sampledHop.resize(overlay.edgeCount());
  if (dist.size() < overlay.nodeCount()) dist.resize(overlay.nodeCount());
  if (via.size() < overlay.nodeCount()) via.resize(overlay.nodeCount());
  heap.clear();
}

namespace {

/// Earliest-arrival deadline check of the one-receiver Monte-Carlo sample
/// loop: true iff `destination` is reachable within the deadline when
/// member edge e delivers after weights[e] (kNever = lost). Dijkstra on
/// the workspace's flat heap; see DaryHeap for why the result is
/// identical to a std::priority_queue run.
bool onTimeUnder(const graph::DisseminationGraph& dg,
                 graph::NodeId destination,
                 std::span<const util::SimTime> weights,
                 util::SimTime deadline, DeliveryWorkspace& ws) {
  const graph::Graph& overlay = dg.overlay();
  std::fill_n(ws.dist.begin(),
              static_cast<std::ptrdiff_t>(overlay.nodeCount()),
              util::kNever);
  ws.heap.clear();
  ws.dist[dg.source()] = 0;
  ws.heap.push(0, dg.source());
  while (!ws.heap.empty()) {
    const auto [d, u] = ws.heap.popMin();
    if (d > ws.dist[u]) continue;
    if (u == destination) return d <= deadline;
    if (d > deadline) return false;  // nothing reachable in time anymore
    for (const graph::EdgeId e : dg.outEdges(u)) {
      if (weights[e] == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      const util::SimTime nd = d + weights[e];
      if (nd < ws.dist[v]) {
        ws.dist[v] = nd;
        ws.heap.push(nd, v);
      }
    }
  }
  return false;
}

/// Like onTimeUnder, but finalizes *every* node whose earliest arrival is
/// within the deadline (no destination early-exit), leaving those exact
/// distances in ws.dist: when the loop stops, all unpopped tentative
/// distances exceed the heap minimum that triggered the stop, so a node
/// has ws.dist <= deadline iff its true distance is.
void distancesWithin(const graph::DisseminationGraph& dg,
                     std::span<const util::SimTime> weights,
                     util::SimTime deadline, DeliveryWorkspace& ws) {
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
}

/// Loss rate from which a member edge takes one threshold draw per sample
/// instead of geometric skips to its deviating samples. A skip costs a
/// log and up to two draws per deviation (about 15 ns), a threshold draw
/// one draw per sample (about 2.5 ns); over 1000 samples the two break
/// even near p = 0.15 (4-vCPU Xeon, g++ 12 -O2; see DESIGN.md, "Sparse
/// Monte Carlo").
constexpr double kSkipLossCutoff = 0.15;

/// Per-call sampling setup shared by both Monte-Carlo evaluators; returns
/// the key stride (2 bits per member edge, in 64-bit words). Tabulates
/// each member edge's on-time and recovered hop latencies and pre-fills
/// the sampled weights with the clean outcome, which a pattern-memo miss
/// patches the deviating edges into and back out of: on time, or lost for
/// a dark (p >= 1) edge, which is lost in every sample and so takes part
/// in the clean run and in no draw. Sizes the per-sample keys and
/// deviation flags (all-zero between calls), clears the clean-path mask
/// and starts a fresh memo epoch.
std::size_t prepareSampling(const std::vector<graph::EdgeId>& members,
                            std::span<const double> lossRates,
                            std::span<const util::SimTime> latencies,
                            const DeliveryModelParams& params, int samples,
                            DeliveryWorkspace& ws) {
  const std::size_t memberCount = members.size();
  const std::size_t stride = std::max<std::size_t>(1, (memberCount + 31) / 32);
  const auto sampleCount = static_cast<std::size_t>(samples);
  if (ws.mcLatency.size() < memberCount) {
    ws.mcLatency.resize(memberCount);
    ws.mcRecoveredLatency.resize(memberCount);
  }
  if (ws.mcKeys.size() < sampleCount * stride)
    ws.mcKeys.resize(sampleCount * stride);
  if (ws.mcDeviates.size() < (sampleCount + 63) / 64)
    ws.mcDeviates.resize((sampleCount + 63) / 64);
  if (ws.mcCleanPath.size() < stride) ws.mcCleanPath.resize(stride);
  std::fill_n(ws.mcCleanPath.begin(), static_cast<std::ptrdiff_t>(stride),
              std::uint64_t{0});
  for (std::size_t i = 0; i < memberCount; ++i) {
    const graph::EdgeId e = members[i];
    const util::SimTime lat = latencies[e];
    ws.mcLatency[i] = lat;
    ws.mcRecoveredLatency[i] = 3 * lat + params.packetInterval;
    ws.sampledHop[e] = lossRates[e] >= 1.0 ? util::kNever : lat;
  }
  ws.outcomeCache.beginEpoch();
  return stride;
}

/// The sparse sampler: draws only the (sample, member edge) outcomes that
/// deviate from on time, edge by edge in member order, and ORs each one's
/// 2-bit code (1 = recovered, 2 = lost) into the sample's key in
/// ws.mcKeys, flagging the sample in ws.mcDeviates. Per member edge with
/// loss rate p:
///   - p <= 0 or p >= 1: no draws (never deviates / lost in the clean run);
///   - p < kSkipLossCutoff: geometric skips, each one draw u in (0, 1]
///     and floor(ln u / ln(1 - p)) on-time samples passed over, so every
///     sample deviates independently w.p. p; with recovery a second draw
///     makes the deviation lost w.p. p (= p^2 / p), without recovery it
///     is always lost;
///   - otherwise one draw per sample, classified on the raw 53-bit
///     integer against ceil((1 - p) * 2^53) and ceil((1 - p^2) * 2^53).
/// Either way an outcome is on time w.p. 1 - p, recovered w.p. p(1 - p)
/// and lost w.p. p^2, independently across samples and edges. The draws
/// come from a local copy of `rng` (its state words stay in registers),
/// which `rng` takes over at the end.
void drawDeviations(const std::vector<graph::EdgeId>& members,
                    std::span<const double> lossRates,
                    const DeliveryModelParams& params, int samples,
                    std::size_t stride, util::Rng& rng,
                    DeliveryWorkspace& ws) {
  constexpr double kScale53 = 0x1.0p53;
  const auto sampleCount = static_cast<std::size_t>(samples);
  std::uint64_t* const deviates = ws.mcDeviates.data();
  util::Rng localRng = rng;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const double p = lossRates[members[i]];
    if (!(p > 0.0) || p >= 1.0) continue;
    std::uint64_t* const key = ws.mcKeys.data() + (i >> 5);
    const auto shift = static_cast<unsigned>(2 * (i & 31));
    if (p < kSkipLossCutoff) {
      const double skipScale = 1.0 / std::log1p(-p);
      const auto lostThreshold =
          static_cast<std::uint64_t>(std::ceil(p * kScale53));
      for (std::size_t s = 0;; ++s) {
        const double u =
            static_cast<double>((localRng.next() >> 11) + 1) * 0x1.0p-53;
        const double skip = std::floor(std::log(u) * skipScale);
        // Also leaves on NaN (a p too small for log1p to resolve).
        if (!(skip < static_cast<double>(sampleCount - s))) break;
        s += static_cast<std::size_t>(skip);
        const std::uint64_t code =
            !params.recoveryEnabled || (localRng.next() >> 11) < lostThreshold
                ? 2
                : 1;
        key[s * stride] |= code << shift;
        deviates[s >> 6] |= std::uint64_t{1} << (s & 63);
      }
    } else {
      const auto onTimeThreshold =
          static_cast<std::uint64_t>(std::ceil((1.0 - p) * kScale53));
      const std::uint64_t recoveredThreshold =
          params.recoveryEnabled
              ? static_cast<std::uint64_t>(std::ceil((1.0 - p * p) * kScale53))
              : onTimeThreshold;
      for (std::size_t s = 0; s < sampleCount; ++s) {
        const std::uint64_t k = localRng.next() >> 11;
        const std::uint64_t code =
            static_cast<std::uint64_t>(k >= onTimeThreshold) +
            static_cast<std::uint64_t>(k >= recoveredThreshold);
        key[s * stride] |= code << shift;
        deviates[s >> 6] |= static_cast<std::uint64_t>(code != 0) << (s & 63);
      }
    }
  }
  rng = localRng;
}

/// The clean run's verdict mask, bit r = receiver r on time, and the
/// member edges of the earliest paths those verdicts rest on, in key
/// layout (even bit of each 2-bit slot) in ws.mcCleanPath. Sampled
/// outcomes only ever slow an edge down (recovered > on-time, lost =
/// never), which makes every verdict monotone in the clean one:
///   - a receiver late in the clean run is late in every sample;
///   - when a sample's deviating edges all avoid the clean-on-time
///     receivers' earliest paths, those paths are intact and every clean
///     verdict stands.
/// Only samples that slow some clean earliest path down need a memo
/// lookup or a Dijkstra run.
struct CleanVerdict {
  std::uint64_t mask = 0;
  std::span<std::uint64_t> path;

  /// Records `receiver` as on time in the clean run whose predecessor
  /// edges ws.via holds, as verdict bit `bit` (kept below 64 only), with
  /// its earliest path.
  void addOnTime(const graph::DisseminationGraph& dg, DeliveryWorkspace& ws,
                 graph::NodeId receiver, std::size_t bit) {
    if (bit < 64) mask |= std::uint64_t{1} << bit;
    const std::vector<graph::EdgeId>& members = dg.edges();
    for (graph::NodeId n = receiver; n != dg.source();) {
      const graph::EdgeId e = ws.via[n];
      const std::size_t i = static_cast<std::size_t>(
          std::lower_bound(members.begin(), members.end(), e) -
          members.begin());
      path[i >> 5] |= std::uint64_t{1} << (2 * (i & 31));
      n = dg.overlay().edge(e).from;
    }
  }

  /// True when no deviating edge of the key lies on a clean earliest
  /// path. Collapses each 2-bit code to its even bit -- a pair is never
  /// 11 -- and intersects.
  bool intact(const std::uint64_t* key) const {
    std::uint64_t hit = 0;
    for (std::size_t w = 0; w < path.size(); ++w)
      hit |= (key[w] | (key[w] >> 1)) & path[w];
    return hit == 0;
  }
};

/// Verdict of a sample whose key slows a clean earliest path down:
/// evaluate() run over the pre-filled clean weights with the key's
/// deviating edges patched in (and restored after). With `memoized` (a
/// key of at most two words) the verdict is looked up in and stored to
/// the pattern memo: identical patterns imply identical Dijkstra runs, so
/// it holds for the whole call.
template <typename Evaluate>
std::uint64_t sampleVerdict(const std::vector<graph::EdgeId>& members,
                            const std::uint64_t* key, std::size_t stride,
                            bool memoized, DeliveryWorkspace& ws,
                            Evaluate&& evaluate) {
  std::uint64_t verdict = 0;
  const std::uint64_t keyHi = stride > 1 ? key[1] : 0;
  if (memoized && ws.outcomeCache.find(key[0], keyHi, verdict)) return verdict;
  // A code pair is never 11, so every set key bit identifies one
  // deviating edge -- even bit means recovered, odd bit means lost.
  const auto patch = [&](bool restore) {
    for (std::size_t w = 0; w < stride; ++w) {
      for (std::uint64_t bits = key[w]; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        const std::size_t i = 32 * w + static_cast<std::size_t>(b >> 1);
        ws.sampledHop[members[i]] = restore          ? ws.mcLatency[i]
                                    : (b & 1) != 0 ? util::kNever
                                                   : ws.mcRecoveredLatency[i];
      }
    }
  };
  patch(false);
  verdict = evaluate();
  patch(true);
  if (memoized) ws.outcomeCache.store(verdict);
  return verdict;
}

/// Calls onSample(key) for every sample that drew a deviation, in sample
/// order, and clears its key and flag after; samples without one are
/// never visited.
template <typename OnSample>
void forEachDeviatingSample(int samples, std::size_t stride,
                            DeliveryWorkspace& ws, OnSample&& onSample) {
  const std::size_t words = (static_cast<std::size_t>(samples) + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = std::exchange(ws.mcDeviates[w], 0); bits != 0;
         bits &= bits - 1) {
      const std::size_t s =
          64 * w + static_cast<std::size_t>(std::countr_zero(bits));
      std::uint64_t* const key = ws.mcKeys.data() + s * stride;
      onSample(static_cast<const std::uint64_t*>(key));
      std::fill_n(key, stride, std::uint64_t{0});
    }
  }
}

/// The one-receiver Monte-Carlo kernel: how many of `samples` samples
/// reach `destination` within `deadline`. Both public Monte-Carlo
/// evaluators run it for a single receiver.
int onTimeSamples(const graph::DisseminationGraph& dg,
                  graph::NodeId destination, util::SimTime deadline,
                  std::span<const double> lossRates,
                  std::span<const util::SimTime> latencies,
                  const DeliveryModelParams& params, int samples,
                  util::Rng& rng, DeliveryWorkspace& ws) {
  ws.prepare(dg.overlay());
  const std::vector<graph::EdgeId>& members = dg.edges();
  const std::size_t stride =
      prepareSampling(members, lossRates, latencies, params, samples, ws);

  // Every sample starts with the clean run's verdict; only samples whose
  // deviations slow its earliest path down are re-scored, through the
  // pattern memo (keys of up to 64 member edges) and Dijkstra.
  distancesWithin(dg, ws.sampledHop, deadline, ws);
  const bool cleanOnTime = ws.dist[destination] <= deadline;
  CleanVerdict clean{0, {ws.mcCleanPath.data(), stride}};
  if (cleanOnTime) clean.addOnTime(dg, ws, destination, 0);

  drawDeviations(members, lossRates, params, samples, stride, rng, ws);
  int delivered = cleanOnTime ? samples : 0;
  forEachDeviatingSample(samples, stride, ws, [&](const std::uint64_t* key) {
    if (clean.intact(key)) return;
    const std::uint64_t onTime =
        sampleVerdict(members, key, stride, stride <= 2, ws, [&] {
          return static_cast<std::uint64_t>(
              onTimeUnder(dg, destination, ws.sampledHop, deadline, ws));
        });
    if (onTime == 0) --delivered;
  });
  return delivered;
}

}  // namespace

// dgcheck: hot
double onTimeProbabilityMC(const graph::DisseminationGraph& dg,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           int samples, util::Rng& rng,
                           DeliveryWorkspace& ws) {
  if (samples <= 0) return 0.0;
  const int delivered =
      onTimeSamples(dg, dg.destination(), params.deadline, lossRates,
                    latencies, params, samples, rng, ws);
  return static_cast<double>(delivered) / static_cast<double>(samples);
}

double onTimeProbabilityMC(const graph::DisseminationGraph& dg,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           int samples, util::Rng& rng) {
  DeliveryWorkspace ws;
  return onTimeProbabilityMC(dg, lossRates, latencies, params, samples, rng,
                             ws);
}

bool nearLossless(const graph::DisseminationGraph& dg,
                  std::span<const double> lossRates, double lossEpsilon) {
  for (const graph::EdgeId e : dg.edges()) {
    if (lossRates[e] > lossEpsilon) return false;
  }
  return true;
}

double missProbabilityNearLossless(const graph::DisseminationGraph& dg,
                                   std::span<const double> lossRates,
                                   std::span<const util::SimTime> latencies,
                                   const DeliveryModelParams& params,
                                   DeliveryWorkspace& ws) {
  const graph::NodeId destination = dg.destination();
  double miss = 1.0;
  util::SimTime arrival = util::kNever;
  missGroupNearLossless(dg, {&destination, 1}, {&params.deadline, 1},
                        lossRates, latencies, params, ws, {&miss, 1},
                        {&arrival, 1});
  return miss;
}

double missProbabilityNearLossless(const graph::DisseminationGraph& dg,
                                   std::span<const double> lossRates,
                                   std::span<const util::SimTime> latencies,
                                   const DeliveryModelParams& params) {
  DeliveryWorkspace ws;
  return missProbabilityNearLossless(dg, lossRates, latencies, params, ws);
}

// ---------------------------------------------------------------------
// Receiver-set (multicast) evaluators.
// ---------------------------------------------------------------------

namespace {

/// Unbounded earliest-arrival run over the dissemination graph with
/// predecessor tracking, finalizing every receiver in one pass. Leaves
/// exact distances in ws.dist and the predecessor edge of each reached
/// node in ws.via.
void groupDistancesUnbounded(const graph::DisseminationGraph& dg,
                             std::span<const util::SimTime> weights,
                             DeliveryWorkspace& ws) {
  const graph::Graph& overlay = dg.overlay();
  ws.prepare(overlay);
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
    for (const graph::EdgeId e : dg.outEdges(u)) {
      const util::SimTime w = weights[e];
      if (w == util::kNever) continue;
      const graph::NodeId v = overlay.edge(e).to;
      if (d + w < ws.dist[v]) {
        ws.dist[v] = d + w;
        ws.via[v] = e;
        ws.heap.push(d + w, v);
      }
    }
  }
}

}  // namespace

void missGroupNearLossless(const graph::DisseminationGraph& dg,
                           std::span<const graph::NodeId> receivers,
                           std::span<const util::SimTime> deadlines,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           DeliveryWorkspace& ws, std::span<double> missOut,
                           std::span<util::SimTime> arrivalOut) {
  // With near-zero loss, delivery timing is deterministic: each
  // receiver's earliest arrival under current latencies either meets its
  // deadline or not.
  const graph::Graph& overlay = dg.overlay();
  groupDistancesUnbounded(dg, latencies, ws);
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    const util::SimTime at = ws.dist[receivers[r]];
    arrivalOut[r] = at;
    if (at == util::kNever || at > deadlines[r]) {
      missOut[r] = 1.0;
      continue;
    }
    // Residual miss: a packet is only lost if it is dropped (beyond
    // recovery) on *every* usable route; the per-hop residual summed
    // along the receiver's single earliest path is therefore a valid
    // upper bound (extra redundancy in the graph only shrinks the truth
    // further).
    double residual = 0.0;
    for (graph::NodeId n = receivers[r]; n != dg.source();) {
      const graph::EdgeId e = ws.via[n];
      const double p = lossRates[e];
      residual += params.recoveryEnabled ? p * p : p;
      n = overlay.edge(e).from;
    }
    missOut[r] = std::min(residual, 1.0);
  }
}

void groupCleanArrivals(const graph::DisseminationGraph& dg,
                        std::span<const util::SimTime> latencies,
                        std::span<const graph::NodeId> receivers,
                        DeliveryWorkspace& ws,
                        std::span<util::SimTime> arrivalOut) {
  groupDistancesUnbounded(dg, latencies, ws);
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    arrivalOut[r] = ws.dist[receivers[r]];
  }
}

namespace {

/// onTimeCountsMCGroup's kernel for one receiver: onTimeProbabilityMC's.
// dgcheck: hot
void countsOneReceiver(const graph::DisseminationGraph& dg,
                       std::span<const graph::NodeId> receivers,
                       std::span<const util::SimTime> deadlines,
                       std::span<const double> lossRates,
                       std::span<const util::SimTime> latencies,
                       const DeliveryModelParams& params, int samples,
                       util::Rng& rng, DeliveryWorkspace& ws,
                       std::span<int> onTimeCounts,
                       std::span<int> deliveredHistogram) {
  const int onTime = onTimeSamples(dg, receivers[0], deadlines[0], lossRates,
                                   latencies, params, samples, rng, ws);
  onTimeCounts[0] = onTime;
  deliveredHistogram[0] = samples - onTime;
  deliveredHistogram[1] = onTime;
}

/// onTimeCountsMCGroup's kernel for two or more receivers.
// dgcheck: hot
void countsReceiverSet(const graph::DisseminationGraph& dg,
                       std::span<const graph::NodeId> receivers,
                       std::span<const util::SimTime> deadlines,
                       std::span<const double> lossRates,
                       std::span<const util::SimTime> latencies,
                       const DeliveryModelParams& params, int samples,
                       util::Rng& rng, DeliveryWorkspace& ws,
                       std::span<int> onTimeCounts,
                       std::span<int> deliveredHistogram) {
  // dgcheck: setup begin
  const std::size_t receiverCount = receivers.size();
  ws.prepare(dg.overlay());
  const std::vector<graph::EdgeId>& members = dg.edges();
  const std::size_t stride =
      prepareSampling(members, lossRates, latencies, params, samples, ws);

  // One clean run bounded by the loosest deadline finalizes every
  // receiver: a receiver left beyond maxDeadline has true arrival beyond
  // *every* deadline. The same bound serves every sample.
  util::SimTime maxDeadline = 0;
  for (const util::SimTime d : deadlines) maxDeadline = std::max(maxDeadline, d);
  distancesWithin(dg, ws.sampledHop, maxDeadline, ws);

  // The unicast shortcuts, per receiver. A verdict is a receiver bitmask,
  // so past 64 receivers each re-scored sample is tallied straight off
  // its Dijkstra run instead, and the memo is off.
  const bool maskVerdicts = receiverCount <= 64;
  CleanVerdict clean{0, {ws.mcCleanPath.data(), stride}};
  for (std::size_t r = 0; r < receiverCount; ++r) {
    if (ws.dist[receivers[r]] <= deadlines[r])
      clean.addOnTime(dg, ws, receivers[r], r);
  }
  // dgcheck: setup end

  const auto tallyMask = [&](std::uint64_t mask, int weight) {
    for (std::uint64_t m = mask; m != 0; m &= m - 1)
      onTimeCounts[static_cast<std::size_t>(std::countr_zero(m))] += weight;
    deliveredHistogram[static_cast<std::size_t>(std::popcount(mask))] +=
        weight;
  };
  // Tallies the verdicts a distancesWithin run left in ws.dist.
  const auto tallyDist = [&](int weight) {
    std::size_t deliveredCount = 0;
    for (std::size_t r = 0; r < receiverCount; ++r) {
      if (ws.dist[receivers[r]] <= deadlines[r]) {
        onTimeCounts[r] += weight;
        ++deliveredCount;
      }
    }
    deliveredHistogram[deliveredCount] += weight;
  };
  const auto evaluate = [&] {
    distancesWithin(dg, ws.sampledHop, maxDeadline, ws);
    std::uint64_t onTime = 0;
    if (!maskVerdicts) {
      tallyDist(1);
      return onTime;
    }
    for (std::size_t r = 0; r < receiverCount; ++r) {
      if (ws.dist[receivers[r]] <= deadlines[r])
        onTime |= std::uint64_t{1} << r;
    }
    return onTime;
  };

  // Samples with the clean verdict are only counted here and tallied once
  // at the end; integer tallies do not depend on the order.
  drawDeviations(members, lossRates, params, samples, stride, rng, ws);
  int cleanSamples = samples;
  forEachDeviatingSample(samples, stride, ws, [&](const std::uint64_t* key) {
    if (clean.intact(key)) return;
    --cleanSamples;
    const std::uint64_t verdict = sampleVerdict(
        members, key, stride, stride <= 2 && maskVerdicts, ws, evaluate);
    if (maskVerdicts) tallyMask(verdict, 1);
  });
  if (maskVerdicts) {
    tallyMask(clean.mask, cleanSamples);
  } else {
    distancesWithin(dg, ws.sampledHop, maxDeadline, ws);
    tallyDist(cleanSamples);
  }
}

}  // namespace

// dgcheck: hot
void onTimeCountsMCGroup(const graph::DisseminationGraph& dg,
                         std::span<const graph::NodeId> receivers,
                         std::span<const util::SimTime> deadlines,
                         std::span<const double> lossRates,
                         std::span<const util::SimTime> latencies,
                         const DeliveryModelParams& params, int samples,
                         util::Rng& rng, DeliveryWorkspace& ws,
                         std::span<int> onTimeCounts,
                         std::span<int> deliveredHistogram) {
  std::fill(onTimeCounts.begin(), onTimeCounts.end(), 0);
  std::fill(deliveredHistogram.begin(), deliveredHistogram.end(), 0);
  if (samples <= 0) return;
  // One receiver takes the unicast kernel: the same draws and verdicts
  // without the verdict-mask and delivered-count bookkeeping, which
  // measurably slows the group kernel down at N = 1.
  const auto kernel =
      receivers.size() == 1 ? countsOneReceiver : countsReceiverSet;
  kernel(dg, receivers, deadlines, lossRates, latencies, params, samples,
         rng, ws, onTimeCounts, deliveredHistogram);
}

}  // namespace dg::playback
