#include "playback/delivery_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#define DG_MC_HAVE_AVX2_TARGET 1
#include <immintrin.h>
#endif

namespace dg::playback {

namespace detail {

namespace {
// Test-only kernel pin; every kernel is bit-identical, so the selection
// cannot affect results -- only which code path the equivalence tests
// exercise.
McKernel g_mcKernelOverride =  // dglint: ok(R3): test-only kernel pin
    McKernel::kAuto;
}  // namespace

void setMcKernelForTest(McKernel kernel) { g_mcKernelOverride = kernel; }

bool mcKernelSupported(McKernel kernel) {
  if (kernel != McKernel::kBlockAvx2) return true;
#if DG_MC_HAVE_AVX2_TARGET
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

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

util::SimTime sampleHopLatency(double lossRate, util::SimTime latency,
                               const DeliveryModelParams& params,
                               util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 1.0 - lossRate) return latency;
  if (!params.recoveryEnabled) return util::kNever;
  if (u < 1.0 - lossRate * lossRate) {
    return 3 * latency + params.packetInterval;
  }
  return util::kNever;
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

/// Samples per batched block. Bounded so the draw buffer (block *
/// members * 8 bytes) stays inside L1 even for 64-member graphs.
constexpr int kMcBlockSamples = 32;

#if DG_MC_HAVE_AVX2_TARGET
/// AVX2 classify pass: 4 member edges per vector, fully branchless. Both
/// sides of the threshold comparisons are 53-bit integers, so the signed
/// 64-bit compares are exact; per-lane the outcome code is
/// 2 + (k < thrOnTime) + (k < thrRecovered) with the compares as 0/-1
/// masks (0 = on-time, 1 = recovered, 2 = lost), shifted into key
/// position with a variable shift and OR-folded across the block.
// dgcheck: hot
__attribute__((target("avx2"))) void buildKeysAvx2(
    const std::uint64_t* draws, std::size_t memberCount, int blockSamples,
    const std::uint64_t* thrOnTime, const std::uint64_t* thrRecovered,
    std::uint64_t* keyLo, std::uint64_t* keyHi) {
  const __m256i laneShift = _mm256_set_epi64x(6, 4, 2, 0);
  const __m256i two = _mm256_set1_epi64x(2);
  for (int b = 0; b < blockSamples; ++b) {
    const std::uint64_t* d =
        draws + static_cast<std::size_t>(b) * memberCount;
    __m256i accLo = _mm256_setzero_si256();
    __m256i accHi = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= memberCount; i += 4) {
      const __m256i k = _mm256_srli_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i)), 11);
      const __m256i tOn = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(thrOnTime + i));
      const __m256i tRec = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(thrRecovered + i));
      const __m256i onTimeMask = _mm256_cmpgt_epi64(tOn, k);    // k < tOn
      const __m256i recMask = _mm256_cmpgt_epi64(tRec, k);      // k < tRec
      const __m256i code = _mm256_add_epi64(
          two, _mm256_add_epi64(onTimeMask, recMask));
      const __m256i shift = _mm256_add_epi64(
          _mm256_set1_epi64x(2 * static_cast<long long>(i & 31)),
          laneShift);
      const __m256i contrib = _mm256_sllv_epi64(code, shift);
      if (i < 32) {
        accLo = _mm256_or_si256(accLo, contrib);
      } else {
        accHi = _mm256_or_si256(accHi, contrib);
      }
    }
    // Horizontal OR of the four lanes (a lambda would lose the target
    // attribute, so spelled out for both accumulators).
    const __m128i foldedLo = _mm_or_si128(_mm256_castsi256_si128(accLo),
                                          _mm256_extracti128_si256(accLo, 1));
    std::uint64_t kLo =
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(foldedLo)) |
        static_cast<std::uint64_t>(_mm_extract_epi64(foldedLo, 1));
    const __m128i foldedHi = _mm_or_si128(_mm256_castsi256_si128(accHi),
                                          _mm256_extracti128_si256(accHi, 1));
    std::uint64_t kHi =
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(foldedHi)) |
        static_cast<std::uint64_t>(_mm_extract_epi64(foldedHi, 1));
    for (; i < memberCount; ++i) {  // scalar tail (memberCount % 4)
      const std::uint64_t k = d[i] >> 11;
      if (k >= thrOnTime[i]) [[unlikely]] {
        const std::uint64_t code =
            1 + static_cast<std::uint64_t>(k >= thrRecovered[i]);
        (i < 32 ? kLo : kHi) |= code << (2 * (i & 31));
      }
    }
    keyLo[b] = kLo;
    keyHi[b] = kHi;
  }
}
#endif  // DG_MC_HAVE_AVX2_TARGET

/// Kernel dispatch: honor a test override, otherwise pick by measured
/// profitability. The fused loop wins for small member counts (the
/// classify work hides under the serial RNG dependency chain); the
/// branchless AVX2 block pass wins once the per-sample classify is wide
/// enough to amortize the draw-buffer round trip.
detail::McKernel resolveMcKernel(std::size_t memberCount) {
  using detail::McKernel;
  const McKernel forced = detail::g_mcKernelOverride;
  if (forced != McKernel::kAuto) return forced;
#if DG_MC_HAVE_AVX2_TARGET
  static const bool haveAvx2 = __builtin_cpu_supports("avx2") != 0;
  if (haveAvx2 && memberCount >= 16) return McKernel::kBlockAvx2;
#else
  (void)memberCount;
#endif
  return McKernel::kFusedScalar;
}

/// Per-call sampling setup shared by both Monte-Carlo evaluators. Hoists
/// the per-edge sampling arithmetic out of the sample loop and lets each
/// draw classify on the raw 53-bit integer instead of the double:
/// sampleHopLatency draws u = (next() >> 11) * 2^-53 and compares
/// u < thr. Both u and thr * 2^53 are exact doubles (a 53-bit integer
/// scaled by a power of two), so u < thr is *equivalent* to the integer
/// comparison (next() >> 11) < ceil(thr * 2^53) -- every draw classifies
/// identically, bit for bit. With recovery disabled the recovered
/// threshold is pinned to the on-time one so that band is empty. Also
/// pre-fills the sampled weights with the clean (on-time) outcome, which
/// a pattern-memo miss patches the deviating edges into and back out of,
/// clears the clean-path flags and starts a fresh memo epoch.
void prepareSampling(const std::vector<graph::EdgeId>& members,
                     std::span<const double> lossRates,
                     std::span<const util::SimTime> latencies,
                     const DeliveryModelParams& params,
                     DeliveryWorkspace& ws) {
  const std::size_t memberCount = members.size();
  if (ws.mcThrOnTime.size() < memberCount) {
    ws.mcThrOnTime.resize(memberCount);
    ws.mcThrRecovered.resize(memberCount);
    ws.mcLatency.resize(memberCount);
    ws.mcRecoveredLatency.resize(memberCount);
    ws.mcOnCleanPath.resize(memberCount);
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
    ws.mcOnCleanPath[i] = 0;
    ws.sampledHop[members[i]] = lat;
  }
  ws.outcomeCache.beginEpoch();
}

/// The clean (all edges on time) run's verdict mask, bit r = receiver r
/// on time, and the member edges of the earliest paths those verdicts
/// rest on: as a key mask (even bit of each 2-bit slot) for keyed calls,
/// as ws.mcOnCleanPath flags for the plain fallback. Sampled outcomes
/// only ever slow an edge down (recovered > on-time, lost = never), which
/// makes every verdict monotone in the clean one:
///   - a receiver late in the clean run is late in every sample;
///   - when a sample's deviating edges all avoid the clean-on-time
///     receivers' earliest paths, those paths are intact and every clean
///     verdict stands.
/// Only samples that slow some clean earliest path down need a memo
/// lookup or a Dijkstra run.
struct CleanVerdict {
  std::uint64_t mask = 0;
  std::uint64_t pathLo = 0;
  std::uint64_t pathHi = 0;

  /// Records `receiver` as on time in the clean run whose predecessor
  /// edges ws.via holds, as verdict bit `bit`, with its earliest path.
  /// Only the flags are kept past 64 member edges or receivers.
  void addOnTime(const graph::DisseminationGraph& dg, DeliveryWorkspace& ws,
                 graph::NodeId receiver, std::size_t bit) {
    if (bit < 64) mask |= std::uint64_t{1} << bit;
    const std::vector<graph::EdgeId>& members = dg.edges();
    for (graph::NodeId n = receiver; n != dg.source();) {
      const graph::EdgeId e = ws.via[n];
      const std::size_t i = static_cast<std::size_t>(
          std::lower_bound(members.begin(), members.end(), e) -
          members.begin());
      ws.mcOnCleanPath[i] = 1;
      if (i < 64)
        (i < 32 ? pathLo : pathHi) |= std::uint64_t{1} << (2 * (i & 31));
      n = dg.overlay().edge(e).from;
    }
  }

  /// True when no deviating edge of the key lies on a clean earliest
  /// path (covers the all-on-time key as well). Collapses each 2-bit code
  /// to its even bit -- a pair is never 11 -- and intersects.
  bool intact(std::uint64_t keyLo, std::uint64_t keyHi) const {
    return (((keyLo | (keyLo >> 1)) & pathLo) |
            ((keyHi | (keyHi >> 1)) & pathHi)) == 0;
  }
};

/// Verdict mask of an outcome-pattern key that slows a clean earliest path
/// down: the pattern's memoized verdict, else evaluate() run over the
/// pre-filled clean weights with the key's deviating edges patched in (and
/// restored after). Identical patterns imply identical Dijkstra runs, so
/// the memo holds for the whole call.
template <typename Evaluate>
std::uint64_t memoizedVerdict(const std::vector<graph::EdgeId>& members,
                              std::uint64_t keyLo, std::uint64_t keyHi,
                              DeliveryWorkspace& ws, Evaluate&& evaluate) {
  std::uint64_t verdict = 0;
  if (ws.outcomeCache.find(keyLo, keyHi, verdict)) return verdict;
  // A code pair is never 11, so every set key bit identifies one
  // deviating edge -- even bit means recovered, odd bit means lost.
  const auto patch = [&](std::uint64_t bits, std::size_t base, bool restore) {
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const std::size_t i = base + static_cast<std::size_t>(b >> 1);
      ws.sampledHop[members[i]] = restore          ? ws.mcLatency[i]
                                  : (b & 1) != 0 ? util::kNever
                                                 : ws.mcRecoveredLatency[i];
    }
  };
  patch(keyLo, 0, false);
  patch(keyHi, 32, false);
  verdict = evaluate();
  patch(keyLo, 0, true);
  patch(keyHi, 32, true);
  ws.outcomeCache.store(verdict);
  return verdict;
}

/// Verdict mask of one sample's outcome-pattern key. The clean-path test
/// is the per-sample hot path and stays small enough to inline into the
/// sample loop; only keys that hit the mask leave it.
template <typename Evaluate>
std::uint64_t patternVerdict(const CleanVerdict& clean,
                             const std::vector<graph::EdgeId>& members,
                             std::uint64_t keyLo, std::uint64_t keyHi,
                             DeliveryWorkspace& ws, Evaluate&& evaluate) {
  if (clean.intact(keyLo, keyHi)) return clean.mask;
  return memoizedVerdict(members, keyLo, keyHi, ws, evaluate);
}

/// Sampling front end shared by both evaluators; prepareSampling must
/// have run. Draws `samples` samples through a local generator, so the
/// four state words live in registers for the whole loop nest (`rng` ends
/// in the same state). When `keyed` (at most 64 member edges, so a
/// 128-bit key holds 2 bits per edge) each sample's outcome-pattern key
/// goes to onKey(keyLo, keyHi), in sample order, from the classify kernel
/// resolveMcKernel picks. Otherwise each sample is drawn straight into
/// ws.sampledHop and onWeights(touches) is called, `touches` being whether
/// an edge flagged in ws.mcOnCleanPath left its on-time latency (if not,
/// the sample has the clean verdict; see CleanVerdict). Every path
/// consumes the same samples * memberCount draws in the same order.
template <typename OnKey, typename OnWeights>
void drawSamples(const std::vector<graph::EdgeId>& members, int samples,
                 bool keyed, util::Rng& rng, DeliveryWorkspace& ws,
                 OnKey&& onKey, OnWeights&& onWeights) {
  const std::size_t memberCount = members.size();
  util::Rng localRng = rng;

  if (!keyed) {
    for (int s = 0; s < samples; ++s) {
      bool touches = false;
      for (std::size_t i = 0; i < memberCount; ++i) {
        const std::uint64_t k = localRng.next() >> 11;
        const util::SimTime hop = k < ws.mcThrOnTime[i] ? ws.mcLatency[i]
                                  : k < ws.mcThrRecovered[i]
                                      ? ws.mcRecoveredLatency[i]
                                      : util::kNever;
        ws.sampledHop[members[i]] = hop;
        if (hop != ws.mcLatency[i]) touches |= ws.mcOnCleanPath[i] != 0;
      }
      onWeights(touches);
    }
#if DG_MC_HAVE_AVX2_TARGET
  } else if (resolveMcKernel(memberCount) == detail::McKernel::kBlockAvx2) {
    // Batched SoA kernel: draw a whole block of samples into the draw
    // buffer (sample-major -- byte-for-byte the order the fused loop
    // consumes), classify the block into per-sample pattern keys, then
    // score the keys in sample order. The RNG advances by exactly
    // blockSamples * memberCount draws either way, so the caller-visible
    // generator state and every verdict are bit-identical across
    // kernels.
    const std::size_t blockDraws =
        static_cast<std::size_t>(kMcBlockSamples) * memberCount;
    if (ws.mcDraws.size() < blockDraws) ws.mcDraws.resize(blockDraws);
    if (ws.mcKeyLo.size() < static_cast<std::size_t>(kMcBlockSamples)) {
      ws.mcKeyLo.resize(static_cast<std::size_t>(kMcBlockSamples));
      ws.mcKeyHi.resize(static_cast<std::size_t>(kMcBlockSamples));
    }
    for (int s0 = 0; s0 < samples; s0 += kMcBlockSamples) {
      const int blockSamples = std::min(kMcBlockSamples, samples - s0);
      localRng.nextBlock(ws.mcDraws.data(),
                         static_cast<std::size_t>(blockSamples) *
                             memberCount);
      buildKeysAvx2(ws.mcDraws.data(), memberCount, blockSamples,
                    ws.mcThrOnTime.data(), ws.mcThrRecovered.data(),
                    ws.mcKeyLo.data(), ws.mcKeyHi.data());
      for (std::size_t b = 0; b < static_cast<std::size_t>(blockSamples);
           ++b) {
        onKey(ws.mcKeyLo[b], ws.mcKeyHi[b]);
      }
    }
#endif
  } else {
    // Fused draw-and-classify loop: 2-bit outcome code per member edge
    // (0 = on-time, 1 = recovered, 2 = lost; the thresholds nest, so
    // 1 + the second comparison is the band index). The on-time branch
    // is the overwhelmingly common case -- with baseline loss rates it
    // is taken ~99.99% of the time -- so the key-building work is kept
    // off that path entirely, and the classify work hides under the
    // serial RNG dependency chain.
    for (int s = 0; s < samples; ++s) {
      std::uint64_t keyLo = 0;
      std::uint64_t keyHi = 0;
      const std::size_t lowCount = std::min<std::size_t>(memberCount, 32);
      for (std::size_t i = 0; i < lowCount; ++i) {
        const std::uint64_t k = localRng.next() >> 11;
        if (k >= ws.mcThrOnTime[i]) [[unlikely]] {
          const std::uint64_t code =
              1 + static_cast<std::uint64_t>(k >= ws.mcThrRecovered[i]);
          keyLo |= code << (2 * i);
        }
      }
      for (std::size_t i = 32; i < memberCount; ++i) {
        const std::uint64_t k = localRng.next() >> 11;
        if (k >= ws.mcThrOnTime[i]) [[unlikely]] {
          const std::uint64_t code =
              1 + static_cast<std::uint64_t>(k >= ws.mcThrRecovered[i]);
          keyHi |= code << (2 * (i - 32));
        }
      }
      onKey(keyLo, keyHi);
    }
  }
  rng = localRng;
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
  prepareSampling(members, lossRates, latencies, params, ws);

  // Clean-sample shortcut: when every member edge draws its on-time
  // transit outcome, the sampled array *equals* the latency array, so the
  // per-sample Dijkstra would reproduce this no-loss run exactly --
  // typically the majority of samples, since per-hop loss is well below 1
  // even on problematic links. The RNG is still advanced identically for
  // every sample, so results match the reference implementation bit for
  // bit. Deviating samples that leave the clean earliest path intact are
  // on time as well (CleanVerdict), and the rest repeat themselves, so
  // their verdicts are memoized per outcome pattern. Graphs with more
  // than 64 member edges overflow the 128-bit key and sample plainly.
  distancesWithin(dg, latencies, deadline, ws);
  const bool cleanOnTime = ws.dist[destination] <= deadline;
  const bool keyed = members.size() <= 64;
  CleanVerdict clean;
  if (cleanOnTime) clean.addOnTime(dg, ws, destination, 0);

  int delivered = 0;
  drawSamples(
      members, samples, keyed, rng, ws,
      [&](std::uint64_t keyLo, std::uint64_t keyHi) {
        delivered += static_cast<int>(
            patternVerdict(clean, members, keyLo, keyHi, ws, [&] {
              return static_cast<std::uint64_t>(
                  onTimeUnder(dg, destination, ws.sampledHop, deadline, ws));
            }));
      },
      [&](bool touches) {
        const bool onTime =
            touches ? onTimeUnder(dg, destination, ws.sampledHop, deadline, ws)
                    : cleanOnTime;
        if (onTime) ++delivered;
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
  prepareSampling(members, lossRates, latencies, params, ws);

  // One clean (all edges on time) run bounded by the loosest deadline
  // finalizes every receiver: a receiver left beyond maxDeadline has true
  // arrival beyond *every* deadline. The same bound serves every sample.
  util::SimTime maxDeadline = 0;
  for (const util::SimTime d : deadlines) maxDeadline = std::max(maxDeadline, d);
  distancesWithin(dg, latencies, maxDeadline, ws);

  // The unicast shortcuts, per receiver: the pattern memo holds a
  // receiver bitmask, so it needs a 128-bit key and at most 64 receivers.
  const bool keyed = members.size() <= 64 && receiverCount <= 64;
  CleanVerdict clean;
  for (std::size_t r = 0; r < receiverCount; ++r) {
    if (ws.dist[receivers[r]] <= deadlines[r])
      clean.addOnTime(dg, ws, receivers[r], r);
  }
  // dgcheck: setup end

  // Samples with the clean verdict are only counted here and tallied once
  // at the end; integer tallies do not depend on the order.
  int cleanSamples = 0;
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
  drawSamples(
      members, samples, keyed, rng, ws,
      [&](std::uint64_t keyLo, std::uint64_t keyHi) {
        const std::uint64_t verdict =
            patternVerdict(clean, members, keyLo, keyHi, ws, [&] {
              distancesWithin(dg, ws.sampledHop, maxDeadline, ws);
              std::uint64_t onTime = 0;
              for (std::size_t r = 0; r < receiverCount; ++r) {
                if (ws.dist[receivers[r]] <= deadlines[r])
                  onTime |= std::uint64_t{1} << r;
              }
              return onTime;
            });
        if (verdict == clean.mask) {
          ++cleanSamples;
        } else {
          tallyMask(verdict, 1);
        }
      },
      [&](bool touches) {
        if (!touches) {
          ++cleanSamples;
          return;
        }
        distancesWithin(dg, ws.sampledHop, maxDeadline, ws);
        tallyDist(1);
      });
  if (keyed) {
    tallyMask(clean.mask, cleanSamples);
  } else {
    distancesWithin(dg, latencies, maxDeadline, ws);
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
