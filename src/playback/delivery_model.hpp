// Per-packet delivery semantics shared by the playback engine and
// (conceptually) the event-driven simulator.
//
// A packet is flooded on a dissemination graph. On each hop it is lost
// with the link's current loss probability; a lost transmission can be
// recovered at most once per hop by the real-time link protocol: the gap
// is noticed when the next packet arrives (one inter-packet interval),
// then a NACK crosses the link and the retransmission crosses it again,
// so a recovered hop costs 3*latency + packetInterval instead of latency.
// A packet counts as delivered iff some causal chain of successful (or
// once-recovered) transmissions reaches the destination within the
// deadline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace dg::playback {

struct DeliveryModelParams {
  util::SimTime deadline = util::milliseconds(65);
  /// Inter-packet gap of the flow; bounds loss-detection delay.
  util::SimTime packetInterval = util::milliseconds(10);
  /// Master switch for the per-hop real-time recovery protocol.
  bool recoveryEnabled = true;
};

namespace detail {

/// Flat 4-ary min-heap over (time, node) entries, ordered by the full
/// pair. Because the order is total (up to exact duplicates, which are
/// interchangeable), the pop sequence equals sorted order and is
/// therefore identical to std::priority_queue's regardless of heap shape
/// -- Dijkstra results stay bit-for-bit unchanged. The 4-ary layout
/// trades slightly more sift-down comparisons for half the tree depth and
/// better cache locality, and the backing vector is reused across
/// samples/intervals without reallocating.
class DaryHeap {
 public:
  struct Entry {
    util::SimTime time;
    graph::NodeId node;
  };

  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  void push(util::SimTime time, graph::NodeId node);
  /// Removes and returns the minimum entry. Precondition: !empty().
  Entry popMin();

 private:
  static constexpr std::size_t kArity = 4;
  static bool less(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.node < b.node);
  }
  std::vector<Entry> entries_;
};

/// Per-Monte-Carlo-call memo of sampled outcome patterns. Within one call
/// every member edge draws one of three outcomes (on-time / recovered /
/// lost), so a sample's effective weight vector is fully described by 2
/// bits per member edge -- and with realistic loss rates only a handful
/// of patterns ever occur across the 1000 samples. Caching the Dijkstra
/// verdict per pattern skips the redundant re-runs while every RNG draw
/// still happens, so results are bit-identical to evaluating each sample
/// directly. The verdict is a receiver bitmask (bit r = receiver r on
/// time; the unicast evaluator uses bit 0 only). Epoch-tagged open
/// addressing: beginEpoch() is O(1), lookups probe a bounded window and
/// simply decline to cache on contention.
class SampleOutcomeCache {
 public:
  /// Starts a new memo epoch, logically clearing all entries.
  void beginEpoch();

  /// True with the cached verdict on a hit. On a miss it reserves a slot
  /// when the probe window has room; the caller must then follow up with
  /// store() (which is a no-op when nothing was reserved).
  bool find(std::uint64_t keyLo, std::uint64_t keyHi, std::uint64_t& verdict);

  /// Fills the slot reserved by the preceding missed find(), if any.
  void store(std::uint64_t verdict);

 private:
  struct Slot {
    std::uint64_t keyLo = 0;
    std::uint64_t keyHi = 0;
    std::uint64_t verdict = 0;
    std::uint32_t epoch = 0;
  };
  static constexpr std::size_t kSlots = 4096;  // power of two
  static constexpr std::size_t kMaxProbes = 8;
  static constexpr std::size_t kNoSlot = kSlots;

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 0;
  std::size_t pending_ = kNoSlot;
};

/// Monte-Carlo classify-kernel selection. The fused kernel is the
/// original draw-and-classify loop; the batched AVX2 kernel draws RNG
/// outcomes for a whole block of samples at once (structure-of-arrays
/// draw buffer) and then classifies the block against the per-edge 53-bit
/// thresholds. The unicast and the group evaluator run on the same
/// kernels and dispatch. Both kernels consume draws in the identical
/// order and produce bit-identical results -- kAuto picks per call based
/// on runtime CPU support and the member-edge count, and the forced
/// values let the equivalence suites pin every kernel against the frozen
/// references.
enum class McKernel { kAuto, kFusedScalar, kBlockAvx2 };

/// Forces a kernel for testing (kAuto restores normal dispatch). Not
/// thread-safe; flip it only from single-threaded test setup.
void setMcKernelForTest(McKernel kernel);
/// True if this process can execute the given kernel.
bool mcKernelSupported(McKernel kernel);

}  // namespace detail

/// Caller-owned scratch memory for the delivery evaluators. One workspace
/// serves any number of calls (its arrays are sized on demand); reusing it
/// across the playback hot loop removes every per-call allocation. The
/// contents carry no state between calls -- results are identical whether
/// a workspace is reused, fresh, or (via the wrapper overloads) implicit.
struct DeliveryWorkspace {
  std::vector<util::SimTime> sampledHop;  ///< per-edge sampled hop latency
  std::vector<util::SimTime> dist;        ///< per-node tentative arrival
  std::vector<graph::EdgeId> via;         ///< per-node predecessor edge
  detail::DaryHeap heap;
  detail::SampleOutcomeCache outcomeCache;
  /// Per-member-edge sampling tables, rebuilt per Monte-Carlo call (by
  /// both evaluators): the hop-outcome thresholds as exact 53-bit integers
  /// (see prepareSampling in delivery_model.cpp for the u < thr
  /// equivalence proof) and the
  /// on-time / recovered hop latencies, laid out densely in
  /// dissemination-graph edge order.
  std::vector<std::uint64_t> mcThrOnTime;
  std::vector<std::uint64_t> mcThrRecovered;
  std::vector<util::SimTime> mcLatency;
  std::vector<util::SimTime> mcRecoveredLatency;
  /// Per member edge: lies on a clean-on-time earliest path (the plain
  /// fallback's form of the clean-path key mask).
  std::vector<char> mcOnCleanPath;
  /// Structure-of-arrays block buffers for the batched Monte-Carlo
  /// kernels: raw RNG draws for a block of samples (sample-major, so the
  /// draw order equals the reference's), and the per-sample 2-bit
  /// outcome-pattern keys classified from them.
  std::vector<std::uint64_t> mcDraws;
  std::vector<std::uint64_t> mcKeyLo;
  std::vector<std::uint64_t> mcKeyHi;

  /// Ensures the per-edge/per-node arrays cover `overlay`.
  void prepare(const graph::Graph& overlay);
};

/// Effective hop outcome distribution on a link with loss rate p and
/// latency `lat`:
///   on-time transit  w.p. (1-p)          after lat
///   recovered        w.p. p(1-p)         after 3*lat + packetInterval
///   lost             w.p. p^2
/// (without recovery: transit w.p. 1-p, lost w.p. p).
util::SimTime sampleHopLatency(double lossRate, util::SimTime latency,
                               const DeliveryModelParams& params,
                               util::Rng& rng);

/// Monte-Carlo estimate of P(packet delivered within deadline) when
/// flooded on `dg` under the given per-edge conditions. Scratch memory
/// comes from `workspace`; for a given rng state the result does not
/// depend on the workspace's prior contents.
double onTimeProbabilityMC(const graph::DisseminationGraph& dg,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           int samples, util::Rng& rng,
                           DeliveryWorkspace& workspace);

/// Convenience overload with a private throwaway workspace.
double onTimeProbabilityMC(const graph::DisseminationGraph& dg,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           int samples, util::Rng& rng);

/// Exact fast path valid when every member edge's loss rate is tiny
/// (<= lossEpsilon): delivery is then deterministic up to a residual miss
/// probability bounded by the sum of per-hop unrecoverable losses along
/// the best path. Returns the miss probability (0 area or 1 when even the
/// lossless earliest arrival exceeds the deadline). The one-receiver call
/// of missGroupNearLossless.
double missProbabilityNearLossless(const graph::DisseminationGraph& dg,
                                   std::span<const double> lossRates,
                                   std::span<const util::SimTime> latencies,
                                   const DeliveryModelParams& params,
                                   DeliveryWorkspace& workspace);

/// Convenience overload with a private throwaway workspace.
double missProbabilityNearLossless(const graph::DisseminationGraph& dg,
                                   std::span<const double> lossRates,
                                   std::span<const util::SimTime> latencies,
                                   const DeliveryModelParams& params);

/// True if the fast path above is applicable.
bool nearLossless(const graph::DisseminationGraph& dg,
                  std::span<const double> lossRates, double lossEpsilon);

// ---------------------------------------------------------------------
// Receiver-set evaluators, the ones the playback step runs. One flooded
// send on `dg` is scored against every receiver's own deadline; a
// unicast flow is the one-receiver case. For a single receiver these are
// bit-identical to the unicast evaluators above (same RNG draw
// discipline, same Dijkstra, same arithmetic) -- pinned by test.
// ---------------------------------------------------------------------

/// Near-lossless group evaluation: one unbounded earliest-arrival run,
/// then per receiver the deterministic verdict -- miss 1.0 when
/// unreachable or late, otherwise the residual loss summed along that
/// receiver's earliest-path predecessor chain. Fills missOut[i] and
/// arrivalOut[i] (util::kNever when unreachable), both sized to the
/// receiver count.
void missGroupNearLossless(const graph::DisseminationGraph& dg,
                           std::span<const graph::NodeId> receivers,
                           std::span<const util::SimTime> deadlines,
                           std::span<const double> lossRates,
                           std::span<const util::SimTime> latencies,
                           const DeliveryModelParams& params,
                           DeliveryWorkspace& workspace,
                           std::span<double> missOut,
                           std::span<util::SimTime> arrivalOut);

/// Clean (no-loss) earliest arrival per receiver under the given
/// latencies; util::kNever where unreachable. Equals
/// DisseminationGraph::latencyToDestination for each receiver.
void groupCleanArrivals(const graph::DisseminationGraph& dg,
                        std::span<const util::SimTime> latencies,
                        std::span<const graph::NodeId> receivers,
                        DeliveryWorkspace& workspace,
                        std::span<util::SimTime> arrivalOut);

/// Monte-Carlo group evaluation: for each sample every member edge draws
/// its hop outcome exactly as the unicast evaluator does (identical RNG
/// stream; `rng` is advanced by samples * memberCount draws), and every
/// receiver gets an on-time verdict against its own deadline. A single
/// receiver runs the unicast kernel of onTimeProbabilityMC; more run on
/// its sampling front end (block draws, classify kernels, clean-path
/// mask, pattern memo holding a per-receiver verdict mask), and with more
/// than 64 member edges or receivers sample plainly.
/// onTimeCounts[i] (receiver count) accumulates per-receiver on-time
/// samples; deliveredHistogram[c] (receiver count + 1) counts samples
/// delivered on time to exactly c receivers -- delivered-to-all is the
/// last bin, delivered-to-k is an upper tail sum. Both are zeroed here.
void onTimeCountsMCGroup(const graph::DisseminationGraph& dg,
                         std::span<const graph::NodeId> receivers,
                         std::span<const util::SimTime> deadlines,
                         std::span<const double> lossRates,
                         std::span<const util::SimTime> latencies,
                         const DeliveryModelParams& params, int samples,
                         util::Rng& rng, DeliveryWorkspace& workspace,
                         std::span<int> onTimeCounts,
                         std::span<int> deliveredHistogram);

}  // namespace dg::playback
