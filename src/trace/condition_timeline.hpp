// Allocation-free sequential access to a trace's per-interval conditions.
//
// Trace storage is sparse (baseline + per-interval deviation lists), but
// the playback hot loop wants dense per-edge loss/latency arrays every
// interval. Materializing fresh vectors per interval (Trace::lossRatesAt/
// latenciesAt) costs O(edges) allocation + copy per step; a
// ConditionTimeline cursor instead owns one pair of dense arrays and
// moves between intervals by undoing the old interval's deviations and
// applying the new one's -- O(changes) per step, zero allocation, with
// stable std::span views into the arrays.
//
// A ConditionIndex assigns every interval an exact *content id*: two
// intervals share an id iff their deviation lists are element-wise equal
// (id 0 is reserved for clean/baseline intervals). Content ids are dense
// small integers interned by full comparison -- never by hash alone -- so
// they are safe to use as exact memoization keys for "this network view
// has been decided/evaluated before".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace dg::trace {

class ConditionIndex {
 public:
  /// Content id of every clean (deviation-free) interval.
  static constexpr std::uint32_t kCleanContent = 0;

  explicit ConditionIndex(const Trace& trace);

  std::size_t intervalCount() const { return ids_.size(); }

  /// Exact content id of an interval; equal ids imply element-wise equal
  /// deviation lists (and therefore identical dense condition arrays).
  std::uint32_t contentId(std::size_t interval) const {
    return ids_[interval];
  }

  /// Number of distinct contents seen (including the clean content).
  std::size_t distinctContents() const { return distinct_; }

 private:
  std::vector<std::uint32_t> ids_;
  std::size_t distinct_ = 1;
};

/// Abstract per-interval deviation feed for timeline cursors. An
/// in-memory Trace needs none (ConditionTimeline reads it directly); the
/// packed-trace store's chunked reader implements it, decoding on demand
/// and handing out spans into a reused workspace -- so a cursor can
/// replay a multi-week packed trace with memory bounded by one chunk,
/// never the whole trace.
class ConditionSource {
 public:
  virtual ~ConditionSource() = default;

  virtual std::size_t intervalCount() const = 0;
  virtual std::size_t edgeCount() const = 0;
  /// Healthy per-edge conditions; valid for the source's lifetime.
  virtual std::span<const LinkConditions> baseline() const = 0;
  /// Edge-sorted deviation list of one interval. The span is only
  /// guaranteed valid until the next deviationsAt() call (chunked
  /// sources reuse their decode workspace); callers that need the
  /// previous interval's list across a call must copy it.
  virtual std::span<const std::pair<graph::EdgeId, LinkConditions>>
  deviationsAt(std::size_t interval) = 0;
};

class ConditionTimeline {
 public:
  static constexpr std::size_t kUnpositioned = static_cast<std::size_t>(-1);

  explicit ConditionTimeline(const Trace& trace);
  /// Source-backed cursor: identical semantics, deviations pulled from
  /// `source` (which must outlive the cursor). Used for streaming
  /// playback over packed traces without materializing a Trace.
  explicit ConditionTimeline(ConditionSource& source);

  std::size_t interval() const { return interval_; }
  bool positioned() const { return interval_ != kUnpositioned; }

  /// Moves the cursor to `interval` by undoing the current interval's
  /// deviations and applying the target's: O(deviations of the two
  /// intervals), independent of seek distance. Throws std::out_of_range
  /// past the trace end.
  void seek(std::size_t interval);

  /// Dense per-edge views of the current interval's conditions. The spans
  /// stay valid (and their contents current) across seek() calls.
  std::span<const double> lossRates() const { return loss_; }
  std::span<const util::SimTime> latencies() const { return latency_; }

  /// The backing trace. Only valid for trace-backed cursors (the
  /// playback engine's); source-backed cursors have no Trace.
  const Trace& trace() const { return *trace_; }

 private:
  const Trace* trace_ = nullptr;       ///< null when source-backed
  ConditionSource* source_ = nullptr;  ///< null when trace-backed
  std::size_t interval_ = kUnpositioned;
  std::vector<double> loss_;
  std::vector<util::SimTime> latency_;
  /// Source-backed mode: copy of the current interval's deviations (the
  /// source's span may die at the next deviationsAt call, but seek()
  /// needs it to undo). Reuses capacity, so steady-state seeks stay
  /// allocation-free.
  std::vector<std::pair<graph::EdgeId, LinkConditions>> current_;
};

}  // namespace dg::trace
