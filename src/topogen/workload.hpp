// Open-loop fleet workloads: seeded generators that turn a topology into
// thousands of flows with per-flow start/stop times, so experiments can
// replay realistic offered load instead of a hand-picked flow list.
//
// Arrivals follow an open-loop process -- flow start times are a
// cumulative sum of i.i.d. inter-arrival draws, independent of how the
// network performs -- with two interchangeable distributions: Poisson
// (exponential inter-arrivals) and bounded Pareto (heavy-tailed bursts
// with a finite upper cutoff). Endpoints are drawn from a gravity model:
// a site's attraction is its overlay degree raised to a configurable
// exponent, and destination != source always.
//
// Workloads serialize to an exact text format (site names + integer
// microseconds), so a generated fleet can be recorded once and replayed
// byte-identically across machines and runs.
//
// Specs are compact strings like topology specs:
//   "poisson:flows=1000,seed=3,mean=0.5,duration=300"
//   "pareto:flows=500,alpha=1.5,min=0.05,max=60,duration=120"
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "routing/scheme.hpp"
#include "trace/topology.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace dg::topogen {

enum class ArrivalProcess {
  kPoisson,        ///< exponential inter-arrival times
  kBoundedPareto,  ///< Pareto inter-arrivals truncated to [min, max]
};

struct WorkloadParams {
  std::uint64_t seed = 1;
  std::size_t flowCount = 1000;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;

  /// Poisson: mean inter-arrival time, seconds.
  double meanInterarrivalSeconds = 1.0;

  /// Bounded Pareto inter-arrivals: shape and [min, max] support, seconds.
  double paretoAlpha = 1.5;
  double paretoMinSeconds = 0.05;
  double paretoMaxSeconds = 3600.0;

  /// Flow lifetime: exponential with this mean, floored at the minimum
  /// (every flow lives at least one scoring interval's worth of time).
  double meanDurationSeconds = 300.0;
  double minDurationSeconds = 10.0;

  /// Gravity-model endpoint weight: degree^exponent. 0 = uniform.
  double gravityExponent = 1.0;
};

/// One flow of the fleet with its active [start, stop) span.
struct WorkloadFlow {
  routing::Flow flow;
  util::SimTime start = 0;  ///< inclusive, microseconds
  util::SimTime stop = 0;   ///< exclusive, microseconds; always > start
};

struct FlowWorkload {
  std::vector<WorkloadFlow> flows;
};

/// One bounded-Pareto draw over [lo, hi] with shape alpha, by inverse
/// CDF: F^-1(u) = lo / (1 - u (1 - (lo/hi)^alpha))^(1/alpha).
/// Exposed for the distribution tests.
double boundedPareto(util::Rng& rng, double alpha, double lo, double hi);

/// Generates the fleet: the one-receiver group fleet
/// (generateGroupWorkload with receiversMin = receiversMax = 1), each
/// group read as the flow to its receiver. Deterministic: equal
/// (topology, params) pairs give identical workloads. Throws
/// std::invalid_argument when the topology has fewer than two sites or a
/// parameter is out of range.
FlowWorkload generateWorkload(const trace::Topology& topology,
                              const WorkloadParams& params);

/// Parses "poisson:..." / "pareto:..." spec strings (keys: flows, seed,
/// mean, alpha, min, max, duration, min-duration, gravity). Throws
/// std::invalid_argument on unknown process or parameter, the group
/// fleet's receivers-min / receivers-max included.
WorkloadParams parseWorkloadSpec(std::string_view spec);

/// Exact text round-trip: "workload v1" header, then one
/// "flow SRC DST START_US STOP_US" line per flow, '#' comments allowed.
/// workloadFromString(workloadToString(w)) reproduces w exactly.
std::string workloadToString(const FlowWorkload& workload,
                             const trace::Topology& topology);
FlowWorkload workloadFromString(std::string_view text,
                                const trace::Topology& topology);
FlowWorkload workloadFromFile(const std::string& path,
                              const trace::Topology& topology);

/// Maps a flow's active span onto trace interval geometry: first =
/// floor(start / intervalLength), last = ceil(stop / intervalLength),
/// both clamped to [0, intervalCount], widened to cover at least one
/// interval. Returns the half-open [first, last) pair the experiment
/// runner's FlowWindow wants.
std::pair<std::size_t, std::size_t> flowIntervalWindow(
    const WorkloadFlow& flow, util::SimTime intervalLength,
    std::size_t intervalCount);

// ---------------------------------------------------------------------
// Group (receiver-set) workloads for the multicast subsystem.

struct GroupWorkloadParams {
  WorkloadParams base;
  /// Receiver-set size, drawn uniformly from [receiversMin, receiversMax]
  /// per group arrival.
  std::size_t receiversMin = 2;
  std::size_t receiversMax = 4;
};

/// One group arrival of the fleet with its active [start, stop) span.
/// Receiver order is significant downstream (it feeds the group RNG
/// stream derivation), so it is preserved exactly by serialization.
struct WorkloadGroup {
  graph::NodeId source = graph::kInvalidNode;
  std::vector<graph::NodeId> receivers;
  util::SimTime start = 0;  ///< inclusive, microseconds
  util::SimTime stop = 0;   ///< exclusive, microseconds; always > start
};

struct GroupWorkload {
  std::vector<WorkloadGroup> groups;
};

/// Generates a group fleet: open-loop arrivals and exponential durations
/// on their own forked RNG streams (so a group fleet's clock matches the
/// flow fleet's for equal base params, whatever the receiver counts),
/// the source and then the receiver set gravity-sampled without
/// replacement from a third stream. Throws std::invalid_argument when receiversMin
/// is 0, receiversMax < receiversMin, or receiversMax > siteCount - 1.
GroupWorkload generateGroupWorkload(const trace::Topology& topology,
                                    const GroupWorkloadParams& params);

/// Parses group workload specs: same processes and keys as
/// parseWorkloadSpec plus receivers-min / receivers-max, e.g.
///   "poisson:flows=200,seed=7,receivers-min=2,receivers-max=8"
GroupWorkloadParams parseGroupWorkloadSpec(std::string_view spec);

/// Exact text round-trip: "group-workload v1" header, then one
/// "group SRC R1+R2+R3 START_US STOP_US" line per group.
/// groupWorkloadFromString(groupWorkloadToString(w)) reproduces w
/// exactly, receiver order included.
std::string groupWorkloadToString(const GroupWorkload& workload,
                                  const trace::Topology& topology);
GroupWorkload groupWorkloadFromString(std::string_view text,
                                      const trace::Topology& topology);
GroupWorkload groupWorkloadFromFile(const std::string& path,
                                    const trace::Topology& topology);

/// flowIntervalWindow's arithmetic applied to a group's active span.
std::pair<std::size_t, std::size_t> groupIntervalWindow(
    const WorkloadGroup& group, util::SimTime intervalLength,
    std::size_t intervalCount);

}  // namespace dg::topogen
