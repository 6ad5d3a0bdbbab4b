#include "topogen/workload.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "topogen/topogen.hpp"
#include "util/strings.hpp"

namespace dg::topogen {

namespace {

[[noreturn]] void badWorkload(const std::string& what) {
  throw std::invalid_argument("workload: " + what);
}

/// Rounds a positive time in seconds to integer microseconds, at least 1.
util::SimTime toMicros(double seconds) {
  const double us = seconds * 1e6;
  if (us >= 9.0e18) badWorkload("time overflows SimTime");
  return std::max<util::SimTime>(util::SimTime{1},
                                 static_cast<util::SimTime>(std::llround(us)));
}

/// The spec parser of both fleets; `groups` admits the receivers-min /
/// receivers-max keys.
GroupWorkloadParams parseSpec(std::string_view spec, bool groups) {
  const FamilySpec parsed = parseFamilySpec(spec);
  GroupWorkloadParams params;
  if (parsed.family == "poisson") {
    params.base.arrival = ArrivalProcess::kPoisson;
  } else if (parsed.family == "pareto") {
    params.base.arrival = ArrivalProcess::kBoundedPareto;
  } else {
    badWorkload("unknown arrival process '" + parsed.family +
                "' (expected poisson or pareto)");
  }
  for (const auto& [key, value] : parsed.params) {
    if (key != "flows" && key != "seed" && key != "mean" && key != "alpha" &&
        key != "min" && key != "max" && key != "duration" &&
        key != "min-duration" && key != "gravity" &&
        (!groups || (key != "receivers-min" && key != "receivers-max")))
      badWorkload("unknown parameter '" + key + "'");
  }
  params.base.seed = parsed.seed();
  params.base.flowCount =
      static_cast<std::size_t>(parsed.getInt("flows", 1000, 1, 1'000'000));
  params.base.meanInterarrivalSeconds = parsed.getDouble(
      "mean", params.base.meanInterarrivalSeconds, 1e-6, 1e9);
  params.base.paretoAlpha =
      parsed.getDouble("alpha", params.base.paretoAlpha, 1e-6, 100.0);
  params.base.paretoMinSeconds =
      parsed.getDouble("min", params.base.paretoMinSeconds, 1e-6, 1e9);
  params.base.paretoMaxSeconds =
      parsed.getDouble("max", params.base.paretoMaxSeconds, 1e-6, 1e9);
  params.base.meanDurationSeconds =
      parsed.getDouble("duration", params.base.meanDurationSeconds, 1e-6, 1e9);
  params.base.minDurationSeconds = parsed.getDouble(
      "min-duration", params.base.minDurationSeconds, 1e-6, 1e9);
  params.base.gravityExponent =
      parsed.getDouble("gravity", params.base.gravityExponent, 0.0, 16.0);
  params.receiversMin = static_cast<std::size_t>(
      parsed.getInt("receivers-min", 2, 1, 1'000'000));
  params.receiversMax = static_cast<std::size_t>(parsed.getInt(
      "receivers-max", static_cast<std::int64_t>(
                           std::max<std::size_t>(params.receiversMin, 4)),
      1, 1'000'000));
  if (params.receiversMax < params.receiversMin)
    badWorkload("receivers-max must be >= receivers-min");
  return params;
}

}  // namespace

double boundedPareto(util::Rng& rng, double alpha, double lo, double hi) {
  const double u = rng.uniform();
  const double ratio = std::pow(lo / hi, alpha);
  return lo / std::pow(1.0 - u * (1.0 - ratio), 1.0 / alpha);
}

FlowWorkload generateWorkload(const trace::Topology& topology,
                              const WorkloadParams& params) {
  const GroupWorkload groups = generateGroupWorkload(
      topology, {.base = params, .receiversMin = 1, .receiversMax = 1});
  FlowWorkload workload;
  workload.flows.reserve(groups.groups.size());
  for (const WorkloadGroup& g : groups.groups)
    workload.flows.push_back({{g.source, g.receivers[0]}, g.start, g.stop});
  return workload;
}

WorkloadParams parseWorkloadSpec(std::string_view spec) {
  return parseSpec(spec, false).base;
}

std::string workloadToString(const FlowWorkload& workload,
                             const trace::Topology& topology) {
  std::string out = "workload v1\n";
  for (const WorkloadFlow& flow : workload.flows) {
    out += "flow ";
    out += topology.name(flow.flow.source);
    out += ' ';
    out += topology.name(flow.flow.destination);
    out += ' ';
    out += std::to_string(flow.start);
    out += ' ';
    out += std::to_string(flow.stop);
    out += '\n';
  }
  return out;
}

FlowWorkload workloadFromString(std::string_view text,
                                const trace::Topology& topology) {
  FlowWorkload workload;
  bool sawHeader = false;
  std::size_t lineNumber = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line = util::trim(
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos));
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineNumber;
    if (line.empty() || line.front() == '#') continue;
    const std::vector<std::string> fields = util::splitWhitespace(line);
    const std::string where = " at line " + std::to_string(lineNumber);
    if (!sawHeader) {
      if (fields.size() != 2 || fields[0] != "workload" || fields[1] != "v1")
        badWorkload("expected 'workload v1' header" + where);
      sawHeader = true;
      continue;
    }
    if (fields[0] != "flow" || fields.size() != 5)
      badWorkload("expected 'flow SRC DST START STOP'" + where);
    WorkloadFlow flow;
    const auto src = topology.byName(fields[1]);
    const auto dst = topology.byName(fields[2]);
    if (!src || !dst)
      badWorkload("unknown site '" + (src ? fields[2] : fields[1]) + "'" +
                  where);
    if (*src == *dst)
      badWorkload("flow source equals destination" + where);
    std::int64_t start = 0;
    std::int64_t stop = 0;
    if (!util::parseInt64(fields[3], start) ||
        !util::parseInt64(fields[4], stop) || start < 0 || stop <= start)
      badWorkload("bad flow times" + where);
    flow.flow.source = *src;
    flow.flow.destination = *dst;
    flow.start = start;
    flow.stop = stop;
    workload.flows.push_back(flow);
  }
  if (!sawHeader) badWorkload("missing 'workload v1' header");
  return workload;
}

FlowWorkload workloadFromFile(const std::string& path,
                              const trace::Topology& topology) {
  std::ifstream in(path, std::ios::binary);
  if (!in) badWorkload("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return workloadFromString(buffer.str(), topology);
}

std::pair<std::size_t, std::size_t> flowIntervalWindow(
    const WorkloadFlow& flow, util::SimTime intervalLength,
    std::size_t intervalCount) {
  if (intervalLength <= 0 || intervalCount == 0)
    badWorkload("flowIntervalWindow needs a non-empty interval geometry");
  const auto cap = static_cast<util::SimTime>(intervalCount);
  std::size_t first = static_cast<std::size_t>(
      std::min(flow.start / intervalLength, cap));
  std::size_t last = static_cast<std::size_t>(std::min(
      (flow.stop + intervalLength - 1) / intervalLength, cap));
  // Flows starting at or after trace end still score their final
  // interval; never return an empty window.
  if (first >= intervalCount) first = intervalCount - 1;
  if (last <= first) last = first + 1;
  return {first, last};
}

GroupWorkload generateGroupWorkload(const trace::Topology& topology,
                                    const GroupWorkloadParams& params) {
  const std::size_t sites = topology.siteCount();
  if (sites < 2) badWorkload("topology needs at least two sites");
  const WorkloadParams& base = params.base;
  if (base.flowCount == 0) badWorkload("flowCount must be positive");
  if (base.meanInterarrivalSeconds <= 0 || base.meanDurationSeconds <= 0 ||
      base.minDurationSeconds <= 0)
    badWorkload("time parameters must be positive");
  if (base.paretoAlpha <= 0 || base.paretoMinSeconds <= 0 ||
      base.paretoMaxSeconds <= base.paretoMinSeconds)
    badWorkload("bounded-Pareto parameters need alpha > 0 and max > min > 0");
  if (base.gravityExponent < 0) badWorkload("gravityExponent must be >= 0");
  if (params.receiversMin == 0) badWorkload("receiversMin must be positive");
  if (params.receiversMax < params.receiversMin)
    badWorkload("receiversMax must be >= receiversMin");
  if (params.receiversMax > sites - 1)
    badWorkload("receiversMax exceeds site count minus one");

  std::vector<double> weights(sites);
  double total = 0.0;
  for (std::size_t i = 0; i < sites; ++i) {
    const double degree = static_cast<double>(
        topology.graph().outEdges(static_cast<graph::NodeId>(i)).size());
    weights[i] = base.gravityExponent == 0.0
                     ? 1.0
                     : std::pow(degree, base.gravityExponent);
    total += weights[i];
  }
  if (total <= 0.0) std::fill(weights.begin(), weights.end(), 1.0);

  // The size stream is forked last and drawn only when the receiver
  // count varies, so the one-receiver fleet (generateWorkload) draws from
  // the first three streams alone.
  util::Rng rng(base.seed);
  util::Rng arrivalRng = rng.fork();
  util::Rng endpointRng = rng.fork();
  util::Rng durationRng = rng.fork();
  util::Rng sizeRng = rng.fork();

  GroupWorkload workload;
  workload.groups.reserve(base.flowCount);
  std::vector<char> taken(sites, 0);
  double clockSeconds = 0.0;
  for (std::size_t i = 0; i < base.flowCount; ++i) {
    clockSeconds += base.arrival == ArrivalProcess::kPoisson
                        ? arrivalRng.exponential(base.meanInterarrivalSeconds)
                        : boundedPareto(arrivalRng, base.paretoAlpha,  // dgcheck: ok(R6): arrivalRng is a dedicated forked stream and the arrival clock is a running sum, so draws are inherently sequential
                                        base.paretoMinSeconds,
                                        base.paretoMaxSeconds);
    WorkloadGroup group;
    group.start = toMicros(clockSeconds);
    const double duration =
        std::max(base.minDurationSeconds,
                 durationRng.exponential(base.meanDurationSeconds));
    group.stop = group.start + toMicros(duration);

    const std::size_t src = endpointRng.weightedIndex(weights);
    group.source = static_cast<graph::NodeId>(src);

    const std::size_t span = params.receiversMax - params.receiversMin + 1;
    const std::size_t count =
        params.receiversMin +
        (span == 1 ? 0
                   : static_cast<std::size_t>(
                         sizeRng.uniformInt(static_cast<std::uint64_t>(span))));

    std::fill(taken.begin(), taken.end(), 0);
    taken[src] = 1;
    group.receivers.reserve(count);
    std::size_t scan = (src + 1) % sites;
    for (std::size_t r = 0; r < count; ++r) {
      std::size_t pick = src;
      for (int attempt = 0; taken[pick] != 0 && attempt < 64; ++attempt)
        pick = endpointRng.weightedIndex(weights);
      // Degenerate weight vectors cannot produce enough distinct
      // receivers by sampling; take the next untaken site round-robin.
      while (taken[pick] != 0) {
        pick = scan;
        scan = (scan + 1) % sites;
      }
      taken[pick] = 1;
      group.receivers.push_back(static_cast<graph::NodeId>(pick));
    }
    workload.groups.push_back(std::move(group));
  }
  return workload;
}

GroupWorkloadParams parseGroupWorkloadSpec(std::string_view spec) {
  return parseSpec(spec, true);
}

std::string groupWorkloadToString(const GroupWorkload& workload,
                                  const trace::Topology& topology) {
  std::string out = "group-workload v1\n";
  for (const WorkloadGroup& group : workload.groups) {
    out += "group ";
    out += topology.name(group.source);
    out += ' ';
    for (std::size_t r = 0; r < group.receivers.size(); ++r) {
      if (r != 0) out += '+';
      out += topology.name(group.receivers[r]);
    }
    out += ' ';
    out += std::to_string(group.start);
    out += ' ';
    out += std::to_string(group.stop);
    out += '\n';
  }
  return out;
}

GroupWorkload groupWorkloadFromString(std::string_view text,
                                      const trace::Topology& topology) {
  GroupWorkload workload;
  bool sawHeader = false;
  std::size_t lineNumber = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line = util::trim(
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos));
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineNumber;
    if (line.empty() || line.front() == '#') continue;
    const std::vector<std::string> fields = util::splitWhitespace(line);
    const std::string where = " at line " + std::to_string(lineNumber);
    if (!sawHeader) {
      if (fields.size() != 2 || fields[0] != "group-workload" ||
          fields[1] != "v1")
        badWorkload("expected 'group-workload v1' header" + where);
      sawHeader = true;
      continue;
    }
    if (fields[0] != "group" || fields.size() != 5)
      badWorkload("expected 'group SRC R1+R2 START STOP'" + where);
    WorkloadGroup group;
    const auto src = topology.byName(fields[1]);
    if (!src) badWorkload("unknown site '" + fields[1] + "'" + where);
    group.source = *src;
    std::string_view receivers = fields[2];
    while (!receivers.empty()) {
      const std::size_t plus = receivers.find('+');
      const std::string_view name = receivers.substr(0, plus);
      receivers = plus == std::string_view::npos
                      ? std::string_view{}
                      : receivers.substr(plus + 1);
      const auto receiver = topology.byName(name);
      if (!receiver)
        badWorkload("unknown site '" + std::string(name) + "'" + where);
      if (*receiver == group.source)
        badWorkload("receiver equals source" + where);
      for (const graph::NodeId existing : group.receivers)
        if (existing == *receiver)
          badWorkload("duplicate receiver '" + std::string(name) + "'" +
                      where);
      group.receivers.push_back(*receiver);
    }
    if (group.receivers.empty())
      badWorkload("group needs at least one receiver" + where);
    std::int64_t start = 0;
    std::int64_t stop = 0;
    if (!util::parseInt64(fields[3], start) ||
        !util::parseInt64(fields[4], stop) || start < 0 || stop <= start)
      badWorkload("bad group times" + where);
    group.start = start;
    group.stop = stop;
    workload.groups.push_back(std::move(group));
  }
  if (!sawHeader) badWorkload("missing 'group-workload v1' header");
  return workload;
}

GroupWorkload groupWorkloadFromFile(const std::string& path,
                                    const trace::Topology& topology) {
  std::ifstream in(path, std::ios::binary);
  if (!in) badWorkload("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return groupWorkloadFromString(buffer.str(), topology);
}

std::pair<std::size_t, std::size_t> groupIntervalWindow(
    const WorkloadGroup& group, util::SimTime intervalLength,
    std::size_t intervalCount) {
  WorkloadFlow flow;
  flow.start = group.start;
  flow.stop = group.stop;
  return flowIntervalWindow(flow, intervalLength, intervalCount);
}

}  // namespace dg::topogen
