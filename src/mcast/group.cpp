#include "mcast/group.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace dg::mcast {

namespace {

[[noreturn]] void badGroup(const std::string& what) {
  throw std::invalid_argument("mcast: " + what);
}

}  // namespace

void validateGroup(const Group& group, std::size_t nodeCount) {
  if (group.receivers.empty()) badGroup("group has no receivers");
  if (static_cast<std::size_t>(group.source) >= nodeCount)
    badGroup("group source is not an overlay node");
  std::vector<graph::NodeId> seen;
  for (const graph::NodeId r : group.receivers) {
    if (static_cast<std::size_t>(r) >= nodeCount)
      badGroup("group receiver is not an overlay node");
    if (r == group.source) badGroup("group receiver equals the source");
    if (std::find(seen.begin(), seen.end(), r) != seen.end())
      badGroup("duplicate group receiver");
    seen.push_back(r);
  }
  if (!group.deadlines.empty()) {
    if (group.deadlines.size() != group.receivers.size())
      badGroup("deadline list must be empty or parallel to receivers");
    for (const util::SimTime d : group.deadlines) {
      if (d <= 0) badGroup("non-positive receiver deadline");
    }
  }
}

routing::Flow receiverFlow(const Group& group, std::size_t i) {
  return routing::Flow{group.source, group.receivers[i]};
}

util::SimTime receiverDeadline(const Group& group, std::size_t i,
                               util::SimTime fallback) {
  return group.deadlines.empty() ? fallback : group.deadlines[i];
}

std::string groupLabel(const Group& group) {
  std::string label = std::to_string(group.source) + "->";
  for (std::size_t i = 0; i < group.receivers.size(); ++i) {
    if (i != 0) label += '+';
    label += std::to_string(group.receivers[i]);
  }
  return label;
}

std::string groupName(const Group& group, const trace::Topology& topology) {
  std::string label = topology.name(group.source) + "->";
  for (std::size_t i = 0; i < group.receivers.size(); ++i) {
    if (i != 0) label += '+';
    label += topology.name(group.receivers[i]);
  }
  return label;
}

Group parseGroupSpec(std::string_view spec,
                     const trace::Topology& topology) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= spec.size())
    badGroup("group spec must look like SRC:R1+R2 (got '" +
             std::string(spec) + "')");
  const std::string sourceName{util::trim(spec.substr(0, colon))};
  const auto source = topology.byName(sourceName);
  if (!source) badGroup("unknown site '" + sourceName + "'");

  Group group;
  group.source = *source;
  // Every '+' separates two names, so a leading, doubled or trailing '+'
  // leaves an empty one.
  std::string_view rest = spec.substr(colon + 1);
  for (std::size_t plus = 0; plus != std::string_view::npos;) {
    plus = rest.find('+');
    const std::string receiverName{util::trim(rest.substr(0, plus))};
    if (plus != std::string_view::npos) rest = rest.substr(plus + 1);
    if (receiverName.empty()) badGroup("empty receiver name in group spec");
    const auto receiver = topology.byName(receiverName);
    if (!receiver) badGroup("unknown site '" + receiverName + "'");
    group.receivers.push_back(*receiver);
  }
  validateGroup(group, topology.siteCount());
  return group;
}

std::vector<Group> parseGroupList(std::string_view specs,
                                  const trace::Topology& topology) {
  std::vector<Group> groups;
  std::size_t pos = 0;
  while (pos <= specs.size()) {
    const std::size_t comma = specs.find(',', pos);
    const std::string_view one = util::trim(specs.substr(
        pos, comma == std::string_view::npos ? comma : comma - pos));
    pos = comma == std::string_view::npos ? specs.size() + 1 : comma + 1;
    if (one.empty()) continue;
    groups.push_back(parseGroupSpec(one, topology));
  }
  if (groups.empty()) badGroup("no groups in group list");
  return groups;
}

}  // namespace dg::mcast
