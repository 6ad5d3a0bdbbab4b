#include "playback/sweep.hpp"

#include <stdexcept>

namespace dg::playback {

std::vector<IntervalRange> resolveWindows(
    const std::vector<FlowWindow>& windows, std::size_t entityCount,
    std::size_t intervalCount, std::string_view entity) {
  std::vector<IntervalRange> resolved(entityCount, {0, intervalCount});
  if (windows.empty()) return resolved;
  const std::string name(entity);
  if (windows.size() != entityCount)
    throw std::invalid_argument(name + "Windows must be empty or parallel to " +
                                name + "s");
  for (std::size_t i = 0; i < entityCount; ++i) {
    const std::size_t first = std::min(windows[i].firstInterval, intervalCount);
    const std::size_t last = std::min(windows[i].lastInterval, intervalCount);
    if (first >= last)
      throw std::invalid_argument(name + "Windows: empty window for " + name +
                                  " " + std::to_string(i));
    resolved[i] = {first, last};
  }
  return resolved;
}

}  // namespace dg::playback
