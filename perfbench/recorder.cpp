// In-memory span/counter recorder for the traced run.
#include <fstream>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

int Recorder::begin(std::string name, int parent, std::int64_t job) {
  const std::int64_t start = nowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start, 0, parent, job});
  return static_cast<int>(spans_.size() - 1);
}

void Recorder::end(int id) {
  const std::int64_t stop = nowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).endNs = stop;
}

void Recorder::count(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, value] : counters_) {
    if (key == name) {
      value += delta;
      return;
    }
  }
  counters_.emplace_back(name, delta);
}

std::vector<double> Recorder::durationsSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name)
      out.push_back(static_cast<double>(span.endNs - span.startNs) / 1e9);
  }
  return out;
}

std::size_t Recorder::spanCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Recorder::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.startNs - origin
        << ", \"end_ns\": " << s.endNs - origin << ", \"parent\": " << s.parent
        << ", \"job\": " << s.job << "}";
  }
  out << "\n], \"counters\": {";
  out.precision(17);
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "  \"" << counters_[i].first
        << "\": " << counters_[i].second;
  }
  out << "\n}}\n";
}

}  // namespace perfbench
