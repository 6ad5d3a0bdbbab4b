// Process accounting, machine fingerprint and small statistics helpers.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "util/wall_clock.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// Allocation counting: this binary replaces the default operator
// new/delete (the array and sized forms forward here by default), so
// every heap allocation of the library calls made by the benchmark is
// counted at the cost of one relaxed atomic increment.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

namespace {

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

std::int64_t nowNs() { return dg::util::nowNanos(); }

std::int64_t processCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double peakRssMb() {
  // VmHWM is this process image's high-water mark; getrusage's ru_maxrss
  // would also carry the launching process's peak across exec.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  return 0.0;
}

std::uint64_t allocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::vector<std::pair<std::string, std::string>> machineFingerprint() {
  __builtin_cpu_init();
  return {
      {"cpu_model", jsonString(cpuModel())},
      {"avx2", __builtin_cpu_supports("avx2") ? "true" : "false"},
      {"avx512f", __builtin_cpu_supports("avx512f") ? "true" : "false"},
      {"cores", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", jsonString(std::string("gcc ") + __VERSION__)},
      {"build_type", jsonString(PERFBENCH_BUILD_TYPE)},
  };
}

void RunReport::setConfig(const std::string& key,
                          const std::string& jsonValue) {
  config.emplace_back(key, jsonValue);
}

void RunReport::setConfig(const std::string& key, double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  config.emplace_back(key, out.str());
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5 && values.size() % 2 == 0) {
    const std::size_t hi = values.size() / 2;
    return (values[hi - 1] + values[hi]) / 2.0;
  }
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
