// perfbench: the repository benchmark (see perfbench/README.md).
//
// One binary runs one workload per invocation. With tracing off it times
// the workload's public runner calls and reports the end-to-end metrics;
// with tracing on it records spans around every layer call it makes and
// reports the per-layer metrics. Both modes check the outputs.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs so every workload finishes in seconds (self-tests).
  bool small = false;
  /// Corrupt one checked result before comparison (self-tests: the
  /// corruption must show up as a failed operation).
  bool perturb = false;
  std::string outDir = ".bench_build/out";
  std::string gitSha = "unknown";
  std::string sourceDigest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced: the metrics of the selected mode, the
/// correctness accounting, and the configuration the numbers belong to.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed operation
  std::vector<Metric> metrics;
  /// Workload configuration, key -> JSON-encoded value.
  std::vector<std::pair<std::string, std::string>> config;
  /// Runner calls the untraced run timed (an outcome, not configuration).
  std::uint64_t timedCalls = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
  void setConfig(const std::string& key, const std::string& jsonValue);
  void setConfig(const std::string& key, double value);
};

// ---------------------------------------------------------------------
// Timing and process accounting (machine.cpp).
// ---------------------------------------------------------------------

std::int64_t nowNs();
/// Process CPU time (user + system) in nanoseconds.
std::int64_t processCpuNs();
double peakRssMb();
/// Heap allocations made by this process so far (operator new calls).
std::uint64_t allocationCount();
/// Machine fingerprint, key -> JSON-encoded value.
std::vector<std::pair<std::string, std::string>> machineFingerprint();

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// Wall and process-CPU stopwatch around one call.
struct CallTimer {
  std::int64_t wall0 = nowNs();
  std::int64_t cpu0 = processCpuNs();
  double wallSeconds() const { return static_cast<double>(nowNs() - wall0) / 1e9; }
  double cpuSeconds() const {
    return static_cast<double>(processCpuNs() - cpu0) / 1e9;
  }
};

// ---------------------------------------------------------------------
// In-memory span and counter recorder (recorder.cpp). Spans are kept in
// memory and written out once, when the run ends.
// ---------------------------------------------------------------------

class Recorder {
 public:
  struct SpanRecord {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::int64_t job = -1;
  };

  /// Opens a span; returns its id (the parent of spans it causes).
  int begin(std::string name, int parent = -1, std::int64_t job = -1);
  void end(int id);
  void count(const std::string& name, double delta);

  /// Durations of the spans named `name`, in seconds.
  std::vector<double> durationsSeconds(const std::string& name) const;
  std::size_t spanCount() const;

  /// Writes {"spans": [...], "counters": {...}} to `path`.
  void write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<std::pair<std::string, double>> counters_;
};

/// RAII span; a null recorder makes it a no-op.
class Span {
 public:
  Span(Recorder* recorder, std::string name, int parent = -1,
       std::int64_t job = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(std::move(name), parent, job)
                                : -1) {}
  ~Span() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  Recorder* recorder_;
  int id_;
};

// ---------------------------------------------------------------------
// Workloads (workloads.cpp) and layer probes (layers.cpp).
// ---------------------------------------------------------------------

/// Runs `options.workload`. `recorder` is non-null exactly in the traced
/// mode.
RunReport runWorkload(const Options& options, Recorder* recorder);

}  // namespace perfbench
