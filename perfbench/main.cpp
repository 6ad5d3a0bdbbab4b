// perfbench entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--perturb] [--out-dir DIR]
//             [--git-sha SHA] [--source-digest HEX]
//
// Prints one line per metric and, as the last line of standard output,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The full record (configuration, machine fingerprint, metrics, failure
// reasons) goes to DIR/results/, and the traced run's spans to
// DIR/traces/. Exit status: 0 when every checked operation passed, 1
// when any failed, 2 on a usage or setup error (no result line then).
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

namespace {

using perfbench::Options;
using perfbench::RunReport;

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

Options parseOptions(int argc, char** argv) {
  Options options;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument '" + key + "'");
    key = key.substr(2);
    const std::size_t eq = key.find('=');
    const bool flag = key == "small" || key == "perturb";
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (!flag) {
      if (i + 1 >= argc) throw std::invalid_argument("--" + key + " needs a value");
      value = argv[++i];
    }
    if (key == "workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (key == "seed") {
      options.seed = std::stoull(value);
    } else if (key == "seconds") {
      options.seconds = std::stod(value);
      if (!(options.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    } else if (key == "trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (key == "small") {
      options.small = true;
    } else if (key == "perturb") {
      options.perturb = true;
    } else if (key == "out-dir") {
      options.outDir = value;
    } else if (key == "git-sha") {
      options.gitSha = value;
    } else if (key == "source-digest") {
      options.sourceDigest = value;
    } else {
      throw std::invalid_argument("unknown option --" + key);
    }
  }
  if (!haveWorkload) throw std::invalid_argument("--workload is required");
  return options;
}

std::string jsonObject(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string out = "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + entries[i].first +
           "\": " + entries[i].second;
  }
  return out + "}";
}

std::string metricsJson(const RunReport& report) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (const perfbench::Metric& m : report.metrics) {
    entries.emplace_back(m.name, "{\"value\": " + number(m.value) +
                                     ", \"unit\": \"" + m.unit + "\"}");
  }
  return jsonObject(entries);
}

std::string jsonQuoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  Options options;
  RunReport report;
  perfbench::Recorder recorder;
  try {
    options = parseOptions(argc, argv);
    report = perfbench::runWorkload(options,
                                    options.trace ? &recorder : nullptr);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }

  for (perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.fail("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  report.attempted = std::max(report.attempted, report.failed);
  report.attempted = std::max<std::uint64_t>(report.attempted, 1);

  std::vector<std::pair<std::string, std::string>> config = {
      {"workload", jsonQuoted(options.workload)},
      {"seed", std::to_string(options.seed)},
      {"seconds", number(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"small", options.small ? "true" : "false"},
  };
  config.insert(config.end(), report.config.begin(), report.config.end());
  // Identity of the code measured: recorded, not part of the like-for-like
  // key (comparing two versions of the code is the point).
  const std::vector<std::pair<std::string, std::string>> code = {
      {"git_sha", jsonQuoted(options.gitSha)},
      {"source_digest", jsonQuoted(options.sourceDigest)},
  };

  for (const auto& [key, value] : config)
    std::cout << "config " << key << " = " << value << '\n';
  for (const perfbench::Metric& m : report.metrics)
    std::cout << "metric " << m.name << " = " << number(m.value) << ' '
              << m.unit << '\n';
  for (std::size_t i = 0; i < report.failures.size() && i < 20; ++i)
    std::cerr << "FAILED: " << report.failures[i] << '\n';

  const std::string tag = options.workload + "-seed" +
                          std::to_string(options.seed) + "-trace" +
                          (options.trace ? "1" : "0");
  try {
    std::filesystem::create_directories(options.outDir + "/results");
    std::ofstream record(options.outDir + "/results/" + tag + ".json");
    std::string failures = "[";
    for (std::size_t i = 0; i < report.failures.size(); ++i)
      failures += (i == 0 ? "" : ", ") + jsonQuoted(report.failures[i]);
    failures += "]";
    record << jsonObject({{"config", jsonObject(config)},
                          {"machine", jsonObject(perfbench::machineFingerprint())},
                          {"code", jsonObject(code)},
                          {"timed_calls", std::to_string(report.timedCalls)},
                          {"attempted", std::to_string(report.attempted)},
                          {"failed", std::to_string(report.failed)},
                          {"failures", failures},
                          {"metrics", metricsJson(report)}})
           << '\n';
    if (options.trace) {
      std::filesystem::create_directories(options.outDir + "/traces");
      recorder.write(options.outDir + "/traces/" + tag + ".json");
      std::cout << "trace: " << recorder.spanCount() << " spans -> "
                << options.outDir << "/traces/" << tag << ".json\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: cannot write records: " << e.what() << '\n';
    return 2;
  }

  const bool correct = report.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << metricsJson(report) << "}" << std::endl;
  return correct ? 0 : 1;
}
