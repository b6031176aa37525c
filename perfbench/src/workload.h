// What every workload shares: its options, and the report it fills.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;  // the first few reasons
  /// The JSON metrics: end-to-end ones in an untraced run, per-layer
  /// roles in a traced run.
  std::vector<Metric> metrics;
  /// The module table (traced run) or op statistics: printed for people,
  /// never gated.
  std::vector<Metric> detail;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  void add(std::vector<Metric>& to, std::string name, double value,
           std::string unit) {
    to.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Minimum timed ops per run, however short --seconds is.
inline constexpr int kMinOps = 3;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// Whether op `i` of a traced run records spans: half of them, in the order
/// traced, plain, plain, traced, ... With a plain alternation the plain ops
/// ran 3-5% slower than the traced ones, tracing or not, because every
/// plain op followed a traced one; this order gives each kind both
/// neighbours equally.
inline bool traced_op(int i) { return i % 4 == 0 || i % 4 == 3; }

Report run_batch_workload(const Options& opts);
Report run_serve_workload(const Options& opts);

/// Environment variable naming the file a `worker` appends its peak RSS
/// (kB) to when it exits.
inline constexpr const char* kWorkerRssLogEnv = "PERFBENCH_WORKER_RSS_LOG";

/// Child-process modes of the benchmark binary.
int worker_main(int argc, char** argv);
int daemon_main();

bool is_batch_workload(const std::string& name);

}  // namespace perfbench
