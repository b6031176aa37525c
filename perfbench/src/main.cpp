// perfbench_e2e -- the end-to-end and per-layer benchmark (see README.md).
//
//   perfbench_e2e run --workload W --seed N --seconds S --trace 0|1 --work DIR
//   perfbench_e2e worker --store FILE ...   (spawned by the sharded sweep)
//   perfbench_e2e daemon                    (spawned by serve-replay)
//   perfbench_e2e capture PRESET MINUTES PACKETS SPAN SEED DIR  (inputs)
//
// `run` prints a human-readable report and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. It exits 0 when
// every op's output matched its reference, 1 when any did not, and 2 when
// the run could not be carried out.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "fixtures.h"
#include "netsample/netsample.h"
#include "workload.h"

namespace perfbench {
namespace {

int usage() {
  std::cerr << "usage: perfbench_e2e run --workload W --seed N --seconds S "
               "--trace 0|1 --work DIR\n";
  return 2;
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_report(const Options& opts, const Report& rep) {
  const Machine m = machine_info();
  std::printf("perfbench %s seed %llu, %s run of %g s\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced" : "untraced", opts.seconds);
  std::printf("machine: nproc %u; cpu %s; compiler %s; build %s; simd %s\n", m.nproc,
              m.cpu_model.c_str(), m.compiler.c_str(), m.build_type.c_str(),
              m.simd.c_str());
  std::printf("%s metrics:\n", opts.trace ? "per-layer" : "end-to-end");
  for (const auto& metric : rep.metrics) print_metric(metric);
  std::printf("detail:\n");
  for (const auto& metric : rep.detail) print_metric(metric);
  std::printf("ops: %llu attempted, %llu failed (failed share %.6f)\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              rep.attempted ? static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted)
                            : 0.0);
  for (const auto& why : rep.failures) std::printf("FAILED: %s\n", why.c_str());

  std::string json = "{\"correct\": ";
  json += rep.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", rep.metrics[i].value);
    json += (i ? ", \"" : "\"") + json_escape(rep.metrics[i].name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            json_escape(rep.metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run_main(int argc, char** argv) {
  Options opts;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--work") {
      opts.work_dir = value;
    } else {
      return usage();
    }
  }
  if (opts.work_dir.empty() || !(opts.seconds > 0)) return usage();
  Report rep;
  if (is_batch_workload(opts.workload)) {
    rep = run_batch_workload(opts);
  } else if (opts.workload == "serve-replay") {
    rep = run_serve_workload(opts);
  } else {
    std::cerr << "unknown workload '" << opts.workload << "'\n";
    return 2;
  }
  if (rep.attempted == 0) rep.fail("no op was attempted");
  print_report(opts, rep);
  return rep.failed == 0 ? 0 : 1;
}

}  // namespace

int worker_main(int argc, char** argv) {
  netsample::shard::WorkerOptions wopts;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--store") == 0) wopts.store_path = argv[i + 1];
    if (std::strcmp(argv[i], "--store-backend") == 0) wopts.backend = argv[i + 1];
  }
  const netsample::Status st = netsample::shard::run_worker(wopts, stdin, stdout);
  if (const char* log = std::getenv(kWorkerRssLogEnv)) {
    std::ofstream(log, std::ios::app) << peak_rss_kb(::getpid()) << "\n";
  }
  if (!st.is_ok()) {
    std::cerr << "worker: " << st.to_string() << "\n";
    return 70;
  }
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) return perfbench::usage();
  const std::string mode = argv[1];
  try {
    if (mode == "run") return perfbench::run_main(argc, argv);
    if (mode == "worker") return perfbench::worker_main(argc, argv);
    if (mode == "daemon") return perfbench::daemon_main();
    if (mode == "capture") return perfbench::capture_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e " << mode << ": " << e.what() << "\n";
    return 2;
  }
  return perfbench::usage();
}
