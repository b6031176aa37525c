#include "shard/grid.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "exper/journal.h"
#include "exper/runner.h"

namespace netsample::shard {

SweepSpec default_sweep_spec() {
  SweepSpec spec;
  spec.targets = {core::Target::kPacketSize, core::Target::kInterarrivalTime};
  spec.methods = {core::Method::kSystematicCount, core::Method::kStratifiedCount,
                  core::Method::kSimpleRandom, core::Method::kSystematicTimer,
                  core::Method::kStratifiedTimer};
  spec.granularities = exper::granularity_ladder();
  return spec;
}

const char* method_token(core::Method m) {
  switch (m) {
    case core::Method::kSystematicCount: return "systematic";
    case core::Method::kStratifiedCount: return "stratified";
    case core::Method::kSimpleRandom: return "random";
    case core::Method::kSystematicTimer: return "timer-systematic";
    case core::Method::kStratifiedTimer: return "timer-stratified";
  }
  throw std::invalid_argument("unknown method");
}

core::Method parse_method_token(const std::string& token) {
  if (token == "systematic") return core::Method::kSystematicCount;
  if (token == "stratified") return core::Method::kStratifiedCount;
  if (token == "random") return core::Method::kSimpleRandom;
  if (token == "timer-systematic") return core::Method::kSystematicTimer;
  if (token == "timer-stratified") return core::Method::kStratifiedTimer;
  throw std::invalid_argument(
      "unknown method '" + token +
      "' (expected systematic|stratified|random|timer-systematic|"
      "timer-stratified)");
}

const char* target_token(core::Target t) {
  return t == core::Target::kPacketSize ? "size" : "iat";
}

core::Target parse_target_token(const std::string& token) {
  if (token == "size") return core::Target::kPacketSize;
  if (token == "iat") return core::Target::kInterarrivalTime;
  throw std::invalid_argument("unknown target '" + token +
                              "' (expected size|iat)");
}

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

}  // namespace

std::string encode_sweep_spec(const SweepSpec& spec) {
  std::string out = "v=1;seed=";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, spec.base_seed);
  out += buf;
  std::snprintf(buf, sizeof buf, ";reps=%d;targets=", spec.replications);
  out += buf;
  for (std::size_t i = 0; i < spec.targets.size(); ++i) {
    if (i != 0) out += ',';
    out += target_token(spec.targets[i]);
  }
  out += ";methods=";
  for (std::size_t i = 0; i < spec.methods.size(); ++i) {
    if (i != 0) out += ',';
    out += method_token(spec.methods[i]);
  }
  out += ";k=";
  for (std::size_t i = 0; i < spec.granularities.size(); ++i) {
    if (i != 0) out += ',';
    std::snprintf(buf, sizeof buf, "%" PRIu64, spec.granularities[i]);
    out += buf;
  }
  if (spec.workload == Workload::kFlow) {
    // Flow fields only appear for flow specs, so packet-sweep encodings are
    // byte-identical to what older coordinators/workers produced.
    out += ";workload=flow;est=";
    for (std::size_t i = 0; i < spec.estimators.size(); ++i) {
      if (i != 0) out += ',';
      out += flow::estimator_token(spec.estimators[i]);
    }
    std::snprintf(buf, sizeof buf, ";ftimeout=%" PRIu64,
                  spec.flow.idle_timeout_usec);
    out += buf;
    std::snprintf(buf, sizeof buf, ";fcap=%" PRIu64, spec.flow.capacity);
    out += buf;
    std::snprintf(buf, sizeof buf, ";emiters=%d", spec.flow.em_iters);
    out += buf;
  }
  return out;
}

bool decode_sweep_spec(const std::string& text, SweepSpec* spec) {
  SweepSpec parsed;
  bool saw_v = false, saw_seed = false, saw_reps = false;
  bool saw_targets = false, saw_methods = false, saw_k = false;
  bool saw_flow_field = false;
  try {
    for (const std::string& field : split(text, ';')) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) return false;
      const std::string name = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      std::uint64_t u = 0;
      if (name == "v") {
        if (value != "1") return false;
        saw_v = true;
      } else if (name == "seed") {
        if (!parse_u64(value, &u)) return false;
        parsed.base_seed = u;
        saw_seed = true;
      } else if (name == "reps") {
        if (!parse_u64(value, &u) || u == 0 || u > 1000000) return false;
        parsed.replications = static_cast<int>(u);
        saw_reps = true;
      } else if (name == "targets") {
        for (const std::string& t : split(value, ',')) {
          parsed.targets.push_back(parse_target_token(t));
        }
        saw_targets = true;
      } else if (name == "methods") {
        for (const std::string& m : split(value, ',')) {
          parsed.methods.push_back(parse_method_token(m));
        }
        saw_methods = true;
      } else if (name == "k") {
        for (const std::string& g : split(value, ',')) {
          if (!parse_u64(g, &u) || u == 0) return false;
          parsed.granularities.push_back(u);
        }
        saw_k = true;
      } else if (name == "workload") {
        if (value != "flow") return false;  // kPacket never emits the field
        parsed.workload = Workload::kFlow;
      } else if (name == "est") {
        for (const std::string& e : split(value, ',')) {
          parsed.estimators.push_back(flow::parse_estimator_token(e));
        }
      } else if (name == "ftimeout") {
        if (!parse_u64(value, &u) || u == 0) return false;
        parsed.flow.idle_timeout_usec = u;
        saw_flow_field = true;
      } else if (name == "fcap") {
        if (!parse_u64(value, &u)) return false;
        parsed.flow.capacity = u;
        saw_flow_field = true;
      } else if (name == "emiters") {
        if (!parse_u64(value, &u) || u == 0 || u > 1000000) return false;
        parsed.flow.em_iters = static_cast<int>(u);
        saw_flow_field = true;
      } else {
        return false;
      }
    }
  } catch (const std::invalid_argument&) {
    return false;
  }
  if (!(saw_v && saw_seed && saw_reps && saw_targets && saw_methods && saw_k)) {
    return false;
  }
  if (parsed.workload == Workload::kFlow && parsed.estimators.empty()) {
    return false;
  }
  if (parsed.workload == Workload::kPacket &&
      (!parsed.estimators.empty() || saw_flow_field)) {
    return false;  // flow-only fields without workload=flow are malformed
  }
  if (parsed.cell_count() == 0) return false;
  *spec = std::move(parsed);
  return true;
}

std::vector<exper::GridTask> build_grid(const SweepSpec& spec,
                                        trace::TraceView interval,
                                        double mean_interarrival_usec,
                                        const core::BinnedTraceCache* cache) {
  std::vector<exper::GridTask> tasks;
  tasks.reserve(spec.cell_count());
  const auto push_cell = [&](core::Target target, core::Method method,
                             std::uint64_t k, std::string journal_suffix) {
    exper::CellConfig cfg;
    cfg.method = method;
    cfg.target = target;
    cfg.granularity = k;
    cfg.interval = interval;
    cfg.mean_interarrival_usec = mean_interarrival_usec;
    cfg.replications = spec.replications;
    cfg.base_seed = spec.base_seed;
    cfg.cache = cache;
    tasks.push_back(exper::GridTask{cfg, /*interval_index=*/0,
                                    std::move(journal_suffix)});
  };
  if (spec.workload == Workload::kFlow) {
    // Estimator-major: both estimator blocks hold IDENTICAL configs (the
    // estimator is applied by the cell runner via grid_estimator), so each
    // (method, k) pair's replications draw the same samples under both
    // estimators — a paired comparison by construction. The estimator must
    // therefore enter the journal key some other way: as the task's
    // journal_suffix (docs/FLOWS.md §4), which is what lets flow sweeps
    // checkpoint/--resume without the two blocks aliasing each other.
    for (std::size_t e = 0; e < spec.estimators.size(); ++e) {
      const std::string suffix =
          std::string(";e=") + flow::estimator_token(spec.estimators[e]);
      for (const core::Method method : spec.methods) {
        for (const std::uint64_t k : spec.granularities) {
          push_cell(core::Target::kPacketSize, method, k, suffix);
        }
      }
    }
    return tasks;
  }
  for (const core::Target target : spec.targets) {
    for (const core::Method method : spec.methods) {
      for (const std::uint64_t k : spec.granularities) {
        push_cell(target, method, k, std::string());
      }
    }
  }
  return tasks;
}

exper::CellConfig derived_cell_config(const exper::GridTask& task,
                                      std::uint64_t base_seed) {
  exper::CellConfig cfg = task.config;
  cfg.base_seed = exper::task_seed(base_seed, cfg.method, cfg.granularity,
                                   task.interval_index);
  cfg.cancel = nullptr;
  return cfg;
}

std::string grid_journal_key(const exper::GridTask& task,
                             std::uint64_t base_seed) {
  return exper::cell_journal_key(derived_cell_config(task, base_seed),
                                 task.interval_index) +
         task.journal_suffix;
}

exper::CellResult run_grid_cell(const SweepSpec& spec,
                                const exper::CellConfig& config,
                                std::size_t index) {
  if (spec.workload == Workload::kFlow) {
    return flow::run_flow_cell(config, spec.flow, grid_estimator(spec, index));
  }
  return exper::run_cell(config);
}

exper::RunOptions grid_run_options(const SweepSpec& spec,
                                   exper::RunOptions options) {
  options.cell_runner = [spec](const exper::CellConfig& config,
                               std::size_t index) {
    return run_grid_cell(spec, config, index);
  };
  return options;
}

flow::Estimator grid_estimator(const SweepSpec& spec, std::size_t index) {
  if (spec.workload != Workload::kFlow) {
    throw std::invalid_argument("grid_estimator: not a flow sweep");
  }
  const std::size_t inner = spec.methods.size() * spec.granularities.size();
  const std::size_t e = inner == 0 ? spec.estimators.size() : index / inner;
  if (e >= spec.estimators.size()) {
    throw std::invalid_argument("grid_estimator: task index out of range");
  }
  return spec.estimators[e];
}

}  // namespace netsample::shard
