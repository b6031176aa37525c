// The deterministic cell grid of a sharded sweep.
//
// Coordinator and workers never ship per-cell configs over the wire; they
// each rebuild the SAME grid from a SweepSpec (one line of text) plus the
// shared TraceStore, and a lease is just an index into that grid. Cell
// identity — and therefore the derived seed and the checkpoint-journal key
// — is purely logical, exactly the property ParallelRunner's threaded path
// relies on, which is what makes a W-worker sweep bit-identical to the
// --jobs J single-process sweep at any W and J.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/samplers.h"
#include "core/targets.h"
#include "core/trace_cache.h"
#include "exper/parallel.h"
#include "flow/sweep.h"
#include "trace/trace.h"

namespace netsample::shard {

/// Which per-cell payload the sweep runs: the packet-target scoring of
/// exper::run_cell, or the flow aggregation + inversion of
/// flow::run_flow_cell.
enum class Workload {
  kPacket,
  kFlow,
};

/// What to sweep. The grid is the cross product in canonical task order —
/// packet workload: target-major, then method, then granularity (the
/// figures' row order); flow workload: estimator-major, then method, then
/// granularity (targets is a single placeholder entry so the wire encoding
/// keeps its required fields).
struct SweepSpec {
  std::vector<core::Target> targets;
  std::vector<core::Method> methods;
  std::vector<std::uint64_t> granularities;
  int replications{5};
  std::uint64_t base_seed{1};

  Workload workload{Workload::kPacket};
  /// Flow workload only: the inversion estimators swept (outermost grid
  /// axis). Must be non-empty for kFlow.
  std::vector<flow::Estimator> estimators;
  /// Flow workload only: table/inversion parameters shared by every cell.
  flow::FlowParams flow;

  [[nodiscard]] std::size_t cell_count() const {
    const std::size_t inner = methods.size() * granularities.size();
    return workload == Workload::kFlow ? estimators.size() * inner
                                       : targets.size() * inner;
  }
};

/// All 5 paper methods x both targets x the exponential ladder 2..32768.
[[nodiscard]] SweepSpec default_sweep_spec();

/// Short stable tokens used in the spec encoding and the CLI (--method):
/// systematic, stratified, random, timer-systematic, timer-stratified and
/// size, iat. parse_* throw std::invalid_argument on unknown tokens.
[[nodiscard]] const char* method_token(core::Method m);
[[nodiscard]] core::Method parse_method_token(const std::string& token);
[[nodiscard]] const char* target_token(core::Target t);
[[nodiscard]] core::Target parse_target_token(const std::string& token);

/// One-line, space-free wire encoding of a spec (the SPEC message payload),
/// and its strict parser. decode returns false on any mismatch.
[[nodiscard]] std::string encode_sweep_spec(const SweepSpec& spec);
[[nodiscard]] bool decode_sweep_spec(const std::string& text, SweepSpec* spec);

/// Cells in canonical task order over one interval (the full stored trace).
/// `cache` and `mean_interarrival_usec` are attached to every config; the
/// per-cell seed is NOT derived here (ParallelRunner::run derives it from
/// the grid coordinates itself; the sharded path uses derived_cell_config).
[[nodiscard]] std::vector<exper::GridTask> build_grid(
    const SweepSpec& spec, trace::TraceView interval,
    double mean_interarrival_usec, const core::BinnedTraceCache* cache);

/// The config run_cell actually executes for a grid task: base_seed replaced
/// by task_seed(spec seed, method, granularity, interval_index) — the exact
/// substitution ParallelRunner::run performs. Workers execute this; the
/// coordinator derives journal keys from it.
[[nodiscard]] exper::CellConfig derived_cell_config(const exper::GridTask& task,
                                                    std::uint64_t base_seed);

/// Checkpoint-journal key of a grid task — cell_journal_key over the derived
/// config plus the task's journal_suffix, byte-identical to what
/// ParallelRunner writes for the same grid. Flow cells differing only in
/// estimator (the estimator lives outside CellConfig) are disambiguated by
/// the ";e=<estimator>" suffix build_grid stamps on them, which is what
/// makes `netsample flows --sweep --resume` sound — see docs/FLOWS.md §4.
[[nodiscard]] std::string grid_journal_key(const exper::GridTask& task,
                                           std::uint64_t base_seed);

/// The per-cell payload of grid task `index` under `spec`: exper::run_cell
/// for a packet sweep, flow::run_flow_cell with the task's estimator for a
/// flow sweep. The one dispatch both executors run — ParallelRunner through
/// grid_run_options, workers in their LEASE reply — which is what makes
/// --workers W bit-identical to --jobs J.
[[nodiscard]] exper::CellResult run_grid_cell(const SweepSpec& spec,
                                              const exper::CellConfig& config,
                                              std::size_t index);

/// `options` with RunOptions::cell_runner set to run_grid_cell over a copy
/// of `spec`: how ParallelRunner runs `spec`'s grid in-process.
[[nodiscard]] exper::RunOptions grid_run_options(const SweepSpec& spec,
                                                 exper::RunOptions options);

/// Estimator of grid task `index` of a kFlow spec (the estimator is the
/// outermost axis of the canonical order, so it is index / (methods x
/// granularities)). Throws std::invalid_argument for a kPacket spec or an
/// out-of-range index.
[[nodiscard]] flow::Estimator grid_estimator(const SweepSpec& spec,
                                             std::size_t index);

}  // namespace netsample::shard
