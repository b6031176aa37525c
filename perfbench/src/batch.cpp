// The batch workloads: score, in-process sweep and one-worker sweep, each
// driven through the same public calls the CLI makes, from the capture path
// to the emitted rows. flows --sweep is timed as a probe of the in-process
// sweep's traced run.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/select_indices.h"
#include "fixtures.h"
#include "netsample/netsample.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
using namespace netsample;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kProgramSeed = 23;  // the CLI's --seed default
constexpr int kReps = 5;                    // the CLI's --reps default

// The one-hour SDSC capture, cut to a fixed packet count (~56 minutes).
const CaptureSpec kHourCapture{Preset::kSdsc, 72, 1500000};
// The flow-mix capture, cut likewise, with every flow cut to its first
// 1,000 packets (~10 minutes; CaptureSpec::flow_packets says why).
const CaptureSpec kLadderCapture{Preset::kFlowMix, 30, 240000, 0, 1000};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// What one op produced, for checking and for the module table.
struct OpOutput {
  RowHash rows;                  // the emitted table
  std::string error;             // non-empty: the op failed
  double cell_busy_ms{0};        // Σ AttemptRecord wall time
  std::uint64_t cells_failed{0};
  shard::ShardReport shard{};    // one-worker sweep only
};

/// Read and decode a capture as the CLI does, through pcap::read_trace.
/// A traced op calls its two halves apart instead, so the framer and the
/// decoder are timed separately; as in read_trace, the raw records are
/// released right after decoding, inside the decode span.
trace::Trace load(const std::string& path, SpanRecorder& rec) {
  pcap::ParseStats parse_stats;
  const auto check = [&](const Status& st) {
    if (!st.is_ok()) throw StatusError(st);
    if (!parse_stats.clean()) throw std::runtime_error(path + ": damaged capture");
  };
  if (!rec.enabled()) {
    auto t = pcap::read_trace(path, pcap::ParseOptions{}, &parse_stats);
    check(t.status());
    return std::move(t).value();
  }
  auto file = [&] {
    ScopedSpan s(rec, "pcap.read_file");
    return pcap::read_file(path, pcap::ParseOptions{}, &parse_stats);
  }();
  check(file.status());
  ScopedSpan s(rec, "pcap.decode");
  trace::Trace t = pcap::decode(*file);
  { const pcap::CaptureFile released = std::move(*file); }
  return t;
}

/// Destroy the op's Experiment (trace and bin cache) inside a span: the
/// op's caller pays for it, as the CLI does when a command returns.
void release(std::unique_ptr<exper::Experiment> ex, SpanRecorder& rec) {
  ScopedSpan s(rec, "exper.release");
  ex.reset();
}

/// Experiment + its bin cache, each timed.
std::unique_ptr<exper::Experiment> experiment(trace::Trace t, SpanRecorder& rec) {
  std::unique_ptr<exper::Experiment> ex;
  {
    ScopedSpan s(rec, "exper.experiment");
    ex = std::make_unique<exper::Experiment>(std::move(t));
  }
  ScopedSpan s(rec, "core.cache_build");
  (void)ex->binned_cache();
  return ex;
}

/// Wrap the per-cell payload in a span when tracing. The parent is passed
/// explicitly because at --jobs > 1 cells run on pool threads.
exper::RunOptions traced_cells(exper::RunOptions ropts, SpanRecorder& rec,
                               const char* name, std::uint32_t parent,
                               std::uint32_t op) {
  if (!rec.enabled()) return ropts;
  auto inner = ropts.cell_runner;
  ropts.cell_runner = [inner, &rec, name, parent, op](
                          const exper::CellConfig& cfg, std::size_t index) {
    ScopedSpan s(rec, name, parent, op);
    return inner ? inner(cfg, index) : exper::run_cell(cfg);
  };
  return ropts;
}

/// Run the grid on a ParallelRunner inside an "exper.run" span.
exper::RunReport run_grid(const std::vector<exper::GridTask>& tasks,
                          std::uint64_t base_seed, exper::RunOptions ropts,
                          int jobs, SpanRecorder& rec, const char* cell_span) {
  ScopedSpan s(rec, "exper.run");
  exper::ParallelRunner runner(jobs);
  return runner.run(tasks, base_seed,
                    traced_cells(std::move(ropts), rec, cell_span, s.id(), s.op()));
}

/// as_result + emit into memory, in a "netsample.emit" span; fills the
/// output's rows, error and cell accounting.
void render(exper::RunReport rr, OpOutput* out, SpanRecorder& rec,
            const shard::SweepSpec* flow_spec = nullptr) {
  for (const auto& cell : rr.cells) {
    for (const auto& a : cell.attempt_log) out->cell_busy_ms += a.wall_seconds * 1e3;
  }
  out->cells_failed = rr.failed_count();
  ScopedSpan s(rec, "netsample.emit");
  const auto result = flow_spec ? as_flow_result(std::move(rr), *flow_spec)
                                : as_result(std::move(rr));
  std::ostringstream os;
  emit(result.rows, RowFormat::kAligned, os);
  out->rows = fingerprint(os.str());
  if (!result.ok()) out->error = result.status.to_string();
}

// ---------------------------------------------------------------- workloads

class Batch {
 public:
  virtual ~Batch() = default;
  [[nodiscard]] virtual CaptureSpec capture() const = 0;
  /// Reference rows, by a path independent of the timed one (untimed).
  virtual RowHash reference(const Capture& c) = 0;
  /// Program set-up done once per set-up before the warm-up op.
  virtual void setup() {}
  /// One op, from the capture path to the rows.
  virtual OpOutput op(const Capture& c, SpanRecorder& rec) = 0;
  /// Layer probes of the traced run (module table entries).
  virtual void probes(const Capture&, Report&) {}
  /// Extra module-table entries from the traced ops' outputs.
  virtual void op_details(const std::vector<OpOutput>&, Report&) {}
  /// Start counting peak RSS afresh (called once set-up is done).
  virtual void restart_rss() {}
  /// Peak RSS of the processes under test since restart_rss(), in kB.
  [[nodiscard]] virtual std::uint64_t peak_rss_kb() const {
    return perfbench::peak_rss_kb(::getpid());
  }
  virtual void teardown() {}
};

// ---- score: the whole-capture scorer (k=50, size + iat cells).

exper::CellConfig score_config(const exper::Experiment& ex, bool with_cache) {
  exper::CellConfig cfg;
  cfg.method = core::Method::kSystematicCount;
  cfg.granularity = 50;
  cfg.interval = ex.full();
  cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
  cfg.replications = kReps;
  cfg.base_seed = kProgramSeed;
  cfg.cache = with_cache ? &ex.binned_cache() : nullptr;
  return cfg;
}

std::vector<exper::GridTask> score_tasks(const exper::CellConfig& base) {
  std::vector<exper::GridTask> tasks;
  for (auto target : {core::Target::kPacketSize, core::Target::kInterarrivalTime}) {
    exper::CellConfig cfg = base;
    cfg.target = target;
    tasks.push_back({cfg, 0});
  }
  return tasks;
}

/// The CLI's score defaults: --on-error abort, --retries 2.
exper::RunOptions score_run_options() {
  exper::RunOptions ropts;
  ropts.on_error = exper::FailPolicy::kAbort;
  ropts.max_attempts = 3;
  return ropts;
}

/// Σ select_indices over every replication of every task: the selection
/// kernels alone, on the op's own cache.
void select_probe(const std::vector<exper::GridTask>& tasks,
                  const core::BinnedTraceCache& cache, Report& rep) {
  std::uint64_t indices = 0;
  const std::int64_t t0 = now_ns();
  for (const auto& task : tasks) {
    const exper::CellConfig cfg = shard::derived_cell_config(task, kProgramSeed);
    for (int r = 0; r < cfg.replications; ++r) {
      indices += core::select_indices(exper::replication_spec(cfg, r), cache, 0,
                                      cache.base().size())
                     .size();
    }
  }
  rep.add(rep.detail, "core.select_ms", ms(now_ns() - t0), "ms");
  rep.add(rep.detail, "core.indices", static_cast<double>(indices), "count");
}

/// The grid at --jobs 2, three times: how much of two threads' time the
/// cells fill (1 - Σ cell wall / (2 × run wall)).
void pool_probe(const std::vector<exper::GridTask>& tasks,
                const exper::RunOptions& ropts, Report& rep) {
  std::vector<double> idle;
  for (int i = 0; i < 3; ++i) {
    SpanRecorder rec;
    rec.set_enabled(true);
    std::int64_t wall = 0;
    {
      ScopedSpan root(rec, "bench.pool");
      const std::int64_t t0 = now_ns();
      (void)run_grid(tasks, kProgramSeed, ropts, 2, rec, "exper.cell");
      wall = now_ns() - t0;
    }
    std::int64_t busy = 0;
    for (const Span& s : rec.spans()) {
      if (s.name == "exper.cell") busy += s.end_ns - s.start_ns;
    }
    idle.push_back(1.0 - static_cast<double>(busy) / (2.0 * static_cast<double>(wall)));
  }
  rep.add(rep.detail, "util.pool_idle_share", median(idle), "ratio");
}

/// The other framer on the same capture: stream::PcapSource (the one
/// `watch` and `loadgen` read through) drained alone, three times.
void source_probe(const Capture& c, Report& rep) {
  std::vector<double> drain;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = now_ns();
    stream::PcapSource source(c.path);
    std::vector<trace::PacketRecord> chunk;
    std::uint64_t packets = 0;
    while (true) {
      chunk.clear();
      if (!source.next_chunk(4096, chunk)) break;
      packets += chunk.size();
    }
    drain.push_back(ms(now_ns() - t0));
    if (!source.status().is_ok() || packets != c.packets) {
      rep.fail("PcapSource drained " + std::to_string(packets) + " of " +
               std::to_string(c.packets) + " packets");
    }
  }
  rep.add(rep.detail, "stream.source_ms", median(drain), "ms");
}

class Score final : public Batch {
 public:
  CaptureSpec capture() const override { return kHourCapture; }

  RowHash reference(const Capture& c) override {
    // The streaming per-packet scan (no bin cache): the oracle the fast
    // path is pinned to.
    SpanRecorder off;
    exper::Experiment ex(load(c.path, off));
    const auto tasks = score_tasks(score_config(ex, false));
    OpOutput out;
    render(exper::ParallelRunner(1).run(tasks, kProgramSeed, score_run_options()),
           &out, off);
    return out.rows;
  }

  OpOutput op(const Capture& c, SpanRecorder& rec) override {
    auto ex = experiment(load(c.path, rec), rec);
    const auto tasks = score_tasks(score_config(*ex, true));
    OpOutput out;
    render(run_grid(tasks, kProgramSeed, score_run_options(), 1, rec, "exper.cell"),
           &out, rec);
    release(std::move(ex), rec);
    return out;
  }

  void probes(const Capture& c, Report& rep) override {
    SpanRecorder off;
    exper::Experiment ex(load(c.path, off));
    const auto tasks = score_tasks(score_config(ex, true));
    select_probe(tasks, ex.binned_cache(), rep);
    pool_probe(tasks, score_run_options(), rep);
    source_probe(c, rep);
  }
};

void flow_probe(const Capture& c, Report& rep);

// ---- sweep: the full method × k × target ladder, in-process.

shard::SweepSpec ladder_spec() {
  shard::SweepSpec spec = shard::default_sweep_spec();
  spec.base_seed = kProgramSeed;
  spec.replications = kReps;
  return spec;
}

exper::RunOptions sweep_run_options() {
  exper::RunOptions ropts;
  ropts.on_error = exper::FailPolicy::kSkip;
  return ropts;
}

std::vector<exper::GridTask> ladder_grid(const shard::SweepSpec& spec,
                                         const exper::Experiment& ex,
                                         bool with_cache, SpanRecorder& rec) {
  ScopedSpan s(rec, "shard.build_grid");
  return shard::build_grid(spec, ex.full(), ex.mean_interarrival_usec(),
                           with_cache ? &ex.binned_cache() : nullptr);
}

/// Ladder rows by the streaming per-packet scan (no bin cache).
RowHash ladder_reference(const Capture& c) {
  SpanRecorder off;
  exper::Experiment ex(load(c.path, off));
  const auto spec = ladder_spec();
  const auto grid = ladder_grid(spec, ex, false, off);
  OpOutput out;
  render(exper::ParallelRunner(1).run(grid, spec.base_seed, sweep_run_options()),
         &out, off);
  return out.rows;
}

class Sweep final : public Batch {
 public:
  CaptureSpec capture() const override { return kLadderCapture; }
  RowHash reference(const Capture& c) override { return ladder_reference(c); }

  OpOutput op(const Capture& c, SpanRecorder& rec) override {
    auto ex = experiment(load(c.path, rec), rec);
    const auto spec = ladder_spec();
    const auto grid = ladder_grid(spec, *ex, true, rec);
    OpOutput out;
    render(run_grid(grid, spec.base_seed, sweep_run_options(), 1, rec, "exper.cell"),
           &out, rec);
    release(std::move(ex), rec);
    return out;
  }

  void probes(const Capture& c, Report& rep) override {
    SpanRecorder off;
    exper::Experiment ex(load(c.path, off));
    const auto grid = ladder_grid(ladder_spec(), ex, true, off);
    select_probe(grid, ex.binned_cache(), rep);
    pool_probe(grid, sweep_run_options(), rep);
    flow_probe(c, rep);
  }
};

// ---- one-worker sweep: the same grid through the shard coordinator.

/// run_sharded_sweep over one pipe worker (this binary's `worker` mode),
/// re-dressed as a RunReport exactly as the CLI does.
exper::RunReport sharded_report(const shard::SweepSpec& spec,
                                const std::vector<exper::GridTask>& grid,
                                const std::string& store, SpanRecorder& rec,
                                shard::ShardReport* stats) {
  shard::CoordinatorOptions copts;
  copts.workers = 1;
  copts.store_path = store;
  copts.worker_command = {self_exe(), "worker"};
  auto sharded = [&] {
    ScopedSpan s(rec, "shard.sweep");
    return shard::run_sharded_sweep(spec, copts);
  }();
  if (!sharded.has_value()) throw StatusError(sharded.status());
  exper::RunReport rr;
  rr.cells.resize(sharded->cells.size());
  for (std::size_t i = 0; i < sharded->cells.size(); ++i) {
    auto& cell = rr.cells[i];
    auto& from = sharded->cells[i];
    cell.status = from.status;
    cell.from_journal = from.from_journal;
    cell.attempts = from.from_journal ? 0 : 1;
    cell.result.config = shard::derived_cell_config(grid[i], spec.base_seed);
    cell.result.replications = std::move(from.replications);
  }
  *stats = *sharded;
  stats->cells.clear();
  return rr;
}

/// Write the store unless a valid one for this population exists (the
/// CLI's reuse rule). Returns whether it wrote.
bool ensure_store(const std::string& path, const exper::Experiment& ex,
                  SpanRecorder& rec) {
  {
    ScopedSpan s(rec, "shard.store_open");
    auto existing = shard::TraceStore::open(path, shard::store_backend("mmap"));
    if (existing.has_value() && existing->packet_count() == ex.population_size()) {
      return false;
    }
  }
  ScopedSpan s(rec, "shard.store_write");
  const double mean_size = trace::summarize_population(ex.full()).packet_size.mean;
  const Status st = shard::write_trace_store(path, ex.binned_cache(),
                                             ex.mean_interarrival_usec(), mean_size);
  if (!st.is_ok()) throw StatusError(st);
  return true;
}

class Workers final : public Batch {
 public:
  Workers(std::string store, std::string rss_log)
      : store_(std::move(store)), rss_log_(std::move(rss_log)) {
    // Workers are exec'd by the coordinator; they find the log through
    // their inherited environment and append their peak RSS on exit.
    ::setenv(kWorkerRssLogEnv, rss_log_.c_str(), 1);
  }
  CaptureSpec capture() const override { return kLadderCapture; }
  RowHash reference(const Capture& c) override { return ladder_reference(c); }

  void setup() override {
    std::error_code ec;
    fs::remove(store_, ec);  // each set-up writes the store afresh
  }

  OpOutput op(const Capture& c, SpanRecorder& rec) override {
    auto ex = experiment(load(c.path, rec), rec);
    const auto spec = ladder_spec();
    const auto grid = ladder_grid(spec, *ex, true, rec);
    (void)ensure_store(store_, *ex, rec);
    OpOutput out;
    render(sharded_report(spec, grid, store_, rec, &out.shard), &out, rec);
    release(std::move(ex), rec);
    const auto& s = out.shard;
    if (out.error.empty() && (s.reassignments != 0 || s.workers_died != 0 ||
                              s.worker_cache_builds != 0)) {
      out.error = "worker fleet misbehaved: " + std::to_string(s.reassignments) +
                  " reassigned, " + std::to_string(s.workers_died) + " died, " +
                  std::to_string(s.worker_cache_builds) + " cache builds";
    }
    return out;
  }

  void probes(const Capture& c, Report& rep) override {
    // The same grid in-process: shard overhead is the sharded run's time
    // above it. Store write timed on its own.
    std::vector<double> inproc;
    std::vector<double> sharded;
    std::vector<double> writes;
    for (int i = 0; i < 3; ++i) {
      SpanRecorder rec;
      rec.set_enabled(true);
      {
        ScopedSpan root(rec, "bench.shard_probe");
        exper::Experiment ex(load(c.path, rec));
        const auto spec = ladder_spec();
        const auto grid = ladder_grid(spec, ex, true, rec);
        std::error_code ec;
        fs::remove(store_, ec);
        (void)ensure_store(store_, ex, rec);
        (void)run_grid(grid, spec.base_seed, sweep_run_options(), 1, rec, "exper.cell");
        shard::ShardReport stats;
        (void)sharded_report(spec, grid, store_, rec, &stats);
      }
      for (const Span& s : rec.spans()) {
        const double d = ms(s.end_ns - s.start_ns);
        if (s.name == "exper.run") inproc.push_back(d);
        if (s.name == "shard.sweep") sharded.push_back(d);
        if (s.name == "shard.store_write") writes.push_back(d);
      }
    }
    rep.add(rep.detail, "shard.store_write_ms", median(writes), "ms");
    rep.add(rep.detail, "shard.inprocess_run_ms", median(inproc), "ms");
    rep.add(rep.detail, "shard.overhead_ms", median(sharded) - median(inproc), "ms");
  }

  void op_details(const std::vector<OpOutput>& outs, Report& rep) override {
    if (outs.empty()) return;
    const auto& s = outs.back().shard;
    rep.add(rep.detail, "shard.leases", static_cast<double>(s.leases_granted), "count");
    rep.add(rep.detail, "shard.workers_spawned", static_cast<double>(s.workers_spawned), "count");
    rep.add(rep.detail, "shard.reassignments", static_cast<double>(s.reassignments), "count");
    rep.add(rep.detail, "shard.worker_cache_builds",
            static_cast<double>(s.worker_cache_builds), "count");
  }

  void restart_rss() override {
    std::error_code ec;
    fs::remove(rss_log_, ec);
  }

  std::uint64_t peak_rss_kb() const override {
    // The coordinator and its worker are resident together.
    std::uint64_t worker = 0;
    std::ifstream in(rss_log_);
    for (std::uint64_t kb = 0; in >> kb;) worker = std::max(worker, kb);
    return perfbench::peak_rss_kb(::getpid()) + worker;
  }

  void teardown() override {
    std::error_code ec;
    fs::remove(store_, ec);
    fs::remove(rss_log_, ec);
    ::unsetenv(kWorkerRssLogEnv);
  }

 private:
  std::string store_;
  std::string rss_log_;
};

// ---- flows --sweep: estimator × method × k flow cells (traced probe only).

shard::SweepSpec flow_spec() {
  shard::SweepSpec spec = shard::default_sweep_spec();
  spec.workload = shard::Workload::kFlow;
  spec.targets = {core::Target::kPacketSize};
  spec.base_seed = kProgramSeed;
  spec.replications = kReps;
  spec.granularities = flow::flow_ladder();
  spec.estimators = {flow::Estimator::kTailRescale, flow::Estimator::kEm};
  spec.flow.idle_timeout_usec = 30'000'000;
  spec.flow.capacity = 0;
  spec.flow.em_iters = 60;
  return spec;
}

exper::RunOptions flow_run_options(const shard::SweepSpec& spec) {
  exper::RunOptions ropts = sweep_run_options();
  ropts.cell_runner = [spec](const exper::CellConfig& cfg, std::size_t index) {
    return flow::run_flow_cell(cfg, spec.flow, shard::grid_estimator(spec, index));
  };
  return ropts;
}

/// flows --sweep, measured in sweep-ladder's traced run (its own workload
/// was dropped as unsteady, see README.md): the 30-cell grid three times,
/// whose rows must repeat, then the flow layer's parts on the whole capture
/// at each ladder k: a systematic 1-in-k sample through the sampled-flow
/// table, and both inversions of its size distribution.
void flow_probe(const Capture& c, Report& rep) {
  SpanRecorder off;
  trace::Trace t = load(c.path, off);
  const auto spec = flow_spec();
  std::int64_t table = 0, rescale = 0, em = 0;
  std::uint64_t iterations = 0;
  for (const std::uint64_t k : spec.granularities) {
    std::int64_t t0 = now_ns();
    flow::SampledFlowTable ft(
        MicroDuration{static_cast<std::int64_t>(spec.flow.idle_timeout_usec)}, 0);
    for (std::size_t i = 0; i < t.size(); i += k) ft.offer(t[i]);
    ft.flush();
    table += now_ns() - t0;
    const flow::SizeDist sampled = flow::size_dist_of(ft.records());
    t0 = now_ns();
    (void)flow::invert_tail_rescale(sampled, k);
    rescale += now_ns() - t0;
    t0 = now_ns();
    flow::EmOptions eo;
    eo.max_iters = spec.flow.em_iters;
    iterations += flow::invert_em(sampled, 1.0 / static_cast<double>(k), eo)
                      .log_likelihood.size();
    em += now_ns() - t0;
  }
  rep.add(rep.detail, "flow.table_ms", ms(table), "ms");
  rep.add(rep.detail, "flow.invert_rescale_ms", ms(rescale), "ms");
  rep.add(rep.detail, "flow.invert_em_ms", ms(em), "ms");
  rep.add(rep.detail, "flow.em_iterations", static_cast<double>(iterations), "count");

  const exper::Experiment ex(std::move(t));
  const auto grid = ladder_grid(spec, ex, true, off);
  SpanRecorder rec;
  rec.set_enabled(true);
  std::vector<RowHash> rows;
  for (int i = 0; i < 3; ++i) {
    OpOutput out;
    render(run_grid(grid, spec.base_seed, flow_run_options(spec), 1, rec, "flow.cell"),
           &out, off, &spec);
    if (!out.error.empty() || out.cells_failed != 0) {
      rep.fail("flow probe: " + std::to_string(out.cells_failed) + " cells failed " +
               out.error);
    }
    rows.push_back(out.rows);
  }
  if (!(rows[0] == rows[1] && rows[1] == rows[2])) {
    rep.fail("flow probe: the grid's rows differ between runs");
  }
  std::vector<double> grid_ms, cell_ms;
  for (const Span& s : rec.spans()) {
    if (s.name == "exper.run") grid_ms.push_back(ms(s.end_ns - s.start_ns));
    if (s.name == "flow.cell") cell_ms.push_back(ms(s.end_ns - s.start_ns));
  }
  rep.add(rep.detail, "flow.grid_ms", median(grid_ms), "ms");
  rep.add(rep.detail, "flow.cell_ms", median(cell_ms), "ms");
}

std::unique_ptr<Batch> make_batch(const Options& opts) {
  if (opts.workload == "score-hour") return std::make_unique<Score>();
  if (opts.workload == "sweep-ladder") return std::make_unique<Sweep>();
  const std::string pid = std::to_string(::getpid());
  return std::make_unique<Workers>(
      (fs::path(opts.work_dir) / ("store-" + pid + ".nstore")).string(),
      (fs::path(opts.work_dir) / ("worker-rss-" + pid + ".log")).string());
}

/// Per-layer roles of an op's spanned self time (traced runs). Every span
/// name maps to exactly one role.
enum class Role { kIngest, kPrepare, kScore, kEmit, kNone };

Role role_of(const std::string& n) {
  if (n.rfind("pcap.", 0) == 0) return Role::kIngest;
  if (n == "exper.experiment" || n == "exper.release" || n == "core.cache_build" ||
      n.rfind("shard.store", 0) == 0 || n == "shard.build_grid") {
    return Role::kPrepare;
  }
  if (n == "exper.run" || n == "exper.cell" || n == "shard.sweep") {
    return Role::kScore;
  }
  if (n == "netsample.emit") return Role::kEmit;
  return Role::kNone;
}

/// One op, checked against the reference; returns its wall time in ms.
double checked_op(Batch& b, const Capture& c, SpanRecorder& rec,
                  const RowHash& reference, Report& rep, OpOutput* kept) {
  const std::int64_t t0 = now_ns();
  OpOutput out;
  {
    ScopedSpan root(rec, "bench.op");
    out = b.op(c, rec);
  }
  const double wall = ms(now_ns() - t0);
  ++rep.attempted;
  if (!out.error.empty()) {
    rep.fail(out.error);
  } else if (!(out.rows == reference)) {
    rep.fail("rows differ from the reference (" + std::to_string(out.rows.bytes) +
             " bytes, hash " + std::to_string(out.rows.value) + " vs " +
             std::to_string(reference.bytes) + " bytes, hash " +
             std::to_string(reference.value) + ")");
  }
  if (kept) *kept = std::move(out);
  return wall;
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  return name == "score-hour" || name == "sweep-ladder" || name == "workers-ladder";
}

Report run_batch_workload(const Options& opts) {
  Report rep;
  auto b = make_batch(opts);
  const Capture cap = ensure_capture(opts.work_dir, b->capture(), opts.seed);
  const RowHash reference = b->reference(cap);
  // Hand the reference's memory back, so the peak RSS below counts only
  // what the ops themselves keep resident.
  malloc_trim(0);

  // Set-up: program set-up plus one warm-up op, several times; the median
  // is setup_s.
  std::vector<double> setups;
  SpanRecorder off;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    b->setup();
    (void)checked_op(*b, cap, off, reference, rep, nullptr);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const bool rss_reset = reset_peak_rss();
  b->restart_rss();

  // Timed ops. In a traced run half the ops record spans, so the untraced
  // ones measure what tracing costs.
  SpanRecorder rec;
  std::vector<double> plain, traced;
  std::vector<OpOutput> traced_outputs;
  const std::int64_t start = now_ns();
  for (int i = 0;; ++i) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    const int done = static_cast<int>(plain.size() + traced.size());
    if (elapsed >= opts.seconds && done >= (opts.trace ? 2 * kMinOps : kMinOps)) break;
    const bool tracing = opts.trace && traced_op(i);
    rec.set_enabled(tracing);
    OpOutput out;
    const double wall = checked_op(*b, cap, rec, reference, rep, tracing ? &out : nullptr);
    (tracing ? traced : plain).push_back(wall);
    if (tracing) traced_outputs.push_back(std::move(out));
  }
  rec.set_enabled(false);
  const std::uint64_t rss_kb = b->peak_rss_kb();

  if (!opts.trace) {
    const double op_ms = median(plain);
    rep.add(rep.metrics, "setup_s", median(setups), "s");
    rep.add(rep.metrics, "latency_ms", op_ms, "ms");
    rep.add(rep.metrics, "mpps", static_cast<double>(cap.packets) / (op_ms * 1e3), "Mpkt/s");
    rep.add(rep.metrics, "peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB");
    rep.add(rep.detail, "ops", static_cast<double>(plain.size()), "count");
    rep.add(rep.detail, "op_iqr_share", iqr_share(plain), "ratio");
    rep.add(rep.detail, "setup_iqr_share", iqr_share(setups), "ratio");
    rep.add(rep.detail, "peak_rss_since_setup", rss_reset ? 1 : 0, "bool");
  } else {
    const auto spans = rec.spans();
    const auto by_op = self_time_by_op(spans);
    std::map<std::string, std::vector<double>> by_name;
    std::vector<double> role_ms[4];
    std::vector<double> coverage;
    for (const auto& [op, names] : by_op) {
      double roles[4] = {0, 0, 0, 0};
      for (const auto& [name, self] : names) {
        if (name == "bench.op") continue;
        by_name[name].push_back(ms(self));
        const Role r = role_of(name);
        if (r != Role::kNone) roles[static_cast<int>(r)] += ms(self);
      }
      for (int r = 0; r < 4; ++r) role_ms[r].push_back(roles[r]);
      coverage.push_back(child_coverage(spans, op));
    }
    rep.add(rep.metrics, "ingest_ms", median(role_ms[0]), "ms");
    rep.add(rep.metrics, "prepare_ms", median(role_ms[1]), "ms");
    rep.add(rep.metrics, "score_ms", median(role_ms[2]), "ms");
    rep.add(rep.metrics, "emit_ms", median(role_ms[3]), "ms");
    rep.add(rep.metrics, "trace_overhead_ratio", median(traced) / median(plain), "ratio");
    for (const auto& [name, v] : by_name) rep.add(rep.detail, name + "_ms", median(v), "ms");
    if (by_name.count("pcap.read_file")) {
      rep.add(rep.detail, "pcap.read_mb_per_s",
              static_cast<double>(cap.bytes) / 1e6 / (median(by_name["pcap.read_file"]) / 1e3),
              "MB/s");
    }
    rep.add(rep.detail, "pcap.records", static_cast<double>(cap.packets), "count");
    std::vector<double> busy, failed;
    for (const auto& o : traced_outputs) {
      busy.push_back(o.cell_busy_ms);
      failed.push_back(static_cast<double>(o.cells_failed));
    }
    if (by_name.count("exper.run")) {  // cells ran in this process
      rep.add(rep.detail, "exper.cell_busy_ms", median(busy), "ms");
      rep.add(rep.detail, "exper.cells_failed", median(failed), "count");
    }
    rep.add(rep.detail, "bench.span_coverage_min",
            *std::min_element(coverage.begin(), coverage.end()), "ratio");
    rep.add(rep.detail, "obs.trace_overhead_share", median(traced) / median(plain) - 1.0,
            "ratio");
    b->op_details(traced_outputs, rep);
    b->probes(cap, rep);
    write_spans_jsonl((fs::path(opts.work_dir) /
                       ("spans-" + opts.workload + "-s" + std::to_string(opts.seed) +
                        ".jsonl"))
                          .string(),
                      spans);
  }
  b->teardown();
  return rep;
}

}  // namespace perfbench
