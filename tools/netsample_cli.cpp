// netsample -- command-line front end to the whole library.
//
//   netsample generate --minutes 10 --seed 23 --out trace.pcap [--poisson]
//   netsample inspect  trace.pcap
//   netsample sample   trace.pcap --method systematic --k 50 --out out.pcap
//   netsample score    trace.pcap --method systematic --k 50 [--reps 5]
//                      [--workers N]
//   netsample flows    trace.pcap [--timeout 30] [--top 10]
//   netsample flows    trace.pcap --sweep [--estimators rescale,em]
//                      [--grid-k 10,100,1000] [--flow-cap N] [--workers N]
//   netsample design   --mu 232 --sigma 236 --accuracy 5 [--population N]
//   netsample charact  trace.pcap [--node t1|t3] [--k 50]
//   netsample impair   trace.pcap --method systematic --k 50 [--fault all]
//   netsample watch    trace.pcap --method systematic --k 50 --window 5
//   netsample serve    [--listen 127.0.0.1:0] [--lanes N] [--max-sessions N]
//   netsample loadgen  trace.pcap --connect HOST:PORT [--sessions N]
//   netsample stats    metrics.json [--masked]
//   netsample sweep    trace.pcap [--methods LIST] [--grid-k LIST]
//                      [--workers N] [--resume journal.ckpt]
//   netsample worker   --store trace.nstore   (spawned by --workers runs)
//   netsample journal  compact journal.ckpt
//
// score (histogram targets), sweep and flows --sweep are one grid run each:
// threads under --jobs, or worker processes over a shared trace store under
// --workers, with byte-identical stdout and --resume journals either way.
//
// score/impair (and the figure binaries) accept --metrics-out FILE /
// --trace-out FILE to export an observability snapshot of the run;
// `netsample stats` pretty-prints one, and with --masked emits the
// deterministic-only JSON that golden tests diff (docs/OBSERVABILITY.md).
//
// Every subcommand is a thin veneer over the public API; see examples/ for
// annotated versions of the same flows.
//
// Exit codes follow the sysexits convention (see docs/ROBUSTNESS.md):
//   0 success, 64 usage / bad input, 65 data loss (corrupt capture),
//   70 internal failure, 75 deadline exceeded or cancelled.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "netsample/netsample.h"
#include "tools/cli_args.h"

using namespace netsample;

namespace {

// sysexits-style mapping so scripts can distinguish "your fault" (64),
// "your data's fault" (65), "our fault" (70), and "ran out of time" (75).
constexpr int kExitUsage = 64;
constexpr int kExitDataLoss = 65;
constexpr int kExitInternal = 70;
constexpr int kExitDeadline = 75;

int exit_code_for(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotFound: return kExitUsage;
    case StatusCode::kDataLoss: return kExitDataLoss;
    case StatusCode::kUnimplemented:
    case StatusCode::kInternal: return kExitInternal;
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded: return kExitDeadline;
  }
  return kExitInternal;
}

int fail(const Status& status) {
  std::cerr << "error: " << status.to_string() << "\n";
  return exit_code_for(status);
}

int usage() {
  std::cout <<
      "netsample -- packet sampling methodology toolkit\n"
      "usage: netsample <command> [args]\n\n"
      "commands:\n"
      "  generate   synthesize a calibrated SDSC-like trace to a pcap file\n"
      "  inspect    summarize a pcap capture (Tables 2/3 style)\n"
      "  sample     draw a sampled sub-trace and write it as pcap\n"
      "  score      score a sampling discipline against the capture (phi)\n"
      "  flows      assemble 5-tuple flows and print top talkers; with\n"
      "             --sweep, run the sampled-flow inversion workload\n"
      "  design     Cochran sample-size planning\n"
      "  charact    run the NSFNET characterization objects\n"
      "  impair     sweep measurement impairments and report phi degradation\n"
      "  watch      stream a capture and emit windowed phi snapshots\n"
      "  serve      multi-tenant streaming scoring daemon: watch sessions\n"
      "             multiplexed over TCP with per-tenant budgets\n"
      "  loadgen    replay a capture as N concurrent serve sessions and\n"
      "             assert latency and cross-session determinism\n"
      "  stats      pretty-print a --metrics-out JSON snapshot\n"
      "  sweep      score the whole method x k grid, optionally sharded\n"
      "             over --workers N processes on a memory-mapped store\n"
      "  worker     sharded grid worker (spawned by score, sweep and flows\n"
      "             --sweep under --workers; speaks the lease protocol)\n"
      "  journal    maintain checkpoint journals (journal compact FILE)\n"
      "run 'netsample <command> --help' for flags.\n";
  return kExitUsage;
}

/// The non-empty items of a comma-separated flag value.
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    if (comma > pos) items.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return items;
}

/// --strict / --salvage as the corrupt-record policy every capture reader
/// (load(), watch, loadgen) frames with.
pcap::ParseOptions parse_options(const ArgParser& args) {
  pcap::ParseOptions options;
  if (args.get_bool("strict")) options.on_corrupt = pcap::OnCorrupt::kFail;
  if (args.get_bool("salvage")) options.on_corrupt = pcap::OnCorrupt::kSalvage;
  return options;
}

/// The one ingest-damage line, so a dirty capture is never silently "fine"
/// on any input path.
void report_data_loss(const pcap::ParseStats& s, std::ostream& out) {
  if (s.clean()) return;
  out << "  data loss: " << s.corrupt_records << " corrupt records, "
      << s.skipped_bytes << " bytes skipped resyncing, " << s.torn_tail_bytes
      << " torn tail bytes\n";
}

/// Load a capture honoring --strict / --salvage, surfacing every counter the
/// parse and decode produced. `out` lets machine-readable commands (impair
/// --csv) divert the human summary to stderr and keep stdout pure.
StatusOr<trace::Trace> load(const std::string& path, const ArgParser& args,
                            std::ostream& out = std::cout) {
  pcap::ParseStats parse_stats;
  pcap::DecodeStats stats;
  auto t = pcap::read_trace(path, parse_options(args), &parse_stats, &stats);
  if (t) {
    out << path << ": " << fmt_count(stats.decoded) << " IPv4 packets ("
        << stats.non_ipv4 << " non-IPv4, " << stats.malformed
        << " malformed skipped)\n";
    report_data_loss(parse_stats, out);
  }
  return t;
}

/// score's --on-error / --retries / --cell-timeout as the in-process
/// executor's RunOptions. sweep and flows --sweep always quarantine a failed
/// cell and run the rest, as the sharded executor does.
exper::RunOptions score_run_options(const ArgParser& args) {
  exper::RunOptions opts;
  const std::string policy = args.get_string("on-error");
  if (policy == "abort") {
    opts.on_error = exper::FailPolicy::kAbort;
  } else if (policy == "skip") {
    opts.on_error = exper::FailPolicy::kSkip;
  } else if (policy == "retry") {
    opts.on_error = exper::FailPolicy::kRetry;
  } else {
    throw std::invalid_argument("unknown --on-error '" + policy +
                                "' (abort|skip|retry)");
  }
  opts.max_attempts = 1 + static_cast<int>(args.get_int("retries"));
  opts.cell_timeout_seconds = args.get_double("cell-timeout");
  return opts;
}

int cmd_generate(ArgParser& args) {
  const double minutes = args.get_double("minutes");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::string out = args.get_string("out");

  if (args.get_bool("flow-mix") && args.get_bool("poisson")) {
    std::cerr << "error: --flow-mix and --poisson are mutually exclusive "
                 "(one adds flow-train structure, the other removes it)\n";
    return kExitUsage;
  }
  auto cfg = args.get_bool("flow-mix")
                 ? synth::flow_mix_minutes_config(minutes, seed)
                 : synth::sdsc_minutes_config(minutes, seed);
  if (args.get_bool("poisson")) cfg = synth::poissonified(cfg);
  synth::TraceModel model(cfg);
  const auto t = model.generate();
  const auto status = pcap::write_trace(out, t, 128);
  if (!status.is_ok()) return fail(status);
  std::cout << "wrote " << fmt_count(t.size()) << " packets ("
            << fmt_double(t.view().duration().to_seconds(), 1) << " s) to "
            << out << "\n";
  return 0;
}

int cmd_inspect(ArgParser& args) {
  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  const auto pop = trace::summarize_population(t->view());
  const auto ps = trace::summarize_per_second(t->view());
  TextTable table({"distribution", "min", "5%", "25%", "median", "75%", "95%",
                   "max", "mean", "stddev"});
  auto add = [&](const std::string& name, const stats::Summary& s, int prec) {
    table.add_row({name, fmt_double(s.min, prec), fmt_double(s.p5, prec),
                   fmt_double(s.q1, prec), fmt_double(s.median, prec),
                   fmt_double(s.q3, prec), fmt_double(s.p95, prec),
                   fmt_double(s.max, prec), fmt_double(s.mean, 1),
                   fmt_double(s.stddev, 1)});
  };
  add("packet size (B)", pop.packet_size, 0);
  add("interarrival (us)", pop.interarrival, 0);
  add("packets/s", ps.packet_rate, 0);
  add("kB/s", ps.kilobyte_rate, 1);
  add("mean pkt size (B)", ps.mean_packet_size, 0);
  table.print(std::cout);
  return 0;
}

int cmd_sample(ArgParser& args) {
  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));

  core::SamplerSpec spec;
  spec.method = shard::parse_method_token(args.get_string("method"));
  spec.granularity = static_cast<std::uint64_t>(args.get_int("k"));
  spec.population = ex.population_size();
  spec.mean_interarrival_usec = ex.mean_interarrival_usec();
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  auto sampler = core::make_sampler(spec);

  const auto sample = core::draw(ex.full(), *sampler);
  trace::Trace sampled(sample.packets());
  std::cout << sampler->name() << " selected " << fmt_count(sampled.size())
            << " of " << fmt_count(ex.population_size()) << " packets ("
            << fmt_double(100.0 * sample.fraction(), 3) << "%)\n";
  if (args.has("out")) {
    const std::string out = args.get_string("out");
    const auto status = pcap::write_trace(out, sampled, 128);
    if (!status.is_ok()) return fail(status);
    std::cout << "wrote sampled trace to " << out << "\n";
  }
  return 0;
}

int cmd_impair(ArgParser& args) {
  const bool csv = args.get_bool("csv");
  // In CSV mode stdout carries nothing but the header and data rows; the
  // human-facing summary moves to stderr.
  std::ostream& info = csv ? std::cerr : std::cout;
  auto loaded = load(args.positionals().at(0), args, info);
  if (!loaded) return fail(loaded.status());
  const trace::Trace clean = std::move(*loaded);
  const auto method = shard::parse_method_token(args.get_string("method"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  // Which faults to sweep.
  std::vector<faultsim::Fault> faults;
  const std::string fault_arg = args.get_string("fault");
  if (fault_arg == "all") {
    faults = faultsim::all_faults();
  } else {
    auto parsed = faultsim::parse_fault(fault_arg);
    if (!parsed) return fail(parsed.status());
    faults.push_back(*parsed);
  }

  // Intensity ladder: comma-separated per-record probabilities.
  std::vector<double> intensities;
  for (const auto& item : split_list(args.get_string("intensity"))) {
    intensities.push_back(std::stod(item));
  }
  if (intensities.empty()) {
    throw std::invalid_argument("--intensity needs at least one value");
  }

  // Scoring harness: mean phi of `reps` replications against the packet-size
  // target. Impaired traces differ per (fault, intensity), so each gets its
  // own streaming-path cell (no shared bin cache to build and discard).
  const auto score_phi = [&](const trace::Trace& t) {
    exper::CellConfig cfg;
    cfg.method = method;
    cfg.target = core::Target::kPacketSize;
    cfg.granularity = static_cast<std::uint64_t>(args.get_int("k"));
    cfg.interval = t.view();
    cfg.mean_interarrival_usec =
        trace::summarize_population(t.view()).interarrival.mean;
    cfg.replications = static_cast<int>(args.get_int("reps"));
    cfg.base_seed = seed;
    return exper::run_cell(cfg).phi_mean();
  };
  const double baseline = score_phi(clean);
  info << "clean capture: " << fmt_count(clean.size())
       << " packets, baseline mean phi " << fmt_double(baseline, 4) << " ("
       << args.get_string("method") << ", k=" << args.get_int("k") << ")\n";
  // One Table for both presentations: aligned text for humans, CSV (same
  // columns, same cells) for machines. The loss counters that used to be
  // CSV-only are worth seeing in the human table too.
  Table table;
  table.columns = {"fault",      "intensity",       "affected",
                   "packets",    "clamped",         "quarantined",
                   "corrupt_records", "skipped_bytes", "phi", "delta_phi"};
  for (const faultsim::Fault fault : faults) {
    for (const double intensity : intensities) {
      faultsim::ImpairmentSpec spec;
      spec.fault = fault;
      spec.intensity = intensity;
      spec.seed = derive_seed({seed, static_cast<std::uint64_t>(fault)});

      trace::Trace impaired;
      faultsim::ImpairmentReport rep;
      trace::AppendStats astats;
      pcap::ParseStats pstats;
      if (fault == faultsim::Fault::kTruncateRecords ||
          fault == faultsim::Fault::kBitFlips) {
        // Byte-level: corrupt the serialized capture, then ingest it back
        // through the salvage path exactly as a tool reading a damaged file
        // would.
        auto bytes = pcap::serialize(pcap::encode(clean, 128));
        rep = faultsim::impair_pcap_bytes(bytes, spec);
        pcap::ParseOptions popts;
        popts.on_corrupt = pcap::OnCorrupt::kSalvage;
        auto parsed = pcap::parse(bytes, popts, &pstats);
        if (!parsed) return fail(parsed.status());
        impaired = pcap::decode(*parsed);
      } else {
        impaired =
            faultsim::impair_trace(clean, spec, trace::TimePolicy::kClamp,
                                   &rep, &astats);
      }
      const double phi = impaired.size() > 1
                             ? score_phi(impaired)
                             : std::numeric_limits<double>::quiet_NaN();
      table.add_row({faultsim::fault_name(fault), fmt_double(intensity, 3),
                     std::to_string(rep.affected),
                     std::to_string(impaired.size()),
                     std::to_string(astats.clamped),
                     std::to_string(astats.quarantined),
                     std::to_string(pstats.corrupt_records),
                     std::to_string(pstats.skipped_bytes),
                     fmt_double(phi, 4), fmt_double(phi - baseline, 4)});
    }
  }
  emit(table, csv ? RowFormat::kCsv : RowFormat::kAligned, std::cout);
  return 0;
}

/// Session description shared by `watch`, `serve` defaults, and `loadgen`:
/// the watch flag vocabulary maps 1:1 onto the facade's SessionSpec (API
/// v1.1), and the one validator behind watch and serve OPEN runs here — a
/// bad combination is kInvalidArgument (exit 64) before any capture opens.
SessionSpec session_spec_from_args(const ArgParser& args) {
  SessionSpec spec;
  spec.method = shard::parse_method_token(args.get_string("method"));
  spec.granularity = static_cast<std::uint64_t>(args.get_int("k"));
  spec.replications = static_cast<int>(args.get_int("reps"));
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  spec.targets = args.get_string("target");
  spec.window_s = args.get_double("window");
  spec.stride_s = args.get_double("stride");
  spec.population = static_cast<std::uint64_t>(args.get_int("population"));
  spec.mean_iat_usec = args.get_double("mean-iat");
  spec.chunk_packets = static_cast<std::size_t>(args.get_int("chunk"));
  spec.ring_capacity = static_cast<std::size_t>(args.get_int("ring"));
  spec.deadline_s = args.get_double("deadline");
  spec.tenant = args.get_string("tenant");
  const Status status = validate_session_spec(spec);
  if (!status.is_ok()) throw StatusError(status);
  return spec;
}

/// `netsample watch` — the streaming scorer on a capture: the pcap is
/// decoded record-at-a-time through the SPSC pipeline into a stream::Engine,
/// which emits one row per (window, lane) as snapshots tick by. Memory is
/// O(window), never O(trace); stdout carries nothing but the rows.
///
/// Since API v1.1 the engine is built entirely from a SessionSpec — the same
/// struct `serve` decodes from an OPEN line — so a serve session's ROWS
/// payloads are byte-identical to this subcommand's jsonl by construction.
int cmd_watch(ArgParser& args) {
  const std::string format = args.get_string("format");
  if (format != "jsonl" && format != "csv") {
    throw std::invalid_argument("unknown --format '" + format +
                                "' (jsonl|csv)");
  }
  const SessionSpec spec = session_spec_from_args(args);

  util::CancelToken cancel;
  cancel.set_deadline_after(spec.deadline_s);
  stream::Engine engine(session_lanes(spec),
                        session_engine_options(spec, &cancel));

  const std::vector<std::string>& columns = session_row_columns();
  if (format == "csv") std::cout << csv_line(columns) << "\n";
  const auto emit_score = [&](const stream::WindowScore& w) {
    for (const auto& cells : session_row_cells(w)) {
      std::cout << (format == "csv" ? csv_line(cells)
                                    : json_line(columns, cells))
                << "\n";
    }
  };
  engine.on_snapshot(emit_score);

  stream::PcapSource source(args.positionals().at(0), parse_options(args));
  if (!source.ok()) return fail(source.status());

  stream::PipelineOptions popts;
  popts.chunk_packets = spec.chunk_packets;
  popts.ring_capacity = spec.ring_capacity;
  popts.cancel = &cancel;
  const auto report = stream::run_pipeline(source, engine, popts);
  if (!report.status.is_ok()) return fail(report.status);
  emit_score(engine.finish());

  // Stream health goes to stderr so the machine rows on stdout stay pure.
  const auto& ds = source.decode_stats();
  std::cerr << args.positionals().at(0) << ": " << fmt_count(report.packets)
            << " packets in " << fmt_count(report.chunks) << " chunks ("
            << ds.non_ipv4 << " non-IPv4, " << ds.malformed << " malformed, "
            << source.clamped() << " clamped timestamps); ring peak "
            << report.ring.occupancy_peak << "/" << popts.ring_capacity
            << ", blocked pushes " << report.ring.blocked_pushes << "\n";
  report_data_loss(source.parse_stats(), std::cerr);
  return 0;
}

// `serve` leaves cleanly on SIGTERM/SIGINT: the handler calls
// Server::request_stop() (async-signal-safe), which wakes the daemon's loop
// to drain every open session (final ROWS + CLOSED) before run() returns —
// the same discipline as the sharded worker's clean departure.
std::atomic<serve::Server*> g_serve_server{nullptr};
void serve_stop_handler(int) {
  if (serve::Server* server = g_serve_server.load()) server->request_stop();
}

/// Installs the drain-on-signal handlers for the rest of the process: a
/// late SIGTERM while the drained daemon tears down must not kill it with
/// the default action. SIGPIPE is ignored — a client that disconnects
/// mid-write must surface as EPIPE on that transport, not kill the daemon.
void install_serve_signal_handlers(serve::Server* server) {
  g_serve_server = server;
  struct sigaction sa{};
  sa.sa_handler = serve_stop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
}

/// `netsample serve` — the multi-tenant streaming scoring daemon
/// (docs/SERVING.md): sessions arrive over TCP as OPEN lines carrying an
/// encoded SessionSpec, each one scored by a per-session engine fed from a
/// bounded ring and drained on a shared lane pool. --max-sessions /
/// --max-ring-bytes / --max-pps set the default per-tenant budget (0 =
/// unlimited). Prints `listening HOST:PORT` to stdout (flushed) once bound
/// so scripts can parse the ephemeral port, then serves until
/// SIGTERM/SIGINT and exits 0 after the drain.
int cmd_serve(ArgParser& args) {
  serve::ServeOptions sopts;
  sopts.listen = args.get_string("listen");
  sopts.lanes = static_cast<std::size_t>(
      tools::checked_count("--lanes", args.get_string("lanes"), 4096));
  sopts.default_budget.max_sessions = static_cast<std::size_t>(
      tools::checked_count("--max-sessions", args.get_string("max-sessions"),
                           1000000000));
  sopts.default_budget.max_ring_bytes = static_cast<std::size_t>(
      tools::checked_count("--max-ring-bytes",
                           args.get_string("max-ring-bytes"), 2000000000));
  sopts.default_budget.max_pps =
      tools::checked_seconds("--max-pps", args.get_string("max-pps"), 1e12);

  serve::Server server(std::move(sopts));
  server.start();  // StatusError on a bad/busy bind (exit 64)
  install_serve_signal_handlers(&server);  // before scripts learn the address
  std::cout << "listening " << server.address() << "\n" << std::flush;
  server.run();
  g_serve_server = nullptr;  // a late signal must not reach a dead server

  const serve::ServeStats s = server.stats();
  std::cerr << "serve: " << s.sessions_opened << " opened, "
            << s.sessions_closed << " closed, " << s.sessions_rejected
            << " rejected, " << s.sessions_shed << " shed; "
            << fmt_count(s.packets) << " packets in, " << fmt_count(s.rows)
            << " rows out\n";
  return 0;
}

/// `netsample loadgen` — drive a running serve daemon with N concurrent
/// sessions replaying the capture and assert the serving contract: every
/// un-shed session reaches CLOSED, sessions sharing a seed group emit
/// byte-identical rows however the daemon interleaved them, and (with
/// --p99-ms) the p99 CLOSE->CLOSED latency stays under the bound. The
/// capture is read through stream::PcapSource so the packet sequence —
/// clamping rule included — is exactly what `watch` scores, which is what
/// makes --dump-rows byte-diffable against a watch run.
int cmd_loadgen(ArgParser& args) {
  if (!args.has("connect")) {
    std::cerr << "error: loadgen requires --connect HOST:PORT (a running "
                 "`netsample serve`)\n";
    return kExitUsage;
  }
  serve::LoadgenOptions lopts;
  lopts.connect = args.get_string("connect");
  auto hp = shard::parse_host_port(lopts.connect);
  if (!hp.has_value()) return fail(hp.status());
  lopts.sessions = static_cast<std::size_t>(
      tools::checked_count("--sessions", args.get_string("sessions"),
                           1000000));
  lopts.connections = static_cast<std::size_t>(
      tools::checked_count("--connections", args.get_string("connections"),
                           100000));
  lopts.seed_groups = static_cast<std::size_t>(
      tools::checked_count("--seed-groups", args.get_string("seed-groups"),
                           1000000));
  lopts.feed_packets = static_cast<std::size_t>(
      tools::checked_count("--feed-chunk", args.get_string("feed-chunk"),
                           1000000000));
  if (lopts.sessions == 0 || lopts.connections == 0 ||
      lopts.seed_groups == 0 || lopts.feed_packets == 0) {
    throw std::invalid_argument(
        "loadgen --sessions/--connections/--seed-groups/--feed-chunk must "
        "be >= 1");
  }
  lopts.p99_ms =
      tools::checked_seconds("--p99-ms", args.get_string("p99-ms"), 1e9);
  if (args.has("dump-rows")) lopts.dump_rows_path = args.get_string("dump-rows");
  lopts.close_sessions = !args.get_bool("no-close");
  lopts.spec = session_spec_from_args(args);
  // --deadline bounds the whole drill (daemons that wedge must fail it),
  // not each session: a per-session deadline would shed under load and
  // make the latency assertion vacuous.
  const double deadline = args.get_double("deadline");
  if (deadline > 0) lopts.timeout_s = deadline;
  lopts.spec.deadline_s = 0;

  std::vector<trace::PacketRecord> packets;
  {
    stream::PcapSource source(args.positionals().at(0), parse_options(args));
    if (!source.ok()) return fail(source.status());
    std::vector<trace::PacketRecord> chunk;
    while (true) {
      chunk.clear();
      if (!source.next_chunk(4096, chunk)) break;
      packets.insert(packets.end(), chunk.begin(), chunk.end());
    }
    if (!source.status().is_ok()) return fail(source.status());
    report_data_loss(source.parse_stats(), std::cerr);
  }

  std::signal(SIGPIPE, SIG_IGN);  // daemon death -> report, not our death
  const serve::LoadgenReport report = serve::run_loadgen(lopts, packets);
  std::cerr << "loadgen: " << report.completed << "/" << report.sessions
            << " sessions closed, " << report.shed << " shed, "
            << report.rejected << " rejected, " << fmt_count(report.rows)
            << " rows; p99 " << fmt_double(report.p99_ms, 2) << " ms, max "
            << fmt_double(report.max_ms, 2) << " ms, "
            << (report.deterministic ? "deterministic" : "NONDETERMINISTIC")
            << "\n";
  if (!report.ok) {
    std::cerr << "error: loadgen: " << report.error << "\n";
    return kExitInternal;
  }
  return 0;
}

/// `netsample flows` without --sweep: assemble every flow through an
/// uncapped flow table and print the top talkers. Ties keep the table's
/// deterministic record order: expiry batch, then first_seen, then 5-tuple.
int flow_top_talkers(ArgParser& args) {
  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  flow::SampledFlowTable table(
      MicroDuration::from_seconds(args.get_double("timeout")), 0);
  for (const auto& p : t->view()) table.offer(p);
  table.flush();
  const auto s = trace::flow_stats(table.records());
  std::cout << fmt_count(s.flows) << " flows, " << fmt_count(s.packets)
            << " packets, " << fmt_count(s.bytes) << " bytes; mean "
            << fmt_double(s.mean_flow_packets, 2) << " pkts/flow\n\n";

  TextTable top({"src", "dst", "proto", "dport", "packets", "bytes", "sec"});
  for (const auto& f : trace::top_by_packets(
           table.records(), static_cast<std::size_t>(args.get_int("top")))) {
    top.add_row({f.key.src.to_string(), f.key.dst.to_string(),
                 net::ip_proto_name(f.key.protocol),
                 std::to_string(f.key.dst_port), fmt_count(f.packets),
                 fmt_count(f.bytes), fmt_double(f.duration().to_seconds(), 2)});
  }
  top.print(std::cout);
  return 0;
}

int cmd_design(ArgParser& args) {
  const double mu = args.get_double("mu");
  const double sigma = args.get_double("sigma");
  const double acc = args.get_double("accuracy");
  const double conf = args.get_double("confidence");
  const auto pop = static_cast<std::uint64_t>(args.get_int("population"));
  const auto p = core::plan_sample_size(mu, sigma, acc, conf, pop);
  std::cout << "to estimate a mean of " << fmt_double(mu, 1) << " (sd "
            << fmt_double(sigma, 1) << ") to +-" << fmt_double(acc, 1)
            << "% at " << fmt_double(conf * 100, 0) << "% confidence:\n"
            << "  n (infinite population) = " << fmt_count(p.n) << "\n";
  if (pop > 0) {
    std::cout << "  n (with FPC for N=" << fmt_count(pop)
              << ") = " << fmt_count(p.n_fpc) << "\n"
              << "  sampling fraction = "
              << fmt_double(100.0 * p.sampling_fraction, 3) << "%\n";
  }
  return 0;
}

int cmd_charact(ArgParser& args) {
  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  const auto node = args.get_string("node") == "t1" ? charact::NodeType::kT1
                                                    : charact::NodeType::kT3;
  const auto k = static_cast<std::uint64_t>(args.get_int("k"));
  std::uint64_t counter = 0;
  charact::Selector selector;
  if (k > 1) {
    selector = [&counter, k](const trace::PacketRecord&) {
      return counter++ % k == 0;
    };
  }
  charact::CollectionAgent agent(node, selector);
  agent.run(t->view());
  std::cout << agent.reports().size() << " collection cycles\n";
  for (const auto& rep : agent.reports()) {
    std::cout << "\ncycle " << rep.cycle << ": offered "
              << fmt_count(rep.packets_offered) << ", examined "
              << fmt_count(rep.packets_examined) << "\n";
    TextTable protos({"protocol", "packets (est.)", "bytes (est.)"});
    for (const auto& [proto, vol] : rep.protocols) {
      protos.add_row({net::ip_proto_name(proto), fmt_count(vol.packets * k),
                      fmt_count(vol.bytes * k)});
    }
    protos.print(std::cout);
  }
  return 0;
}

int cmd_stats(ArgParser& args) {
  const std::string path = args.positionals().at(0);
  std::ifstream in(path);
  if (!in) {
    return fail(Status(StatusCode::kNotFound,
                       "stats: cannot open '" + path + "'"));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  if (args.get_bool("masked")) {
    // Deterministic-only JSON: what golden/cross-jobs diffs compare.
    std::cout << obs::masked_json(json);
  } else {
    std::cout << obs::pretty_metrics(json);
  }
  return 0;
}

/// Comma-separated u64 list ("2,4,8"); throws on empties and zeros.
std::vector<std::uint64_t> parse_k_list(const std::string& list) {
  std::vector<std::uint64_t> out;
  for (const auto& item : split_list(list)) {
    const auto v = std::stoull(item);
    if (v == 0) throw std::invalid_argument("--grid-k: k must be >= 1");
    out.push_back(v);
  }
  if (out.empty()) {
    throw std::invalid_argument("--grid-k needs at least one granularity");
  }
  return out;
}

/// Apply --methods to a spec: "all" keeps the default 5, otherwise a
/// comma-separated token list replaces them. Throws on empties/unknowns.
void apply_methods_flag(const ArgParser& args, shard::SweepSpec* spec) {
  const std::string methods = args.get_string("methods");
  if (methods == "all") return;
  spec->methods.clear();
  for (const auto& item : split_list(methods)) {
    spec->methods.push_back(shard::parse_method_token(item));
  }
  if (spec->methods.empty()) {
    throw std::invalid_argument("--methods needs at least one method");
  }
}

/// The packet-target grid of `score` and `sweep`: the full paper grid with
/// --seed, --reps and --target applied.
shard::SweepSpec packet_spec_from_args(const ArgParser& args) {
  shard::SweepSpec spec = shard::default_sweep_spec();
  spec.base_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  spec.replications = static_cast<int>(args.get_int("reps"));
  const std::string which = args.get_string("target");
  if (which == "size") {
    spec.targets = {core::Target::kPacketSize};
  } else if (which == "iat") {
    spec.targets = {core::Target::kInterarrivalTime};
  } else if (which != "both") {
    throw std::invalid_argument("unknown --target '" + which +
                                "' (both|size|iat; score also takes "
                                "ports|protocols|netmatrix)");
  }
  return spec;
}

/// The flow-workload grid of `netsample flows --sweep`: estimators x methods
/// x granularities, with the flow-table/inversion parameters attached.
shard::SweepSpec flow_spec_from_args(const ArgParser& args) {
  shard::SweepSpec spec = shard::default_sweep_spec();
  spec.workload = shard::Workload::kFlow;
  // Placeholder target: required by the spec codec, ignored by flow cells.
  spec.targets = {core::Target::kPacketSize};
  spec.base_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  spec.replications = static_cast<int>(args.get_int("reps"));
  apply_methods_flag(args, &spec);
  const std::string ks = args.get_string("grid-k");
  spec.granularities = ks == "ladder" ? flow::flow_ladder() : parse_k_list(ks);

  for (const auto& item : split_list(args.get_string("estimators"))) {
    spec.estimators.push_back(flow::parse_estimator_token(item));
  }
  if (spec.estimators.empty()) {
    throw std::invalid_argument("--estimators needs at least one of rescale|em");
  }

  const double timeout_s = args.get_double("timeout");
  if (!(timeout_s > 0.0)) {
    throw std::invalid_argument("flows --timeout must be > 0 seconds");
  }
  spec.flow.idle_timeout_usec = static_cast<std::uint64_t>(timeout_s * 1e6);
  spec.flow.capacity = static_cast<std::uint64_t>(tools::checked_count(
      "--flow-cap", args.get_string("flow-cap"), 1000000000));
  const int em_iters = tools::checked_count("--em-iters",
                                            args.get_string("em-iters"), 100000);
  if (em_iters == 0) {
    throw std::invalid_argument("--em-iters must be >= 1");
  }
  spec.flow.em_iters = em_iters;
  return spec;
}

/// Path of the running binary, for respawning ourselves as `netsample
/// worker` (argv[0] may be bare and $PATH-relative; the exec must not be).
std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

/// A fault-drill count flag: N > 0 arms the drill after N cells, 0 leaves
/// it off (-1).
int drill_flag(const ArgParser& args, const std::string& name) {
  const int n = tools::checked_count("--" + name, args.get_string(name),
                                     1000000000);
  return n > 0 ? n : -1;
}

/// --netfault, validated here so a typo is a usage error, not a kInternal
/// after every worker dies trying to parse it; "" when absent.
std::string netfault_flag(const ArgParser& args) {
  if (!args.has("netfault")) return {};
  auto nf = faultsim::parse_netfault_spec(args.get_string("netfault"));
  if (!nf.has_value()) throw StatusError(nf.status());
  return args.get_string("netfault");
}

/// The validated sharding vocabulary, read up front so a malformed flag is
/// a usage error (64) before any capture is parsed or store written. Throws
/// std::invalid_argument / StatusError on malformed flags — both map to
/// exit 64 in main(). --workers 0 means in-process.
shard::CoordinatorOptions shard_flags_from_args(const ArgParser& args) {
  shard::CoordinatorOptions f;
  f.workers =
      tools::checked_count("--workers", args.get_string("workers"), 4096);
  f.chaos_kill_after = drill_flag(args, "chaos-kill-after");
  f.max_respawns = tools::checked_count(
      "--max-respawns", args.get_string("max-respawns"), 1000000000);
  f.first_worker_depart_after = drill_flag(args, "depart-after");
  f.heartbeat_interval_s = tools::checked_seconds(
      "--heartbeat-interval", args.get_string("heartbeat-interval"), 3600.0);
  f.lease_timeout_s = tools::checked_seconds(
      "--lease-timeout", args.get_string("lease-timeout"), 3600.0);
  f.connect_retries = tools::checked_count(
      "--connect-retries", args.get_string("connect-retries"), 1000);
  const std::string transport = args.get_string("transport");
  if (transport != "pipe" && transport != "socket") {
    throw std::invalid_argument("--transport must be pipe or socket, got \"" +
                                transport + "\"");
  }
  f.listen = args.get_string("listen");
  if (transport == "socket") {
    f.transport = shard::TransportKind::kSocket;
    auto hp = shard::parse_host_port(f.listen);
    if (!hp.has_value()) throw StatusError(hp.status());
  }
  f.netfault = netfault_flag(args);
  return f;
}

/// The one grid run behind `score`, `sweep` and `flows --sweep`: build
/// `spec`'s grid over the capture, open the --resume journal (banner on
/// `info`), run every cell and print the table. Cells run on ParallelRunner
/// threads (--jobs) under `ropts`, or with --workers N on N worker
/// processes that map one shared TraceStore; the sharded executor always
/// quarantines a failed cell and runs the rest. Seeds and journal keys
/// derive from grid coordinates, never from scheduling, so both executors
/// print the same table and write the same journal. Scheduling facts (store
/// reuse, leases, respawns) go to stderr. Throws StatusError on a store or
/// coordinator failure.
int run_grid(const shard::SweepSpec& spec, exper::Experiment& ex,
             exper::RunOptions ropts, shard::CoordinatorOptions copts,
             const ArgParser& args, int jobs, const char* argv0,
             std::ostream& info) {
  exper::CheckpointJournal journal;
  exper::CheckpointJournal* resumed = nullptr;
  if (args.has("resume")) {
    auto opened = exper::CheckpointJournal::open(args.get_string("resume"));
    if (!opened) return fail(opened.status());
    journal = std::move(*opened);
    resumed = &journal;
    info << "journal " << journal.path() << ": " << journal.size()
         << " cells already complete";
    if (journal.dropped_lines() > 0) {
      info << " (" << journal.dropped_lines() << " torn lines dropped)";
    }
    info << "\n";
  }
  const auto grid = shard::build_grid(spec, ex.full(),
                                      ex.mean_interarrival_usec(),
                                      &ex.binned_cache());

  exper::RunReport rr;
  if (copts.workers == 0) {
    ropts.journal = resumed;
    exper::ParallelRunner runner(jobs);
    rr = runner.run(grid, spec.base_seed, shard::grid_run_options(spec, ropts));
  } else {
    copts.store_path = args.has("store")
                           ? args.get_string("store")
                           : args.positionals().at(0) + ".nstore";
    copts.backend = args.get_string("store-backend");
    copts.journal = resumed;
    copts.worker_command = {self_exe(argv0), "worker"};
    // Amortization: a valid store for this population is reused as-is; the
    // trace is re-binned and re-serialized only when none exists yet.
    bool wrote_store = false;
    {
      shard::StoreBackend& backend = shard::store_backend(copts.backend);
      auto existing = shard::TraceStore::open(copts.store_path, backend);
      if (!existing.has_value() ||
          existing->packet_count() != ex.population_size()) {
        const double mean_size =
            trace::summarize_population(ex.full()).packet_size.mean;
        const Status st = shard::write_trace_store(
            copts.store_path, ex.binned_cache(), ex.mean_interarrival_usec(),
            mean_size);
        if (!st.is_ok()) throw StatusError(st);
        wrote_store = true;
      }
    }
    std::cerr << "store: " << (wrote_store ? "wrote " : "reusing ")
              << copts.store_path << "\n";

    auto sharded = shard::run_sharded_sweep(spec, copts);
    if (wrote_store && !args.get_bool("keep-store")) {
      (void)std::remove(copts.store_path.c_str());
    }
    if (!sharded.has_value()) throw StatusError(sharded.status());
    std::cerr << "workers: " << sharded->workers_spawned << " spawned, "
              << sharded->leases_granted << " leases, "
              << sharded->reassignments << " reassigned, "
              << sharded->workers_departed << " departed, "
              << sharded->leases_expired << " expired, " << sharded->reconnects
              << " reconnects, " << sharded->workers_died
              << " died; worker cache builds " << sharded->worker_cache_builds
              << ", maps " << sharded->worker_cache_maps << "\n";

    // Re-dress the shard outcomes as the RunReport the in-process executor
    // returns, so the table renders through the same code.
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
  }

  // The table on stdout; each quarantined cell on stderr.
  const bool flows = spec.workload == shard::Workload::kFlow;
  const auto result =
      flows ? as_flow_result(std::move(rr), spec) : as_result(std::move(rr));
  emit(result.rows, RowFormat::kAligned, std::cout);
  for (const std::size_t i : result->quarantined()) {
    std::cerr << "quarantined: cell " << i << " ("
              << (flows ? flow::estimator_name(shard::grid_estimator(spec, i))
                        : core::target_name(grid[i].config.target))
              << ") after " << result->cells[i].attempts << " attempt(s): "
              << result->cells[i].status.to_string() << "\n";
  }
  return result.ok() ? 0 : fail(result.status);
}

int cmd_score(ArgParser& args, const tools::CommonOptions& common,
              const char* argv0) {
  const shard::CoordinatorOptions flags = shard_flags_from_args(args);
  // Proportion-based (Section 8) targets score through the categorical
  // machinery, in-process and unjournaled; "both" / "size" / "iat" use the
  // paper's histogram targets.
  const std::string which = args.get_string("target");
  const bool categorical =
      which == "ports" || which == "protocols" || which == "netmatrix";
  if (categorical && (flags.workers > 0 || args.has("resume"))) {
    throw std::invalid_argument(
        std::string(flags.workers > 0 ? "--workers" : "--resume") +
        " does not apply to --target " + which);
  }
  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));

  if (categorical) {
    exper::CellConfig cfg;
    cfg.method = shard::parse_method_token(args.get_string("method"));
    cfg.granularity = static_cast<std::uint64_t>(args.get_int("k"));
    cfg.interval = ex.full();
    cfg.mean_interarrival_usec = ex.mean_interarrival_usec();
    cfg.replications = static_cast<int>(args.get_int("reps"));
    cfg.base_seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const auto key_fn = which == "ports"       ? core::service_port_key()
                        : which == "protocols" ? core::protocol_key()
                                               : core::network_pair_key();
    const core::CategoricalTarget target(which, key_fn, cfg.interval);
    TextTable table({"replication", "phi", "chi2 sig", "coverage %"});
    for (int r = 0; r < cfg.replications; ++r) {
      auto sampler = core::make_sampler(exper::replication_spec(cfg, r));
      const auto sample = core::draw(cfg.interval, *sampler);
      const auto counts = target.sample_counts(sample);
      const auto m =
          core::score_counts(counts, target.population_counts(),
                             1.0 / static_cast<double>(cfg.granularity));
      table.add_row({std::to_string(r), fmt_double(m.phi, 4),
                     fmt_double(m.significance, 4),
                     fmt_double(100.0 * target.coverage(counts), 1)});
    }
    std::cout << which << ": " << target.category_count()
              << " categories in the population\n";
    table.print(std::cout);
    return 0;
  }

  // The histogram targets are a one-method, one-k grid: the cells
  // `sweep --methods M --grid-k K` runs, through the same executors.
  shard::SweepSpec spec = packet_spec_from_args(args);
  spec.methods = {shard::parse_method_token(args.get_string("method"))};
  spec.granularities = {static_cast<std::uint64_t>(args.get_int("k"))};
  return run_grid(spec, ex, score_run_options(args), flags, args, common.jobs,
                  argv0, std::cout);
}

/// `netsample sweep` — the whole method x granularity grid over one capture,
/// pruned by --target / --methods / --grid-k.
int cmd_sweep(ArgParser& args, const tools::CommonOptions& common,
              const char* argv0) {
  const shard::CoordinatorOptions flags = shard_flags_from_args(args);
  auto t = load(args.positionals().at(0), args);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));

  shard::SweepSpec spec = packet_spec_from_args(args);
  apply_methods_flag(args, &spec);
  const std::string ks = args.get_string("grid-k");
  if (ks != "ladder") spec.granularities = parse_k_list(ks);
  exper::RunOptions quarantine;
  quarantine.on_error = exper::FailPolicy::kSkip;
  return run_grid(spec, ex, quarantine, flags, args, common.jobs, argv0,
                  std::cout);
}

/// `netsample flows` — top talkers by default; with --sweep, the flow
/// workload: estimators x methods x granularities cells that sample the
/// capture, aggregate sampled flows under memory pressure (--flow-cap),
/// invert the sampled flow-size distribution, and score the estimate
/// against the interval's ground truth. Flow tasks carry a per-estimator
/// journal-key suffix (docs/FLOWS.md §4), so under --resume the two
/// estimator blocks — identical CellConfigs by design — never alias.
int cmd_flows(ArgParser& args, const tools::CommonOptions& common,
              const char* argv0) {
  if (!args.get_bool("sweep")) return flow_top_talkers(args);
  const shard::CoordinatorOptions flags = shard_flags_from_args(args);
  // The capture summary and journal banner go to stderr, unlike sweep's:
  // the flows table on stdout must stay byte-diffable between a resumed
  // and an uninterrupted run.
  auto t = load(args.positionals().at(0), args, std::cerr);
  if (!t) return fail(t.status());
  exper::Experiment ex(std::move(*t));

  exper::RunOptions quarantine;
  quarantine.on_error = exper::FailPolicy::kSkip;
  return run_grid(flow_spec_from_args(args), ex, quarantine, flags, args,
                  common.jobs, argv0, std::cerr);
}

/// `netsample worker` — one sharded-grid worker, speaking the lease
/// protocol on stdin/stdout, or dialing a socket coordinator when --connect
/// is given. Not meant for interactive use; `--workers N` runs exec these.
int cmd_worker(ArgParser& args) {
  if (!args.has("store")) {
    std::cerr << "error: worker requires --store FILE\n";
    return kExitUsage;
  }
  shard::WorkerOptions wopts;
  wopts.store_path = args.get_string("store");
  wopts.backend = args.get_string("store-backend");
  wopts.die_after_cells = drill_flag(args, "die-after");
  wopts.depart_after_cells = drill_flag(args, "depart-after");
  wopts.connect_retries = tools::checked_count(
      "--connect-retries", args.get_string("connect-retries"), 1000);
  wopts.netfault = netfault_flag(args);
  if (args.has("connect")) {
    wopts.connect = args.get_string("connect");
    auto hp = shard::parse_host_port(wopts.connect);
    if (!hp.has_value()) return fail(hp.status());
    const Status status = shard::run_socket_worker(wopts);
    if (!status.is_ok()) return fail(status);
    return 0;
  }
  const Status status = shard::run_worker(wopts, stdin, stdout);
  if (!status.is_ok()) return fail(status);
  return 0;
}

int cmd_journal(ArgParser& args) {
  const auto& pos = args.positionals();
  if (pos.size() != 2 || pos[0] != "compact") {
    std::cerr << "error: usage: netsample journal compact FILE\n";
    return kExitUsage;
  }
  auto stats = exper::CheckpointJournal::compact_file(pos[1]);
  if (!stats) return fail(stats.status());
  std::cout << "journal " << pos[1] << ": " << stats->lines_before
            << " lines -> " << stats->lines_after << " ("
            << stats->duplicate_keys << " superseded, " << stats->dropped_lines
            << " torn/malformed dropped)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);

  ArgParser args;
  args.add_flag("help", "", "show this help");
  // Declare the union of flags; each command reads what it needs.
  args.add_flag("minutes", "N", "trace duration in minutes", "10");
  args.add_flag("seed", "S", "RNG seed", "23");
  args.add_flag("out", "FILE", "output pcap path");
  args.add_flag("poisson", "", "disable burst structure (ablation workload)");
  args.add_flag("method", "M", "sampling method", "systematic");
  args.add_flag("k", "K", "sampling granularity (1-in-k)", "50");
  args.add_flag("reps", "R", "replications", "5");
  args.add_flag("target", "T",
                "score target: both|size|iat|ports|protocols|netmatrix "
                "(the categorical ports|protocols|netmatrix run in-process: "
                "--jobs does not apply, --workers and --resume exit 64)",
                "both");
  args.add_flag("timeout", "SEC", "flow idle timeout seconds", "30");
  args.add_flag("top", "N", "top talkers to print", "10");
  args.add_flag("sweep", "",
                "flows: run the flow-workload sweep (sampled-flow "
                "aggregation + size-distribution inversion) instead of "
                "printing top talkers");
  args.add_flag("estimators", "LIST",
                "flows --sweep: comma-separated inversion estimators "
                "(rescale|em)", "rescale,em");
  args.add_flag("flow-cap", "N",
                "flows --sweep: sampled-flow table capacity, 0 = unbounded",
                "0");
  args.add_flag("em-iters", "N", "flows --sweep: EM iteration budget", "60");
  args.add_flag("flow-mix", "",
                "generate: heavy-tailed flow-train mix (Pareto train "
                "lengths) for the flow workload");
  args.add_flag("mu", "M", "population mean (design)", "232");
  args.add_flag("sigma", "S", "population stddev (design)", "236");
  args.add_flag("accuracy", "R", "accuracy percent (design)", "5");
  args.add_flag("confidence", "C", "confidence level (design)", "0.95");
  args.add_flag("population", "N", "population size, 0=infinite", "0");
  args.add_flag("node", "T", "node type: t1 or t3 (charact)", "t1");
  args.add_flag("strict", "",
                "reject corrupt captures outright (exit 65) instead of "
                "keeping the clean prefix");
  args.add_flag("salvage", "",
                "skip corrupt records and resync instead of stopping at the "
                "first bad header");
  args.add_flag("on-error", "P",
                "score: cell failure policy abort|skip|retry (in-process "
                "executor only; --workers quarantines and continues)",
                "abort");
  args.add_flag("retries", "N",
                "score: extra attempts per failed cell under --on-error retry "
                "(in-process executor only)", "2");
  args.add_flag("cell-timeout", "SEC",
                "score: per-cell watchdog deadline, 0 = none (in-process "
                "executor only)", "0");
  args.add_flag("resume", "FILE",
                "score/sweep/flows --sweep: checkpoint journal; completed "
                "cells are replayed from it and new ones appended");
  args.add_flag("fault", "F",
                "impair: truncate|bitflip|clock-back|clock-forward|duplicate|"
                "drop-burst, or 'all'", "all");
  args.add_flag("intensity", "LIST",
                "impair: comma-separated per-record probabilities",
                "0.001,0.01,0.05,0.1");
  args.add_flag("csv", "", "impair: machine-readable CSV output");
  args.add_flag("window", "SEC",
                "watch: rolling window length in seconds, 0 = whole stream",
                "0");
  args.add_flag("stride", "SEC",
                "watch: snapshot period in seconds, 0 = one per window", "0");
  args.add_flag("format", "F", "watch: output rows as jsonl or csv", "jsonl");
  args.add_flag("chunk", "N", "watch: packets per pipeline chunk", "4096");
  args.add_flag("ring", "N", "watch: pipeline ring capacity in chunks", "16");
  args.add_flag("deadline", "SEC",
                "watch: wall-clock budget, 0 = none (exit 75 when exceeded)",
                "0");
  args.add_flag("mean-iat", "USEC",
                "watch: population mean interarrival for timer methods", "0");
  args.add_flag("tenant", "NAME",
                "watch/loadgen: budget bucket the session bills to",
                "default");
  args.add_flag("lanes", "N",
                "serve: scoring threads shared by all sessions, 0 = one per "
                "hardware thread", "0");
  args.add_flag("max-sessions", "N",
                "serve: per-tenant concurrent-session budget, 0 = unlimited",
                "0");
  args.add_flag("max-ring-bytes", "N",
                "serve: per-tenant queued-packet-bytes budget before "
                "shedding, 0 = unlimited", "0");
  args.add_flag("max-pps", "RATE",
                "serve: per-tenant sustained packets/sec budget (1 s burst), "
                "0 = unlimited", "0");
  args.add_flag("sessions", "N", "loadgen: concurrent sessions to replay",
                "64");
  args.add_flag("connections", "N",
                "loadgen: transports the sessions multiplex over", "8");
  args.add_flag("seed-groups", "N",
                "loadgen: distinct seeds; sessions within a group must emit "
                "byte-identical rows", "1");
  args.add_flag("feed-chunk", "N", "loadgen: packets per FEED line", "512");
  args.add_flag("p99-ms", "MS",
                "loadgen: assert p99 CLOSE->CLOSED latency <= MS, 0 = "
                "report only", "0");
  args.add_flag("dump-rows", "FILE",
                "loadgen: write session s0's ROWS payloads here (byte-diff "
                "vs watch)");
  args.add_flag("no-close", "",
                "loadgen: never send CLOSE; wait for the daemon's drain "
                "(SIGTERM drill)");
  args.add_flag("masked", "",
                "stats: print the deterministic-only JSON instead of the "
                "human table");
  // --jobs / --metrics-out / --trace-out / --legacy-scan come from the
  // shared vocabulary (tools/cli_args.h) so the CLI and the figure binaries
  // cannot drift; the capture stays positional here, hence no --pcap.
  tools::add_common_flags(args, /*with_pcap=*/false);
  // --workers / --store / --store-backend / ... likewise (grid runs +
  // worker).
  tools::add_sweep_flags(args);

  const auto status = args.parse(rest);
  if (!status.is_ok()) {
    std::cerr << "error: " << status.message() << "\n";
    return kExitUsage;
  }
  if (args.get_bool("help")) {
    std::cout << "flags for '" << cmd << "':\n" << args.help();
    return 0;
  }

  // Observability plumbing: read_common_options() validates the shared
  // flags and flips the obs switches; the snapshot is written on every exit
  // path out of the command — a quarantined sweep's metrics are exactly the
  // interesting ones.
  struct ObsOutputs {
    std::string metrics_path;
    std::string trace_path;
    ~ObsOutputs() {
      (void)obs::write_metrics_file(metrics_path);
      (void)obs::write_trace_file(trace_path);
    }
  } obs_outputs;

  try {
    const tools::CommonOptions common = tools::read_common_options(args);
    obs_outputs.metrics_path = common.metrics_out;
    obs_outputs.trace_path = common.trace_out;
    if (cmd == "generate") {
      if (!args.has("out")) {
        std::cerr << "error: generate requires --out FILE\n";
        return kExitUsage;
      }
      return cmd_generate(args);
    }
    if (cmd == "inspect" || cmd == "sample" || cmd == "score" ||
        cmd == "flows" || cmd == "charact" || cmd == "impair" ||
        cmd == "watch" || cmd == "sweep" || cmd == "loadgen") {
      if (args.positionals().empty()) {
        std::cerr << "error: " << cmd << " requires a pcap file argument\n";
        return kExitUsage;
      }
      if (cmd == "inspect") return cmd_inspect(args);
      if (cmd == "sample") return cmd_sample(args);
      if (cmd == "score") return cmd_score(args, common, argv[0]);
      if (cmd == "flows") return cmd_flows(args, common, argv[0]);
      if (cmd == "impair") return cmd_impair(args);
      if (cmd == "watch") return cmd_watch(args);
      if (cmd == "sweep") return cmd_sweep(args, common, argv[0]);
      if (cmd == "loadgen") return cmd_loadgen(args);
      return cmd_charact(args);
    }
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "worker") return cmd_worker(args);
    if (cmd == "journal") return cmd_journal(args);
    if (cmd == "design") return cmd_design(args);
    if (cmd == "stats") {
      if (args.positionals().empty()) {
        std::cerr << "error: stats requires a metrics JSON file argument\n";
        return kExitUsage;
      }
      return cmd_stats(args);
    }
  } catch (const StatusError& e) {
    return fail(e.status());
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitInternal;
  }
  return usage();
}
