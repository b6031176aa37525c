#include "shard/worker.h"

#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "exper/journal.h"
#include "exper/runner.h"
#include "faultsim/netfault.h"
#include "obs/metrics.h"
#include "shard/grid.h"
#include "shard/protocol.h"
#include "shard/store.h"
#include "shard/transport.h"

namespace netsample::shard {

namespace {

// SIGTERM means "leave cleanly": the handler only raises a flag; the loop
// notices it between messages (the handler is installed without SA_RESTART
// so a blocking read returns EINTR) and answers with BYE + exit 0.
volatile std::sig_atomic_t g_sigterm = 0;
void sigterm_handler(int) { g_sigterm = 1; }

/// Installs the clean-departure SIGTERM handler for the duration of a
/// worker run and restores the previous disposition after (the in-process
/// test harness calls run_worker directly).
class SigtermGuard {
 public:
  SigtermGuard() {
    g_sigterm = 0;
    struct sigaction sa{};
    sa.sa_handler = sigterm_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: blocking reads must wake up
    ::sigaction(SIGTERM, &sa, &old_);
  }
  ~SigtermGuard() { ::sigaction(SIGTERM, &old_, nullptr); }

 private:
  struct sigaction old_{};
};

/// Forwards to a Transport the caller owns (pipe/stdio mode), so the
/// netfault wrapper — which owns its inner transport — can wrap it.
class BorrowedTransport final : public Transport {
 public:
  explicit BorrowedTransport(Transport& inner) : inner_(inner) {}
  [[nodiscard]] int poll_fd() const override { return inner_.poll_fd(); }
  [[nodiscard]] bool write_line(const std::string& line) override {
    return inner_.write_line(line);
  }
  [[nodiscard]] bool write_bytes(const std::string& bytes) override {
    return inner_.write_bytes(bytes);
  }
  [[nodiscard]] ReadResult read_line(std::string* line) override {
    return inner_.read_line(line);
  }
  [[nodiscard]] ReadResult drain(std::vector<std::string>* lines) override {
    return inner_.drain(lines);
  }
  void shutdown_write() override { inner_.shutdown_write(); }
  void close() override { inner_.close(); }
  [[nodiscard]] bool is_closed() const override { return inner_.is_closed(); }
  void append_fds(std::vector<int>* out) const override {
    inner_.append_fds(out);
  }

 private:
  Transport& inner_;
};

std::uint64_t counter_value(const char* name) {
  if (!obs::enabled()) return 0;
  return obs::registry().counter(name).value();
}

/// One worker run: the protocol loop plus (in socket mode) the
/// reconnect machinery. The TraceStore is opened exactly once per process
/// no matter how often the wire flaps — zero re-binning holds through
/// every reconnect, and the HELLO counters are reported once.
class WorkerSession {
 public:
  WorkerSession(const WorkerOptions& opts, const TraceStore& store)
      : opts_(opts), store_(store) {}

  Status run_fixed(Transport& transport) {
    fixed_ = &transport;
    if (!opts_.netfault.empty()) {
      auto spec = faultsim::parse_netfault_spec(opts_.netfault);
      if (!spec.has_value()) return spec.status();
      fault_ = std::make_unique<faultsim::NetFaultTransport>(
          *spec, std::make_unique<BorrowedTransport>(transport));
    }
    if (!hello_and_flush()) {
      return Status(StatusCode::kInternal, "worker: coordinator pipe closed");
    }
    return loop();
  }

  Status run_dialing() {
    socket_mode_ = true;
    if (!opts_.netfault.empty()) {
      auto spec = faultsim::parse_netfault_spec(opts_.netfault);
      if (!spec.has_value()) return spec.status();
      fault_ = std::make_unique<faultsim::NetFaultTransport>(*spec, nullptr);
    }
    if (!reconnect()) {
      return Status(StatusCode::kInternal,
                    "worker: cannot reach coordinator at " + opts_.connect);
    }
    return loop();
  }

 private:
  Transport* wire() {
    if (fault_) return fault_.get();
    return socket_mode_ ? owned_.get() : fixed_;
  }

  Message hello_message() const {
    Message hello;
    hello.type = MessageType::kHello;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.packets = store_.packet_count();
    if (obs::enabled()) {
      hello.cache_builds =
          counter_value("netsample_trace_cache_builds_total");
      hello.cache_maps = counter_value("netsample_trace_cache_maps_total");
    } else {
      hello.cache_builds = 0;
      hello.cache_maps = store_.cache().mapped() ? 1 : 0;
    }
    return hello;
  }

  /// HELLO, then whatever replies a dead wire left queued. Replayed
  /// RESULTs for cells the coordinator already committed are discarded
  /// there (dedupe), never double-committed.
  bool hello_and_flush() {
    Transport* w = wire();
    if (w == nullptr) return false;
    if (!w->write_line(format_message(hello_message()))) return false;
    return flush_queued();
  }

  bool flush_queued() {
    Transport* w = wire();
    while (!queued_.empty()) {
      if (w == nullptr || !w->write_line(queued_.front())) return false;
      queued_.pop_front();
    }
    return true;
  }

  /// (Re)dial in socket mode. dial() already applies the capped
  /// exponential backoff + jitter across its attempts; the outer loop
  /// bounds how many times a handshake may die mid-replay before we give
  /// up on this wire for good.
  bool reconnect() {
    if (!socket_mode_) return false;
    for (int attempt = 0; attempt < 4; ++attempt) {
      DialOptions dopts;
      dopts.retries = opts_.connect_retries;
      auto conn = dial(opts_.connect, dopts);
      if (!conn.has_value()) return false;
      if (fault_) {
        fault_->rebind(std::move(*conn));
      } else {
        owned_ = std::move(*conn);
      }
      if (attempt > 0 || hello_sent_) ++reconnects_;
      if (hello_and_flush()) {
        hello_sent_ = true;
        return true;
      }
    }
    return false;
  }

  /// Wire died mid-loop: pipes shut down in order, sockets redial.
  enum class LostWire { kOrderly, kRecovered, kFatal };
  LostWire lost_wire() {
    if (!socket_mode_) return LostWire::kOrderly;  // pipe EOF = shutdown
    return reconnect() ? LostWire::kRecovered : LostWire::kFatal;
  }

  Status depart() {
    Message bye;
    bye.type = MessageType::kBye;
    bye.cells = cells_done_;
    Transport* w = wire();
    if (w != nullptr) (void)w->write_line(format_message(bye));
    return Status::ok();
  }

  /// Queue a reply line, then push the queue. A write failure keeps the
  /// line queued for replay after the next reconnect.
  void deliver(const Message& reply) {
    queued_.push_back(format_message(reply));
    (void)flush_queued();
  }

  Message lease_reply(std::uint64_t index) {
    Message reply;
    reply.index = index;
    if (index >= grid_.size()) {
      reply.type = MessageType::kFail;
      reply.code = StatusCode::kInvalidArgument;
      reply.text =
          grid_.empty() ? "lease before SPEC" : "lease index out of range";
      return reply;
    }
    const exper::CellConfig cfg =
        derived_cell_config(grid_[index], spec_.base_seed);
    try {
      const exper::CellResult result = run_grid_cell(spec_, cfg, index);
      reply.type = MessageType::kResult;
      reply.text = exper::encode_replications(result.replications);
    } catch (const StatusError& e) {
      reply.type = MessageType::kFail;
      reply.code = e.status().code();
      reply.text = e.status().message();
    } catch (const std::exception& e) {
      reply.type = MessageType::kFail;
      reply.code = StatusCode::kInternal;
      reply.text = e.what();
    }
    return reply;
  }

  Status loop() {
    std::string line;
    while (true) {
      if (g_sigterm != 0) return depart();
      Transport* w = wire();
      if (w == nullptr || w->is_closed()) {
        switch (lost_wire()) {
          case LostWire::kOrderly: return Status::ok();
          case LostWire::kRecovered: continue;
          case LostWire::kFatal:
            return Status(StatusCode::kInternal,
                          "worker: lost coordinator (redial budget spent)");
        }
      }
      const ReadResult r = w->read_line(&line);
      if (r == ReadResult::kInterrupted) continue;  // SIGTERM checked on top
      if (r != ReadResult::kLine) {
        switch (lost_wire()) {
          case LostWire::kOrderly: return Status::ok();
          case LostWire::kRecovered: continue;
          case LostWire::kFatal:
            return Status(StatusCode::kInternal,
                          "worker: lost coordinator (redial budget spent)");
        }
      }
      if (line.empty()) continue;
      Message msg;
      if (!parse_message(line, &msg)) {
        return Status(StatusCode::kInvalidArgument,
                      "worker: malformed coordinator message");
      }
      switch (msg.type) {
        case MessageType::kSpec: {
          if (!decode_sweep_spec(msg.text, &spec_)) {
            return Status(StatusCode::kInvalidArgument,
                          "worker: malformed sweep spec");
          }
          grid_ = build_grid(spec_, store_.view(),
                             store_.mean_interarrival_usec(), &store_.cache());
          break;
        }
        case MessageType::kPing: {
          // A lost PONG is harmless: the wire loss surfaces on the next
          // read, and the coordinator's liveness deadline covers silence.
          Message pong;
          pong.type = MessageType::kPong;
          pong.index = msg.index;
          Transport* pw = wire();
          if (pw != nullptr) (void)pw->write_line(format_message(pong));
          break;
        }
        case MessageType::kLease: {
          // Scripted faults fire when a LEASE arrives after N cells, so the
          // worker always goes down holding an unreported lease.
          const auto after = [&](int n) {
            return n >= 0 && cells_done_ >= static_cast<std::uint64_t>(n);
          };
          if (after(opts_.die_after_cells)) {
            ::_exit(137);  // simulated SIGKILL: no flush, no unwind, no BYE
          }
          if (after(opts_.depart_after_cells)) {
            return depart();  // scripted SIGTERM stand-in
          }
          const Message reply = lease_reply(msg.index);
          deliver(reply);
          if (reply.type == MessageType::kResult) ++cells_done_;
          break;
        }
        case MessageType::kStop:
          return depart();
        default:
          return Status(StatusCode::kInvalidArgument,
                        "worker: unexpected message type");
      }
    }
  }

  const WorkerOptions& opts_;
  const TraceStore& store_;
  Transport* fixed_{nullptr};                            // pipe/stdio mode
  std::unique_ptr<Transport> owned_;                     // socket mode
  std::unique_ptr<faultsim::NetFaultTransport> fault_;   // optional wrapper
  bool socket_mode_{false};
  bool hello_sent_{false};
  std::uint64_t reconnects_{0};
  std::deque<std::string> queued_;  // replies not yet written to a live wire
  SweepSpec spec_;
  std::vector<exper::GridTask> grid_;
  std::uint64_t cells_done_{0};
};

Status run_worker_common(const WorkerOptions& opts, Transport* fixed) {
  // A coordinator that died mid-read must surface as a write error, not a
  // process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  SigtermGuard sigterm;

  StoreBackend& backend = store_backend(opts.backend);
  auto opened = TraceStore::open(opts.store_path, backend);
  if (!opened.has_value()) return opened.status();
  const TraceStore store = std::move(*opened);

  WorkerSession session(opts, store);
  if (fixed != nullptr) return session.run_fixed(*fixed);
  return session.run_dialing();
}

}  // namespace

Status run_worker(const WorkerOptions& opts, std::FILE* in, std::FILE* out) {
  auto transport = make_stdio_transport(in, out);
  return run_worker_common(opts, transport.get());
}

Status run_worker(const WorkerOptions& opts, Transport& transport) {
  return run_worker_common(opts, &transport);
}

Status run_socket_worker(const WorkerOptions& opts) {
  if (opts.connect.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "worker: socket mode needs --connect HOST:PORT");
  }
  return run_worker_common(opts, nullptr);
}

}  // namespace netsample::shard
