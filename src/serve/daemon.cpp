#include "serve/serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "netsample/result.h"
#include "netsample/session.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "stream/engine.h"
#include "stream/ring.h"
#include "trace/packet_record.h"
#include "util/cancel.h"
#include "util/event_loop.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace netsample::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a FEED may wait for ring room before its session is shed as
/// `ring-full`: a lane pool that pops nothing for this long is stuck.
constexpr auto kParkLimit = std::chrono::seconds(5);

std::int64_t chunk_bytes(std::size_t packets) {
  return static_cast<std::int64_t>(packets * sizeof(trace::PacketRecord));
}

}  // namespace

/// Per-tenant accounting. active_sessions and the pps bucket belong to the
/// protocol thread; queued_bytes is shared with the scoring lanes.
struct TenantState {
  TenantBudget budget;
  std::size_t active_sessions{0};
  std::atomic<std::int64_t> queued_bytes{0};
  double tokens{0};
  bool bucket_primed{false};
  Clock::time_point last_refill{};
};

struct ClientState {
  std::unique_ptr<shard::Transport> transport;
  /// Serializes every line written to this transport — the protocol thread
  /// and any scoring lane emitting ROWS interleave whole lines, never bytes.
  std::mutex write_mu;
  /// Live sessions keyed by id. Protocol thread only.
  std::unordered_map<std::string, std::shared_ptr<struct Session>> sessions;
  /// Ids that reached a terminal state (CLOSED / SHED / REJECT): late FEEDs
  /// and CLOSEs for them are dropped instead of ERROR'd. Protocol thread.
  std::unordered_set<std::string> tombstones;
  bool closed{false};

  // Protocol thread only. A FEED that meets a full ring parks its client:
  // the FEED and the lines read after it wait in `backlog`, and the fd
  // leaves the loop, so TCP flow control pushes back on this client alone.
  std::shared_ptr<struct Session> parked;
  std::chrono::steady_clock::time_point parked_at{};
  std::deque<std::string> backlog;
  bool watched{false};  // the fd is registered with the loop

  void send(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    (void)transport->write_line(line);  // false is sticky; sweep cleans up
  }
};

/// One scoring session. The protocol thread produces (FEED -> ring); at
/// most one pool task at a time consumes (the `scheduled` claim flag), so
/// the engine is effectively single-threaded and rows stay ordered.
struct Session {
  std::string id;
  SessionSpec spec;
  std::shared_ptr<ClientState> client;
  TenantState* tenant;
  util::CancelToken cancel;
  stream::SpscRing<std::vector<trace::PacketRecord>> ring;
  stream::Engine engine;

  MicroTime last_ts{};  // FEED clamp state; protocol thread only

  /// Set while a FEED waits for ring room: the lane that pops from the
  /// ring wakes the protocol thread.
  std::atomic<bool> parked{false};

  /// Exclusive drain claim: whoever flips false->true owns the session's
  /// engine until it stores false (or the session terminates).
  std::atomic<bool> scheduled{false};
  std::atomic<bool> close_requested{false};
  /// Terminal-shed claim: the first CAS from null wins and owns the
  /// transition; the value is always a string literal.
  std::atomic<const char*> shed_reason{nullptr};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> rows{0};

  Session(std::string sid, SessionSpec sp, std::shared_ptr<ClientState> c,
          TenantState* t)
      : id(std::move(sid)),
        spec(std::move(sp)),
        client(std::move(c)),
        tenant(t),
        ring(spec.ring_capacity),
        engine(session_lanes(spec), session_engine_options(spec, &cancel)) {
    if (spec.deadline_s > 0) cancel.set_deadline_after(spec.deadline_s);
  }

  [[nodiscard]] bool shed_claimed() const {
    return shed_reason.load(std::memory_order_acquire) != nullptr;
  }
  /// Neither finished nor claimed by a shed.
  [[nodiscard]] bool live() const {
    return !done.load(std::memory_order_acquire) && !shed_claimed();
  }
  [[nodiscard]] bool claim_shed(const char* reason) {
    const char* expected = nullptr;
    return shed_reason.compare_exchange_strong(expected, reason,
                                               std::memory_order_acq_rel);
  }
};

struct Server::Impl {
  ServeOptions options;
  shard::Listener listener;  // fd() < 0: none, or closed by the drain
  bool started{false};
  bool draining{false};
  std::atomic<bool> stop_flag{false};

  std::vector<std::shared_ptr<ClientState>> clients;
  std::map<std::string, std::unique_ptr<TenantState>> tenants;

  std::atomic<std::uint64_t> opened{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> closed_count{0};
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::size_t> active_sessions{0};
  std::atomic<std::size_t> client_count{0};

  // OPEN admission is determined by client behavior alone; shed/close/row
  // tallies depend on scheduling and load, hence the nondeterministic tag.
  obs::Counter& c_opened = obs::registry().counter(
      "netsample_serve_sessions_opened_total", obs::Determinism::kDeterministic);
  obs::Counter& c_rejected = obs::registry().counter(
      "netsample_serve_sessions_rejected_total",
      obs::Determinism::kDeterministic);
  obs::Counter& c_shed = obs::registry().counter(
      "netsample_serve_sessions_shed_total",
      obs::Determinism::kNondeterministic);
  obs::Counter& c_closed = obs::registry().counter(
      "netsample_serve_sessions_closed_total",
      obs::Determinism::kNondeterministic);
  obs::Counter& c_packets = obs::registry().counter(
      "netsample_serve_packets_total", obs::Determinism::kNondeterministic);
  obs::Counter& c_rows = obs::registry().counter(
      "netsample_serve_rows_total", obs::Determinism::kNondeterministic);

  util::EventLoop loop;

  // Declared last so it is destroyed first: queued drain tasks reference
  // the members above and must finish before they go away.
  std::unique_ptr<util::ThreadPool> pool;

  explicit Impl(ServeOptions opts) : options(std::move(opts)) {
    pool = std::make_unique<util::ThreadPool>(options.lanes);
  }

  TenantState& tenant_for(const std::string& name) {
    auto it = tenants.find(name);
    if (it == tenants.end()) {
      auto state = std::make_unique<TenantState>();
      const auto budget_it = options.tenant_budgets.find(name);
      state->budget = budget_it != options.tenant_budgets.end()
                          ? budget_it->second
                          : options.default_budget;
      it = tenants.emplace(name, std::move(state)).first;
    }
    return *it->second;
  }

  // ---- scoring-lane side -------------------------------------------------

  void emit_rows(Session& s, const stream::WindowScore& score) {
    const auto& columns = session_row_columns();
    const auto cells = session_row_cells(score);
    std::lock_guard<std::mutex> lock(s.client->write_mu);
    for (const auto& row : cells) {
      (void)s.client->transport->write_line("ROWS " + s.id + " " +
                                            json_line(columns, row));
      s.rows.fetch_add(1, std::memory_order_relaxed);
      rows.fetch_add(1, std::memory_order_relaxed);
      c_rows.increment();
    }
  }

  /// Pop whatever the session still has queued and return its bytes to
  /// the tenant.
  static void discard_queued(Session& s) {
    while (s.ring.size() > 0) {
      auto chunk = s.ring.pop();
      if (!chunk) break;
      s.tenant->queued_bytes.fetch_sub(chunk_bytes(chunk->size()),
                                       std::memory_order_relaxed);
    }
  }

  /// Terminal shed: discard whatever is still queued, tell the client,
  /// mark done. Runs on a pool lane holding the drain claim.
  void shed_terminal(Session& s) {
    discard_queued(s);
    const char* reason = s.shed_reason.load(std::memory_order_acquire);
    s.client->send(std::string("SHED ") + s.id + " " +
                   (reason != nullptr ? reason : "internal"));
    shed.fetch_add(1, std::memory_order_relaxed);
    c_shed.increment();
    s.done.store(true, std::memory_order_release);
    loop.wake();
  }

  /// Clean finish: final score, final ROWS, CLOSED. Pool lane, claimed.
  void finalize(Session& s) {
    try {
      emit_rows(s, s.engine.finish());
    } catch (const std::exception&) {
      (void)s.claim_shed("internal");
      shed_terminal(s);
      return;
    }
    s.client->send("CLOSED " + s.id + " rows=" +
                   std::to_string(s.rows.load(std::memory_order_relaxed)) +
                   " packets=" +
                   std::to_string(s.packets.load(std::memory_order_relaxed)));
    closed_count.fetch_add(1, std::memory_order_relaxed);
    c_closed.increment();
    s.done.store(true, std::memory_order_release);
    loop.wake();
  }

  /// The drain task: pop chunks, feed the engine, handle terminal
  /// transitions, release the claim only when there is truly nothing to do.
  void drain_session(const std::shared_ptr<Session>& s) {
    for (;;) {
      // Every terminal failure claims a shed reason (the first claim wins;
      // a shed requested elsewhere cancels the token) and ends below.
      try {
        while (!s->shed_claimed() && s->ring.size() > 0) {
          auto chunk = s->ring.pop();
          if (!chunk) break;
          // The ring has room now. Pairs with the park in handle_feed:
          // either this load sees the flag, or the protocol thread's room
          // check sees this pop.
          if (s->parked.load(std::memory_order_acquire)) loop.wake();
          s->tenant->queued_bytes.fetch_sub(chunk_bytes(chunk->size()),
                                            std::memory_order_relaxed);
          s->cancel.throw_if_stopped();
          s->engine.feed(*chunk);
        }
      } catch (const StatusError& e) {
        (void)s->claim_shed(e.status().code() == StatusCode::kDeadlineExceeded
                                ? "deadline"
                                : "cancelled");
      } catch (const std::exception&) {
        (void)s->claim_shed("input-error");
      }
      if (s->shed_claimed()) {
        shed_terminal(*s);
        return;
      }
      if (s->close_requested.load(std::memory_order_acquire) &&
          s->ring.size() == 0) {
        finalize(*s);
        return;
      }
      // Release the claim, then re-check: the protocol thread may have
      // pushed (or requested close/shed) between our empty check and the
      // release. Whoever wins the re-claim continues.
      s->scheduled.store(false, std::memory_order_release);
      if (s->ring.size() == 0 &&
          !s->close_requested.load(std::memory_order_acquire) &&
          !s->shed_claimed()) {
        return;
      }
      if (s->scheduled.exchange(true, std::memory_order_acq_rel)) return;
    }
  }

  // ---- protocol-thread side ----------------------------------------------

  void schedule(const std::shared_ptr<Session>& s) {
    if (s->done.load(std::memory_order_acquire)) return;
    if (s->scheduled.exchange(true, std::memory_order_acq_rel)) return;
    try {
      (void)pool->submit([this, s] { drain_session(s); });
    } catch (const std::runtime_error&) {
      s->scheduled.store(false, std::memory_order_release);
    }
  }

  void request_shed(const std::shared_ptr<Session>& s, const char* reason) {
    if (s->done.load(std::memory_order_acquire)) return;
    if (!s->claim_shed(reason)) return;
    s->cancel.cancel();  // unwedge a mid-feed engine promptly
    schedule(s);
  }

  void request_close(const std::shared_ptr<Session>& s) {
    if (s->live() && !s->close_requested.exchange(true)) schedule(s);
  }

  void reject(ClientState& client, const std::string& id,
              const std::string& reason) {
    client.send("REJECT " + id + " " + reason);
    rejected.fetch_add(1, std::memory_order_relaxed);
    c_rejected.increment();
    // Tombstone so in-flight FEED/CLOSE lines for the rejected id are
    // dropped silently. Live sessions are looked up before tombstones, so
    // a duplicate-id reject cannot shadow the session that owns the id.
    if (client.sessions.count(id) == 0) client.tombstones.insert(id);
  }

  void handle_open(const std::shared_ptr<ClientState>& client,
                   const std::string& id, const std::string& payload) {
    if (client->sessions.count(id) != 0 || client->tombstones.count(id) != 0) {
      reject(*client, id, "duplicate-id");
      return;
    }
    if (draining) {
      reject(*client, id, "draining");
      return;
    }
    SessionSpec spec;
    if (!decode_session_spec(payload, &spec)) {
      reject(*client, id, "bad-spec");
      return;
    }
    if (const Status st = validate_session_spec(spec); !st.is_ok()) {
      reject(*client, id, "invalid-spec " + st.message());
      return;
    }
    TenantState& tenant = tenant_for(spec.tenant);
    if (tenant.budget.max_sessions > 0 &&
        tenant.active_sessions >= tenant.budget.max_sessions) {
      reject(*client, id, "sessions-budget");
      return;
    }
    std::shared_ptr<Session> session;
    try {
      session = std::make_shared<Session>(id, std::move(spec), client, &tenant);
    } catch (const std::exception&) {
      reject(*client, id, "invalid-spec");
      return;
    }
    Session* raw = session.get();
    session->engine.on_snapshot(
        [this, raw](const stream::WindowScore& w) { emit_rows(*raw, w); });
    ++tenant.active_sessions;
    active_sessions.fetch_add(1, std::memory_order_relaxed);
    client->sessions.emplace(id, std::move(session));
    opened.fetch_add(1, std::memory_order_relaxed);
    c_opened.increment();
    client->send("OPENED " + id);
  }

  /// The live-or-finishing session `id` names for `verb`. Null for an
  /// unknown id (an ERROR) or a tombstoned one (a late line for a session
  /// already finished or rejected, dropped silently).
  std::shared_ptr<Session> find_session(ClientState& client,
                                        const std::string& verb,
                                        const std::string& id) {
    const auto it = client.sessions.find(id);
    if (it != client.sessions.end()) return it->second;
    if (client.tombstones.count(id) == 0) {
      client.send("ERROR " + verb + " unknown session " + id);
    }
    return nullptr;
  }

  void handle_feed(const std::shared_ptr<ClientState>& client,
                   const std::string& id, const std::string& payload) {
    const std::shared_ptr<Session> s = find_session(*client, "FEED", id);
    if (s == nullptr || !s->live()) return;
    if (s->close_requested.load(std::memory_order_acquire)) {
      client->send("ERROR FEED after CLOSE " + id);
      return;
    }
    if (s->ring.size() >= s->spec.ring_capacity) {
      // Backpressure, not loss: park the client. This FEED is handled
      // again, from the start, once a lane pops (sweep); only a
      // lane pool that pops nothing for kParkLimit trips the terminal
      // ring-full shed — which, like every shed, never touches another
      // session's packet sequence.
      client->parked = s;
      client->parked_at = Clock::now();
      s->parked.store(true, std::memory_order_release);
      return;
    }
    FeedChunk chunk;
    if (!parse_feed_payload(payload, &s->last_ts, &chunk)) {
      request_shed(s, "input-error");
      return;
    }
    TenantState& tenant = *s->tenant;
    if (tenant.budget.max_pps > 0) {
      const auto now = Clock::now();
      if (!tenant.bucket_primed) {
        tenant.tokens = tenant.budget.max_pps;  // a full 1 s burst to start
        tenant.bucket_primed = true;
      } else {
        const double dt =
            std::chrono::duration<double>(now - tenant.last_refill).count();
        tenant.tokens = std::min(tenant.budget.max_pps,
                                 tenant.tokens + dt * tenant.budget.max_pps);
      }
      tenant.last_refill = now;
      if (static_cast<double>(chunk.packets.size()) > tenant.tokens) {
        request_shed(s, "pps-budget");
        return;
      }
      tenant.tokens -= static_cast<double>(chunk.packets.size());
    }
    const std::int64_t bytes = chunk_bytes(chunk.packets.size());
    if (tenant.budget.max_ring_bytes > 0 &&
        tenant.queued_bytes.load(std::memory_order_relaxed) + bytes >
            static_cast<std::int64_t>(tenant.budget.max_ring_bytes)) {
      request_shed(s, "ring-bytes");
      return;
    }
    const std::uint64_t count = chunk.packets.size();
    // The protocol thread is the ring's sole producer and saw room above,
    // so this push cannot fail.
    (void)s->ring.try_push(std::move(chunk.packets));
    tenant.queued_bytes.fetch_add(bytes, std::memory_order_relaxed);
    s->packets.fetch_add(count, std::memory_order_relaxed);
    packets.fetch_add(count, std::memory_order_relaxed);
    c_packets.add(count);
    schedule(s);
    // A session parked when the drain began is closed after this FEED.
    if (draining) request_close(s);
  }

  void handle_close(const std::shared_ptr<ClientState>& client,
                    const std::string& id) {
    if (const auto s = find_session(*client, "CLOSE", id)) request_close(s);
  }

  void handle_stats(ClientState& client) {
    client.send(
        "STATS active=" + std::to_string(active_sessions.load()) +
        " opened=" + std::to_string(opened.load()) +
        " rejected=" + std::to_string(rejected.load()) +
        " shed=" + std::to_string(shed.load()) +
        " closed=" + std::to_string(closed_count.load()) +
        " packets=" + std::to_string(packets.load()) +
        " rows=" + std::to_string(rows.load()));
  }

  void drop_client(const std::shared_ptr<ClientState>& client) {
    if (client->closed) return;
    client->closed = true;
    watch(client, false);
    for (auto& [id, s] : client->sessions) request_shed(s, "disconnect");
    std::lock_guard<std::mutex> lock(client->write_mu);
    client->transport->close();
  }

  void handle_line(const std::shared_ptr<ClientState>& client,
                   const std::string& line) {
    ClientMessage msg;
    std::string error;
    if (!parse_client_line(line, &msg, &error)) {
      client->send("ERROR " + error);
      return;
    }
    switch (msg.command) {
      case ClientCommand::kOpen:
        handle_open(client, msg.session_id, msg.payload);
        break;
      case ClientCommand::kFeed:
        handle_feed(client, msg.session_id, msg.payload);
        break;
      case ClientCommand::kClose:
        handle_close(client, msg.session_id);
        break;
      case ClientCommand::kStats:
        handle_stats(*client);
        break;
      case ClientCommand::kBye:
        drop_client(client);
        break;
    }
  }

  /// Once per turn (protocol thread): resume each parked client whose
  /// session has ring room or has ended, and shed a session parked for
  /// kParkLimit; retire finished sessions (reclaim any residual ring bytes
  /// a racing FEED queued after the terminal drain, release the tenant
  /// slot, tombstone the id); drop fully departed clients. Returns when a
  /// still-parked client must be looked at again (none: nullopt).
  std::optional<Clock::time_point> sweep() {
    std::optional<Clock::time_point> next;
    const auto now = Clock::now();
    for (auto& client : clients) {
      while (client->parked) {
        const std::shared_ptr<Session> s = client->parked;
        if (s->live() && s->ring.size() >= s->spec.ring_capacity) {
          const auto limit = client->parked_at + kParkLimit;
          if (now < limit) {
            if (!next.has_value() || limit < *next) next = limit;
            break;
          }
          request_shed(s, "ring-full");
        }
        s->parked.store(false, std::memory_order_relaxed);
        client->parked.reset();
        handle_backlog(client);  // the parked FEED first
      }
      for (auto it = client->sessions.begin(); it != client->sessions.end();) {
        Session& s = *it->second;
        if (!s.done.load(std::memory_order_acquire)) {
          ++it;
          continue;
        }
        discard_queued(s);
        --s.tenant->active_sessions;
        active_sessions.fetch_sub(1, std::memory_order_relaxed);
        client->tombstones.insert(it->first);
        it = client->sessions.erase(it);
      }
    }
    std::erase_if(clients, [](const std::shared_ptr<ClientState>& c) {
      return c->closed && c->sessions.empty();
    });
    client_count.store(clients.size(), std::memory_order_relaxed);
    return next;
  }

  void begin_drain() {
    draining = true;
    if (listener.fd() >= 0) {
      loop.remove(listener.fd());
      listener.close();
    }
    for (auto& client : clients) {
      for (auto& [id, s] : client->sessions) {
        // A parked session is closed once its parked FEED is queued.
        if (!s->parked.load(std::memory_order_relaxed)) request_close(s);
      }
    }
  }

  // ---- the loop ----------------------------------------------------------

  /// Read a client's fd only while it is neither parked nor behind on
  /// lines it already sent.
  void watch(const std::shared_ptr<ClientState>& client, bool on) {
    if (client->watched == on) return;
    client->watched = on;
    const int fd = client->transport->poll_fd();
    if (!on) {
      loop.remove(fd);
      return;
    }
    loop.add(fd, [this, client] {
      std::vector<std::string> lines;
      // A peer that closed has said BYE, after its last line.
      if (client->transport->drain(&lines) == shard::ReadResult::kClosed) {
        lines.emplace_back("BYE");
      }
      std::move(lines.begin(), lines.end(),
                std::back_inserter(client->backlog));
      handle_backlog(client);
    });
  }

  void add_client(std::unique_ptr<shard::Transport> transport) {
    auto client = std::make_shared<ClientState>();
    client->transport = std::move(transport);
    watch(client, true);
    clients.push_back(std::move(client));
    client_count.store(clients.size(), std::memory_order_relaxed);
  }

  /// Handle a client's lines in order until one parks it (that FEED stays
  /// first in line).
  void handle_backlog(const std::shared_ptr<ClientState>& client) {
    while (!client->parked && !client->closed && !client->backlog.empty()) {
      handle_line(client, client->backlog.front());
      if (!client->parked) client->backlog.pop_front();
    }
    if (!client->closed) watch(client, !client->parked);
  }

  void run() {
    for (;;) {
      if (!draining && (stop_flag.load() ||
                        (options.stop_check && options.stop_check()))) {
        begin_drain();
      }
      std::optional<Clock::time_point> deadline = sweep();
      if (draining) {
        if (active_sessions.load() == 0) return;
      } else if (listener.fd() < 0 && clients.empty()) {
        return;  // adopted-transport mode: last client departed
      }
      // Deprecated stop_check: polled every 20 ms until v1.4 removes it.
      if (options.stop_check) {
        const auto poll_at = Clock::now() + std::chrono::milliseconds(20);
        if (!deadline.has_value() || poll_at < *deadline) deadline = poll_at;
      }
      (void)loop.wait(deadline);
    }
  }
};

Server::Server(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() = default;

void Server::start() {
  if (impl_->started) return;
  impl_->started = true;
  if (impl_->options.listen.empty()) return;
  auto listener = shard::Listener::open(impl_->options.listen);
  if (!listener.has_value()) throw StatusError(listener.status());
  impl_->listener = std::move(listener).value();
  Impl* impl = impl_.get();
  impl->loop.add(impl->listener.fd(), [impl] {
    while (auto transport = impl->listener.accept_connection()) {
      impl->add_client(std::move(transport));
    }
  });
}

std::string Server::address() const {
  return impl_->listener.fd() >= 0 ? impl_->listener.address()
                                    : std::string();
}

void Server::adopt_client(std::unique_ptr<shard::Transport> transport) {
  impl_->add_client(std::move(transport));
}

void Server::run() {
  if (!impl_->started) start();
  impl_->run();
}

void Server::request_stop() {
  impl_->stop_flag.store(true);
  impl_->loop.wake();
}

ServeStats Server::stats() const {
  ServeStats out;
  out.sessions_opened = impl_->opened.load(std::memory_order_relaxed);
  out.sessions_rejected = impl_->rejected.load(std::memory_order_relaxed);
  out.sessions_shed = impl_->shed.load(std::memory_order_relaxed);
  out.sessions_closed = impl_->closed_count.load(std::memory_order_relaxed);
  out.packets = impl_->packets.load(std::memory_order_relaxed);
  out.rows = impl_->rows.load(std::memory_order_relaxed);
  out.active_sessions = impl_->active_sessions.load(std::memory_order_relaxed);
  out.clients = impl_->client_count.load(std::memory_order_relaxed);
  return out;
}

}  // namespace netsample::serve
