#include "shard/coordinator.h"

#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "shard/protocol.h"
#include "shard/store.h"
#include "shard/transport.h"
#include "shard/worker.h"
#include "util/event_loop.h"

namespace netsample::shard {

std::size_t ShardReport::ok_count() const {
  std::size_t n = 0;
  for (const auto& c : cells) {
    if (c.status.is_ok()) ++n;
  }
  return n;
}

std::size_t ShardReport::from_journal_count() const {
  std::size_t n = 0;
  for (const auto& c : cells) {
    if (c.from_journal) ++n;
  }
  return n;
}

bool ShardReport::all_ok() const { return ok_count() == cells.size(); }

Status ShardReport::first_failure() const {
  for (const auto& c : cells) {
    if (!c.status.is_ok()) return c.status;
  }
  return Status::ok();
}

namespace {

using Clock = std::chrono::steady_clock;

/// Floating seconds -> the steady clock's native duration, so time_point
/// arithmetic stays in one representation.
Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// How many leases a worker holds at once. Depth 2 hides the lease round
// trip: the next cell is already queued on the wire while the current one
// computes. Results stay deterministic at any depth (seeds are positional).
constexpr std::size_t kLeaseDepth = 2;

enum CellState : unsigned char { kPending = 0, kLeased, kDone };

enum class Departure { kUnexpected, kClean };

/// One worker identity. The connection (chan) and the process (pid) have
/// independent lifetimes in socket mode: a wire can die and come back
/// (awaiting + re-HELLO) while the process lives, and a process can be
/// reaped while its last bytes still sit in the socket. `dead` is final.
struct Slot {
  pid_t pid{-1};
  bool proc_alive{false};  // we spawned it and have not reaped it
  int pidfd{-1};           // readable once the process exits (-1: none)
  int wait_status{0};      // waitpid status, once reaped
  bool external{false};    // connected on its own; not our child
  bool dead{false};
  std::unique_ptr<Transport> chan;
  bool awaiting{false};  // expecting a (re)connection before the deadline
  Clock::time_point awaiting_deadline{};
  bool ever_connected{false};
  bool hello_counted{false};
  bool suspended{false};  // a lease expired; no new grants until it speaks
  Clock::time_point probation_deadline{};
  std::vector<std::uint64_t> outstanding;
  std::map<std::uint64_t, Clock::time_point> lease_sent;
  Clock::time_point last_heard_{};
  Clock::time_point last_ping_{};
};

/// An accepted socket that has not said HELLO yet — not a worker until it
/// identifies itself (or a stale duplicate; either way it gets a deadline).
struct PendingConn {
  std::unique_ptr<Transport> chan;
  Clock::time_point deadline;
};

class Coordinator {
 public:
  Coordinator(const SweepSpec& spec, const CoordinatorOptions& opts)
      : spec_(spec),
        opts_(opts),
        socket_mode_(opts.transport == TransportKind::kSocket),
        hb_(opts.heartbeat_interval_s),
        lt_(opts.lease_timeout_s),
        window_(opts.reconnect_window_s) {}

  /// Abort-path safety net: whatever is still alive gets SIGKILL'd and
  /// reaped, so no error return leaks children.
  ~Coordinator() {
    for (auto& s : slots_) {
      if (s.proc_alive) {
        ::kill(s.pid, SIGKILL);
        reap(s, true);
      }
    }
  }

  StatusOr<ShardReport> run();

 private:
  // ---- wiring ----------------------------------------------------------

  static bool connected(const Slot& s) {
    return s.chan != nullptr && !s.chan->is_closed();
  }

  /// Reap a spawned worker (blocking, or only if it has exited); true once
  /// it is gone.
  bool reap(Slot& s, bool block) {
    int st = 0;
    const pid_t r = ::waitpid(s.pid, &st, block ? 0 : WNOHANG);
    // ECHILD: already reaped elsewhere; its pidfd would stay readable.
    if (!block && r != s.pid && !(r < 0 && errno == ECHILD)) return false;
    s.proc_alive = false;
    s.wait_status = st;
    if (s.pidfd >= 0) {
      loop_.remove(s.pidfd);
      ::close(s.pidfd);
    }
    s.pidfd = -1;
    return true;
  }

  /// Close a slot's wire and stop watching it.
  void drop_chan(Slot& s) {
    if (!s.chan) return;
    loop_.remove(s.chan->poll_fd());
    s.chan->close();
    s.chan.reset();
  }

  std::list<PendingConn>::iterator close_pending(
      std::list<PendingConn>::iterator it) {
    loop_.remove(it->chan->poll_fd());
    it->chan->close();
    return pending_conns_.erase(it);
  }

  std::size_t capacity() const {
    std::size_t c = 0;
    for (const auto& s : slots_) {
      if (!s.dead && (connected(s) || s.awaiting)) ++c;
    }
    return c;
  }

  /// Spawn (or respawn) one worker process into slots_[si]. In pipe mode
  /// the wire exists immediately; in socket mode the slot waits for the
  /// worker to dial back (awaiting, bounded by the reconnect window).
  bool spawn_into(std::size_t si) {
    Slot& s = slots_[si];
    s = Slot{};
    const bool give_die =
        !first_spawn_done_ && opts_.first_worker_die_after >= 0;
    const bool give_depart =
        !first_spawn_done_ && opts_.first_worker_depart_after >= 0;

    int c2w[2] = {-1, -1};
    int w2c[2] = {-1, -1};
    if (!socket_mode_) {
      if (::pipe(c2w) != 0) return false;
      if (::pipe(w2c) != 0) {
        ::close(c2w[0]);
        ::close(c2w[1]);
        return false;
      }
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
      if (!socket_mode_) {
        ::close(c2w[0]);
        ::close(c2w[1]);
        ::close(w2c[0]);
        ::close(w2c[1]);
      }
      return false;
    }
    if (pid == 0) {
      // Child. Drop every parent-side descriptor we inherited — our own
      // pipe's far ends (so EOF propagates), every sibling wire, and the
      // listener — so a sibling's death is visible to the coordinator as
      // EOF and nobody but the coordinator can accept().
      std::vector<int> parent_fds;
      if (listener_.fd() >= 0) parent_fds.push_back(listener_.fd());
      for (const auto& other : slots_) {
        if (other.chan) other.chan->append_fds(&parent_fds);
        if (other.pidfd >= 0) parent_fds.push_back(other.pidfd);
      }
      for (const auto& pc : pending_conns_) {
        pc.chan->append_fds(&parent_fds);
      }
      if (!socket_mode_) {
        parent_fds.push_back(c2w[1]);
        parent_fds.push_back(w2c[0]);
      }
      for (const int fd : parent_fds) ::close(fd);

      if (!opts_.worker_command.empty()) {
        std::vector<std::string> argv_s = opts_.worker_command;
        argv_s.push_back("--store");
        argv_s.push_back(opts_.store_path);
        argv_s.push_back("--store-backend");
        argv_s.push_back(opts_.backend);
        if (socket_mode_) {
          argv_s.push_back("--connect");
          argv_s.push_back(listen_addr_);
          argv_s.push_back("--connect-retries");
          argv_s.push_back(std::to_string(opts_.connect_retries));
        }
        if (!opts_.netfault.empty()) {
          argv_s.push_back("--netfault");
          argv_s.push_back(opts_.netfault);
        }
        if (give_die) {
          argv_s.push_back("--die-after");
          argv_s.push_back(std::to_string(opts_.first_worker_die_after));
        }
        if (give_depart) {
          argv_s.push_back("--depart-after");
          argv_s.push_back(std::to_string(opts_.first_worker_depart_after));
        }
        if (!socket_mode_) {
          ::dup2(c2w[0], STDIN_FILENO);
          ::dup2(w2c[1], STDOUT_FILENO);
          ::close(c2w[0]);
          ::close(w2c[1]);
        }
        std::vector<char*> argv;
        argv.reserve(argv_s.size() + 1);
        for (auto& a : argv_s) argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        ::_exit(127);
      }

      WorkerOptions wopts;
      wopts.store_path = opts_.store_path;
      wopts.backend = opts_.backend;
      wopts.netfault = opts_.netfault;
      if (give_die) wopts.die_after_cells = opts_.first_worker_die_after;
      if (give_depart) {
        wopts.depart_after_cells = opts_.first_worker_depart_after;
      }
      Status st;
      if (socket_mode_) {
        wopts.connect = listen_addr_;
        wopts.connect_retries = opts_.connect_retries;
        st = run_socket_worker(wopts);
      } else {
        std::FILE* fin = ::fdopen(c2w[0], "r");
        std::FILE* fout = ::fdopen(w2c[1], "w");
        if (fin == nullptr || fout == nullptr) ::_exit(127);
        st = run_worker(wopts, fin, fout);
      }
      ::_exit(st.is_ok() ? 0 : 70);
    }

    // Parent.
    s.pid = pid;
    s.proc_alive = true;
#ifdef SYS_pidfd_open
    s.pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#endif
    // A pidfd turns readable when the worker exits; the wakeup alone is
    // enough, since every turn of the loops reaps first.
    if (s.pidfd >= 0) loop_.add(s.pidfd, [] {});
    ++report_.workers_spawned;
    first_spawn_done_ = true;
    // A drilled worker fires on the LEASE that follows its Nth cell, so it
    // is reserved N + 1 cells now: that LEASE exists however fast the other
    // workers drain the queue, and the fault always strands it.
    const int drill = give_die      ? opts_.first_worker_die_after
                      : give_depart ? opts_.first_worker_depart_after
                                    : -1;
    for (int k = 0; k <= drill && lease_next(s); ++k) {
    }
    if (socket_mode_) {
      s.awaiting = true;
      s.awaiting_deadline = Clock::now() + window_dur();
    } else {
      ::close(c2w[0]);
      ::close(w2c[1]);
      attach(si, make_fd_transport(w2c[0], c2w[1]));
    }
    return true;
  }

  /// Bind a live wire to a slot: (re)send the SPEC — rebuilding the grid
  /// is idempotent — and top the worker up with leases. A reconnect to a
  /// slot that somehow still holds a wire drops the old one first.
  void attach(std::size_t si, std::unique_ptr<Transport> chan) {
    Slot& s = slots_[si];
    if (s.chan) {
      drop_chan(s);
      reclaim_leases(s);
    }
    s.chan = std::move(chan);
    loop_.add(s.chan->poll_fd(), [this, si] { on_slot_readable(si); });
    s.awaiting = false;
    s.suspended = false;
    const auto t = Clock::now();
    s.last_heard_ = t;
    s.last_ping_ = t;
    if (s.ever_connected) ++report_.reconnects;
    s.ever_connected = true;
    if (!s.chan->write_line(spec_line_)) return;  // EOF will surface it
    // Cells reserved before the first connect (a drilled worker's).
    for (const std::uint64_t idx : s.outstanding) {
      if (!send_lease(s, idx)) return;
    }
    grant(s);
  }

  bool send_lease(Slot& s, std::uint64_t idx) {
    s.lease_sent[idx] = Clock::now();
    Message lease;
    lease.type = MessageType::kLease;
    lease.index = idx;
    return s.chan->write_line(format_message(lease));
  }

  /// Lease the next pending cell to `s`, sending it at once if the wire is
  /// up (attach sends it otherwise). False when nothing is pending or the
  /// write failed.
  bool lease_next(Slot& s) {
    // Skip queue entries a late duplicate already completed.
    while (!pending_.empty() && state_[pending_.front()] != kPending) {
      pending_.pop_front();
    }
    if (pending_.empty()) return false;
    const std::uint64_t idx = pending_.front();
    pending_.pop_front();
    state_[idx] = kLeased;
    s.outstanding.push_back(idx);
    ++report_.leases_granted;
    return !connected(s) || send_lease(s, idx);
  }

  /// Top a worker up to kLeaseDepth outstanding leases.
  void grant(Slot& s) {
    while (connected(s) && !s.suspended &&
           s.outstanding.size() < kLeaseDepth && lease_next(s)) {
    }
  }

  void refill_all() {
    for (auto& s : slots_) {
      if (connected(s)) grant(s);
    }
  }

  /// Put a slot's leases back at the FRONT of the queue in ascending
  /// order, so recovery recomputes the earliest missing cells first and
  /// the journal cursor unblocks soonest.
  void reclaim_leases(Slot& s) {
    std::sort(s.outstanding.begin(), s.outstanding.end());
    for (auto it = s.outstanding.rbegin(); it != s.outstanding.rend(); ++it) {
      if (state_[*it] == kLeased) {
        state_[*it] = kPending;
        pending_.push_front(*it);
        ++report_.reassignments;
        stranded_ = true;
      }
    }
    s.outstanding.clear();
    s.lease_sent.clear();
  }

  /// The wire died. Pipes cannot come back — that is a death. A socket
  /// worker whose process (or remote peer) may still be alive gets a
  /// reconnect window; its leases are reassigned NOW (someone else can
  /// run them; a duplicate result is discarded by cell state).
  void on_disconnect(Slot& s) {
    drop_chan(s);
    reclaim_leases(s);
    if (socket_mode_ && !s.dead && (s.proc_alive || s.external)) {
      s.awaiting = true;
      s.awaiting_deadline = Clock::now() + window_dur();
      s.suspended = false;
      return;
    }
    finalize_death(s, Departure::kUnexpected);
  }

  void finalize_death(Slot& s, Departure kind) {
    if (s.dead) return;
    drop_chan(s);
    reclaim_leases(s);
    if (s.proc_alive) {
      if (kind == Departure::kUnexpected) ::kill(s.pid, SIGKILL);
      reap(s, true);
    }
    s.awaiting = false;
    s.suspended = false;
    s.dead = true;
    if (kind == Departure::kUnexpected) {
      ++report_.workers_died;
    } else {
      ++report_.workers_departed;
    }
  }

  /// Nonblocking reap. A reaped process that was awaiting a reconnect is
  /// done for good; one with a live wire drains to EOF first (its last
  /// bytes may still sit in the socket).
  void reap_children() {
    for (auto& s : slots_) {
      if (!s.proc_alive || !reap(s, false)) continue;
      if (!connected(s) && !s.dead) finalize_death(s, Departure::kUnexpected);
    }
  }

  // ---- protocol --------------------------------------------------------

  void advance_journal() {
    while (next_journal_ < n_ && state_[next_journal_] == kDone) {
      const ShardCellOutcome& out = report_.cells[next_journal_];
      if (!out.from_journal && out.status.is_ok() &&
          opts_.journal != nullptr) {
        // A checkpoint write failure does not invalidate the computed
        // cell; it only costs re-execution on a future resume.
        (void)opts_.journal->record(keys_[next_journal_], out.replications);
      }
      ++next_journal_;
    }
  }

  /// Chaos: SIGKILL a worker that is mid-lease. Death is then observed via
  /// the normal EOF/reap path — the coordinator takes no shortcut, which
  /// is the point of the drill.
  void maybe_chaos_kill() {
    if (opts_.chaos_kill_after < 0 || report_.workers_killed > 0) return;
    if (results_received_ <
        static_cast<std::uint64_t>(opts_.chaos_kill_after)) {
      return;
    }
    for (auto& s : slots_) {
      if (connected(s) && s.proc_alive && !s.outstanding.empty()) {
        ::kill(s.pid, SIGKILL);
        ++report_.workers_killed;
        return;
      }
    }
  }

  /// One message from a bound worker. Returns false when the slot was
  /// finalized (departed or killed) — the caller must drop its remaining
  /// drained lines.
  bool handle_message(Slot& s, const Message& msg) {
    s.last_heard_ = Clock::now();
    s.suspended = false;  // it speaks; grants may resume

    switch (msg.type) {
      case MessageType::kHello:
        if (!s.hello_counted) {
          report_.worker_cache_builds += msg.cache_builds;
          report_.worker_cache_maps += msg.cache_maps;
          s.hello_counted = true;
        }
        grant(s);
        return true;
      case MessageType::kPong:
        // The PONG may be what lifts a post-expiry suspension: top the
        // worker back up or it idles forever with work still pending.
        grant(s);
        return true;
      case MessageType::kBye:
        // A clean departure (SIGTERM, depart-after drill): not a death.
        finalize_death(s, Departure::kClean);
        return false;
      case MessageType::kResult:
      case MessageType::kFail:
        break;
      default:
        return true;  // coordinator verbs echoed back: ignore
    }

    const std::uint64_t idx = msg.index;
    if (idx >= n_) {
      finalize_death(s, Departure::kUnexpected);  // garbage index: killed
      return false;
    }
    // Clear the sender's bookkeeping BEFORE the duplicate check, so a
    // duplicate (reconnect replay, reclaimed lease finishing twice) can
    // never pin a stale entry in `outstanding` and starve the worker.
    const auto sent = s.lease_sent.find(idx);
    if (obs::enabled() && sent != s.lease_sent.end()) {
      static obs::HistogramMetric& lease_hist = obs::registry().histogram(
          "netsample_shard_lease_seconds", obs::duration_bin_edges(),
          obs::Determinism::kNondeterministic);
      lease_hist.observe(
          std::chrono::duration<double>(Clock::now() - sent->second).count());
    }
    if (sent != s.lease_sent.end()) s.lease_sent.erase(sent);
    s.outstanding.erase(
        std::remove(s.outstanding.begin(), s.outstanding.end(), idx),
        s.outstanding.end());
    if (state_[idx] == kDone) {
      grant(s);
      return true;  // duplicate: discarded, never re-committed
    }

    ShardCellOutcome& out = report_.cells[idx];
    if (msg.type == MessageType::kResult) {
      std::vector<core::DisparityMetrics> reps;
      if (!exper::decode_replications(msg.text, &reps)) {
        // Torn or corrupt payload: the worker is dead to us and the cell
        // is recomputed elsewhere — a partial row must never be accepted,
        // let alone journaled.
        state_[idx] = kPending;
        pending_.push_front(idx);
        ++report_.reassignments;
        finalize_death(s, Departure::kUnexpected);
        return false;
      }
      out.status = Status::ok();
      out.replications = std::move(reps);
    } else {
      out.status = Status(msg.code, msg.text);
    }
    state_[idx] = kDone;
    ++done_count_;
    ++results_received_;
    // Another slot may hold a lease on this cell (it was reassigned and
    // the original still delivered). Drop those now; their late RESULT
    // will be discarded as a duplicate.
    for (auto& other : slots_) {
      if (&other == &s) continue;
      other.lease_sent.erase(idx);
      other.outstanding.erase(
          std::remove(other.outstanding.begin(), other.outstanding.end(),
                      idx),
          other.outstanding.end());
    }
    advance_journal();
    maybe_chaos_kill();
    grant(s);
    return true;
  }

  /// Drained lines from a bound slot: strict-parse each; garbage means the
  /// worker is treated as dead, exactly as a kill.
  void handle_slot_lines(Slot& s, const std::vector<std::string>& lines) {
    for (const auto& line : lines) {
      if (s.dead) return;
      if (line.empty()) continue;
      Message msg;
      if (!parse_message(line, &msg)) {
        finalize_death(s, Departure::kUnexpected);
        return;
      }
      if (!handle_message(s, msg)) return;
    }
  }

  /// First line on an accepted socket must be HELLO; the pid is the
  /// worker's identity and binds the wire to its slot (reconnect) or to a
  /// fresh external slot. Remaining drained lines (a replay burst rides
  /// the same packet) are fed to the bound slot.
  void bind_pending(std::unique_ptr<Transport> chan,
                    std::vector<std::string> lines) {
    Message hello;
    if (!parse_message(lines.front(), &hello) ||
        hello.type != MessageType::kHello) {
      chan->close();
      return;  // not a worker; drop the connection
    }
    const auto pid = static_cast<pid_t>(hello.pid);
    std::size_t si = 0;
    while (si < slots_.size() && (slots_[si].dead || slots_[si].pid != pid)) {
      ++si;
    }
    if (si == slots_.size()) {
      slots_.push_back(Slot{});
      slots_.back().pid = pid;
      slots_.back().external = true;
    }
    attach(si, std::move(chan));
    handle_message(slots_[si], hello);
    lines.erase(lines.begin());
    handle_slot_lines(slots_[si], lines);
  }

  // ---- readiness -------------------------------------------------------
  // One callback per watched fd, in both the run loop and the shutdown
  // drain; `stopping_` is what tells the two apart.

  void on_accept() {
    while (auto conn = listener_.accept_connection()) {
      if (stopping_) {
        // A straggler mid-redial: greet it with STOP so it exits.
        (void)conn->write_line(stop_line());
        conn->shutdown_write();
      }
      pending_conns_.push_back(
          PendingConn{std::move(conn), Clock::now() + window_dur()});
      const auto it = std::prev(pending_conns_.end());
      loop_.add(it->chan->poll_fd(), [this, it] { on_pending_readable(it); });
    }
  }

  void on_pending_readable(std::list<PendingConn>::iterator it) {
    std::vector<std::string> lines;
    const ReadResult r = it->chan->drain(&lines);
    if (lines.empty() || stopping_) {
      if (r == ReadResult::kClosed) close_pending(it);
      return;
    }
    loop_.remove(it->chan->poll_fd());
    std::unique_ptr<Transport> chan = std::move(it->chan);
    pending_conns_.erase(it);
    bind_pending(std::move(chan), std::move(lines));
  }

  void on_slot_readable(std::size_t si) {
    Slot& s = slots_[si];
    std::vector<std::string> lines;
    const ReadResult r = s.chan->drain(&lines);
    if (!stopping_) handle_slot_lines(s, lines);
    if (r != ReadResult::kClosed || s.dead) return;
    if (stopping_) {
      drop_chan(s);
    } else {
      on_disconnect(s);
    }
  }

  // ---- timers ----------------------------------------------------------

  Clock::duration window_dur() const { return secs(window_); }

  /// Fire every due timer (heartbeats, liveness, lease expiry, probation,
  /// reconnect windows, handshake deadlines) and return the next one's
  /// deadline (none pending: nullopt).
  std::optional<Clock::time_point> fire_timers() {
    const auto t = Clock::now();
    std::optional<Clock::time_point> next;
    const auto consider = [&](Clock::time_point d) {
      if (!next.has_value() || d < *next) next = d;
    };
    bool refill = false;

    for (auto& s : slots_) {
      if (s.dead) continue;
      if (s.awaiting) {
        if (t >= s.awaiting_deadline) {
          finalize_death(s, Departure::kUnexpected);
        } else {
          consider(s.awaiting_deadline);
        }
        continue;
      }
      if (!connected(s)) continue;

      if (hb_ > 0) {
        auto next_ping = s.last_ping_ + secs(hb_);
        if (t >= next_ping) {
          Message ping;
          ping.type = MessageType::kPing;
          ping.index = ping_seq_++;
          s.last_ping_ = t;
          ++report_.pings_sent;
          if (!s.chan->write_line(format_message(ping))) {
            on_disconnect(s);
            continue;
          }
          next_ping = t + secs(hb_);
        }
        consider(next_ping);
        if (s.outstanding.empty()) {
          // Idle liveness: a worker with nothing to compute answers PINGs
          // from its blocking read; 4 periods of silence is a half-open
          // wire. Busy workers are governed by the lease timeout instead.
          const auto deadline = s.last_heard_ + secs(4.0 * hb_);
          if (t >= deadline) {
            on_disconnect(s);
            continue;
          }
          consider(deadline);
        }
      }

      if (lt_ > 0) {
        std::vector<std::uint64_t> expired;
        for (const auto& [idx, sent] : s.lease_sent) {
          if (state_[idx] == kLeased && t >= sent + secs(lt_)) {
            expired.push_back(idx);
          }
        }
        if (!expired.empty()) {
          std::sort(expired.begin(), expired.end());
          for (auto it = expired.rbegin(); it != expired.rend(); ++it) {
            state_[*it] = kPending;
            pending_.push_front(*it);
            ++report_.reassignments;
            ++report_.leases_expired;
            s.lease_sent.erase(*it);
            s.outstanding.erase(std::remove(s.outstanding.begin(),
                                            s.outstanding.end(), *it),
                                s.outstanding.end());
          }
          // Stalled-but-connected: reclaimed, suspended from new grants,
          // and on a probation clock — still silent one timeout later
          // means the worker is hopeless, not slow.
          s.suspended = true;
          s.probation_deadline = t + secs(lt_);
          refill = true;
        }
        for (const auto& [idx, sent] : s.lease_sent) {
          (void)idx;
          consider(sent + secs(lt_));
        }
        if (s.suspended) {
          if (t >= s.probation_deadline) {
            finalize_death(s, Departure::kUnexpected);
            continue;
          }
          consider(s.probation_deadline);
        }
      }
    }

    for (auto it = pending_conns_.begin(); it != pending_conns_.end();) {
      if (t >= it->deadline) {
        it = close_pending(it);
      } else {
        consider(it->deadline);
        ++it;
      }
    }

    if (refill) refill_all();
    return next;
  }

  // ---- shutdown --------------------------------------------------------

  static std::string stop_line() {
    Message stop;
    stop.type = MessageType::kStop;
    return format_message(stop);
  }

  /// Orderly shutdown: STOP every connected worker, keep accepting and
  /// STOPping redialing stragglers, drain BYEs to EOF, reap everything —
  /// with a hard deadline after which survivors are SIGKILL'd.
  void shutdown_workers() {
    stopping_ = true;
    // A worker still inside its reconnect window lost its wire mid-grid.
    // Whether that was a death is settled by how it exits, however fast the
    // survivors finished the grid meanwhile.
    std::vector<bool> lost(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      lost[i] = s.awaiting && !s.dead && s.proc_alive;
      s.awaiting = false;
      if (connected(s)) {
        (void)s.chan->write_line(stop_line());
        s.chan->shutdown_write();
      }
    }
    for (auto& pc : pending_conns_) {
      (void)pc.chan->write_line(stop_line());
      pc.chan->shutdown_write();
    }

    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      bool any_proc = false;
      bool any_without_pidfd = false;
      for (auto& s : slots_) {
        if (!s.proc_alive || reap(s, false)) continue;
        any_proc = true;
        any_without_pidfd = any_without_pidfd || s.pidfd < 0;
      }
      if (!any_proc) break;
      // Sleep until a wire speaks, a worker exits or the deadline passes;
      // without pidfds (kernels before pidfd_open), exits are only noticed
      // on a short tick.
      const auto wake_at =
          any_without_pidfd
              ? std::min(deadline, Clock::now() + std::chrono::milliseconds(50))
              : deadline;
      if (!loop_.wait(wake_at)) break;
    }

    for (auto& s : slots_) {
      if (s.proc_alive) {
        ::kill(s.pid, SIGKILL);
        reap(s, true);
      }
      drop_chan(s);
    }
    for (auto it = pending_conns_.begin(); it != pending_conns_.end();) {
      it = close_pending(it);
    }
    if (listener_.fd() >= 0) loop_.remove(listener_.fd());
    listener_.close();
    for (std::size_t i = 0; i < lost.size(); ++i) {
      const int st = slots_[i].wait_status;
      if (lost[i] && !(WIFEXITED(st) && WEXITSTATUS(st) == 0)) {
        ++report_.workers_died;
      }
    }
  }

  // ---- members ---------------------------------------------------------

  const SweepSpec& spec_;
  const CoordinatorOptions& opts_;
  const bool socket_mode_;
  const double hb_;
  const double lt_;
  const double window_;

  std::size_t n_{0};
  std::vector<std::string> keys_;
  std::vector<CellState> state_;
  std::deque<std::uint64_t> pending_;
  std::size_t done_count_{0};
  std::size_t next_journal_{0};
  ShardReport report_;
  std::string spec_line_;
  std::string listen_addr_;
  Listener listener_;
  std::vector<Slot> slots_;
  std::list<PendingConn> pending_conns_;
  util::EventLoop loop_;
  bool stopping_{false};  // shutdown_workers() has begun
  int respawns_left_{0};
  bool first_spawn_done_{false};
  bool stranded_{false};  // a death or departure left leases to recompute
  std::uint64_t results_received_{0};
  std::uint64_t ping_seq_{0};
};

StatusOr<ShardReport> Coordinator::run() {
  if (opts_.workers < 1) {
    return Status(StatusCode::kInvalidArgument,
                  "coordinator: --workers must be >= 1");
  }
  // A worker death between our poll() and our write() must surface as
  // EPIPE, not kill the coordinator.
  std::signal(SIGPIPE, SIG_IGN);

  // Opening the store here both validates it before any process is spawned
  // and provides the grid geometry (keys embed the interval length).
  StoreBackend& backend = store_backend(opts_.backend);
  auto opened = TraceStore::open(opts_.store_path, backend);
  if (!opened.has_value()) return opened.status();
  const TraceStore store = std::move(*opened);

  const std::vector<exper::GridTask> grid = build_grid(
      spec_, store.view(), store.mean_interarrival_usec(), &store.cache());
  n_ = grid.size();
  keys_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    keys_[i] = grid_journal_key(grid[i], spec_.base_seed);
  }

  report_.cells.resize(n_);
  state_.assign(n_, kPending);

  // Journal replay, exactly as ParallelRunner::run: already-committed cells
  // never reach a worker.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::vector<core::DisparityMetrics>* reps =
        opts_.journal != nullptr ? opts_.journal->find(keys_[i]) : nullptr;
    if (reps != nullptr) {
      report_.cells[i].status = Status::ok();
      report_.cells[i].replications = *reps;
      report_.cells[i].from_journal = true;
      state_[i] = kDone;
      ++done_count_;
    } else {
      pending_.push_back(i);
    }
  }

  if (obs::enabled()) {
    auto& reg = obs::registry();
    static obs::Counter& cells_total =
        reg.counter("netsample_shard_cells_total");
    static obs::Counter& replayed =
        reg.counter("netsample_shard_cells_from_journal_total");
    cells_total.add(n_);
    replayed.add(done_count_);
  }

  advance_journal();
  if (done_count_ == n_) return std::move(report_);  // served from journal

  Message spec_msg;
  spec_msg.type = MessageType::kSpec;
  spec_msg.text = encode_sweep_spec(spec_);
  spec_line_ = format_message(spec_msg);

  if (socket_mode_) {
    auto listener = Listener::open(opts_.listen);
    if (!listener.has_value()) return listener.status();
    listener_ = std::move(*listener);
    listen_addr_ = listener_.address();
    loop_.add(listener_.fd(), [this] { on_accept(); });
  }

  slots_.resize(static_cast<std::size_t>(opts_.workers));
  respawns_left_ = opts_.max_respawns;
  for (std::size_t si = 0; si < slots_.size(); ++si) {
    if (!spawn_into(si)) {
      return Status(StatusCode::kInternal,
                    std::string("coordinator: cannot spawn worker: ") +
                        std::strerror(errno));
    }
  }
  refill_all();

  // Event loop: results, failures, deaths, reconnects, timers.
  while (done_count_ < n_) {
    reap_children();
    const std::optional<Clock::time_point> next_timer = fire_timers();

    // If pending work has nowhere to run, respawn or give up. Work a death
    // stranded counts even if a survivor already took it, so whether a
    // lost worker is replaced does not depend on which wire was read first.
    while ((!pending_.empty() || stranded_) &&
           capacity() < static_cast<std::size_t>(opts_.workers) &&
           respawns_left_ > 0) {
      --respawns_left_;
      bool spawned = false;
      for (std::size_t si = 0;
           si < std::min(slots_.size(),
                         static_cast<std::size_t>(opts_.workers));
           ++si) {
        if (slots_[si].dead) {
          spawned = spawn_into(si);
          break;
        }
      }
      if (!spawned) break;
      refill_all();
    }
    stranded_ = false;
    if (capacity() == 0 && pending_conns_.empty() && done_count_ < n_) {
      // No workers and no way to make more: quarantine what's left.
      for (std::size_t i = 0; i < n_; ++i) {
        if (state_[i] != kDone) {
          report_.cells[i].status =
              Status(StatusCode::kInternal,
                     "coordinator: no live workers (respawn budget spent)");
          state_[i] = kDone;
          ++done_count_;
        }
      }
      break;
    }
    if (done_count_ == n_) break;

    if (!loop_.wait(next_timer)) {
      return Status(StatusCode::kInternal,
                    std::string("coordinator: poll: ") + std::strerror(errno));
    }
  }

  shutdown_workers();

  if (obs::enabled()) {
    auto& reg = obs::registry();
    using obs::Determinism;
    static obs::Counter& leases = reg.counter(
        "netsample_shard_leases_total", Determinism::kNondeterministic);
    static obs::Counter& reassigned = reg.counter(
        "netsample_shard_reassignments_total", Determinism::kNondeterministic);
    static obs::Counter& spawned = reg.counter(
        "netsample_shard_workers_spawned_total",
        Determinism::kNondeterministic);
    static obs::Counter& died = reg.counter(
        "netsample_shard_workers_died_total", Determinism::kNondeterministic);
    static obs::Counter& departed = reg.counter(
        "netsample_shard_workers_departed_total",
        Determinism::kNondeterministic);
    static obs::Counter& expired = reg.counter(
        "netsample_shard_leases_expired_total",
        Determinism::kNondeterministic);
    static obs::Counter& reconnects = reg.counter(
        "netsample_shard_reconnects_total", Determinism::kNondeterministic);
    static obs::Counter& pings = reg.counter(
        "netsample_shard_pings_total", Determinism::kNondeterministic);
    static obs::Gauge& builds = reg.gauge(
        "netsample_shard_worker_cache_builds", Determinism::kNondeterministic);
    leases.add(report_.leases_granted);
    reassigned.add(report_.reassignments);
    spawned.add(report_.workers_spawned);
    died.add(report_.workers_died);
    departed.add(report_.workers_departed);
    expired.add(report_.leases_expired);
    reconnects.add(report_.reconnects);
    pings.add(report_.pings_sent);
    builds.set(static_cast<double>(report_.worker_cache_builds));
  }
  return std::move(report_);
}

}  // namespace

StatusOr<ShardReport> run_sharded_sweep(const SweepSpec& spec,
                                        const CoordinatorOptions& opts) {
  Coordinator coordinator(spec, opts);
  return coordinator.run();
}

}  // namespace netsample::shard
