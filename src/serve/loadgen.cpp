#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"
#include "shard/transport.h"

namespace netsample::serve {

namespace {

using Clock = std::chrono::steady_clock;

enum class Phase { kPending, kOpened, kRejected, kShed, kClosed };

struct SessionState {
  std::string id;
  std::size_t group{0};
  std::size_t connection{0};
  Phase phase{Phase::kPending};
  std::vector<std::string> rows;  // payload after "ROWS <id> "
  Clock::time_point close_sent{};
  double latency_ms{-1};
};

/// Everything the reader threads share with the driver. One mutex for the
/// whole drill keeps the logic obvious; with thousands of sessions the
/// contended section is a map lookup plus a string move.
struct Shared {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<SessionState> sessions;
  std::unordered_map<std::string, SessionState*> by_id;
  std::size_t open_connections{0};
  std::string wire_error;  // first ERROR line seen (diagnostic)
};

/// Parse one server line into the session state table.
void on_server_line(Shared& shared, const std::string& line) {
  const std::size_t sp1 = line.find(' ');
  const std::string verb = line.substr(0, sp1);
  std::lock_guard<std::mutex> lock(shared.mu);
  if (verb == "ERROR" || verb == "STATS") {
    if (verb == "ERROR" && shared.wire_error.empty()) shared.wire_error = line;
    return;
  }
  if (sp1 == std::string::npos) return;
  const std::size_t sp2 = std::min(line.find(' ', sp1 + 1), line.size());
  const std::string id = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const auto it = shared.by_id.find(id);
  if (it == shared.by_id.end()) return;
  SessionState& s = *it->second;
  if (verb == "OPENED") {
    s.phase = Phase::kOpened;
  } else if (verb == "REJECT") {
    s.phase = Phase::kRejected;
  } else if (verb == "ROWS") {
    if (sp2 < line.size()) s.rows.push_back(line.substr(sp2 + 1));
    return;  // not a phase change; no need to wake the driver
  } else if (verb == "SHED") {
    s.phase = Phase::kShed;
  } else if (verb == "CLOSED") {
    s.phase = Phase::kClosed;
    if (s.close_sent != Clock::time_point{}) {
      s.latency_ms = std::chrono::duration<double, std::milli>(
                         Clock::now() - s.close_sent)
                         .count();
    }
  } else {
    return;
  }
  shared.cv.notify_all();
}

void reader_loop(Shared& shared, shard::Transport& transport) {
  std::string line;
  for (;;) {
    const shard::ReadResult r = transport.read_line(&line);
    if (r == shard::ReadResult::kInterrupted) continue;
    if (r != shard::ReadResult::kLine) break;
    on_server_line(shared, line);
  }
  std::lock_guard<std::mutex> lock(shared.mu);
  --shared.open_connections;
  shared.cv.notify_all();
}

[[nodiscard]] bool all_out_of_phase(const Shared& shared, Phase phase) {
  return std::none_of(
      shared.sessions.begin(), shared.sessions.end(),
      [phase](const SessionState& s) { return s.phase == phase; });
}

[[nodiscard]] bool all_terminal(const Shared& shared) {
  return std::all_of(shared.sessions.begin(), shared.sessions.end(),
                     [](const SessionState& s) {
                       return s.phase != Phase::kPending &&
                              s.phase != Phase::kOpened;
                     });
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenOptions& options,
                          std::span<const trace::PacketRecord> packets) {
  LoadgenReport report;
  report.sessions = options.sessions;
  const auto fail = [&report](const std::string& why) {
    report.ok = false;
    if (report.error.empty()) report.error = why;
    return report;
  };
  if (options.sessions == 0) return fail("no sessions requested");
  if (packets.empty()) return fail("no packets to replay");
  const std::size_t connections =
      std::max<std::size_t>(1, std::min(options.connections, options.sessions));
  const std::size_t seed_groups =
      std::max<std::size_t>(1, options.seed_groups);
  const std::size_t feed_packets =
      std::max<std::size_t>(1, options.feed_packets);

  // Dial every connection before opening anything.
  std::vector<std::unique_ptr<shard::Transport>> transports;
  for (std::size_t c = 0; c < connections; ++c) {
    auto dialed = shard::dial(options.connect);
    if (!dialed.has_value()) {
      return fail("dial " + options.connect + ": " +
                  dialed.status().to_string());
    }
    transports.push_back(std::move(dialed).value());
  }

  Shared shared;
  shared.sessions.resize(options.sessions);
  for (std::size_t i = 0; i < options.sessions; ++i) {
    SessionState& s = shared.sessions[i];
    s.id = std::string("s").append(std::to_string(i));
    s.group = i % seed_groups;
    s.connection = i % connections;
  }
  for (auto& s : shared.sessions) shared.by_id.emplace(s.id, &s);
  shared.open_connections = connections;

  std::vector<std::thread> readers;
  readers.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    readers.push_back(
        std::thread([&shared, t = transports[c].get()] { reader_loop(shared, *t); }));
  }
  // From here on every exit path must unblock and join the readers.
  const auto teardown = [&] {
    for (auto& t : transports) t->shutdown_write();
    {
      std::unique_lock<std::mutex> lock(shared.mu);
      shared.cv.wait_for(lock, std::chrono::seconds(5),
                         [&] { return shared.open_connections == 0; });
    }
    for (auto& t : transports) t->close();
    for (auto& r : readers) r.join();
  };
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.timeout_s));
  const auto wait_until = [&](auto predicate) {
    std::unique_lock<std::mutex> lock(shared.mu);
    return shared.cv.wait_until(lock, deadline, [&] { return predicate(); });
  };
  const auto send = [&](std::size_t connection, const std::string& line) {
    return transports[connection]->write_line(line);
  };

  // Phase 1: OPEN everything, then wait for every verdict. All sessions
  // are genuinely concurrent before the first packet flows.
  for (const auto& s : shared.sessions) {
    SessionSpec spec = options.spec;
    spec.seed = options.spec.seed + s.group;
    if (!send(s.connection, "OPEN " + s.id + " " + encode_session_spec(spec))) {
      teardown();
      return fail("connection died during OPEN");
    }
  }
  if (!wait_until([&] {
        return all_out_of_phase(shared, Phase::kPending) ||
               shared.open_connections == 0;
      })) {
    teardown();
    return fail("timeout waiting for OPEN verdicts");
  }

  // Phase 2: round-robin FEED interleaving across all admitted sessions.
  const std::size_t chunk_count = (packets.size() + feed_packets - 1) / feed_packets;
  std::vector<std::string> payloads;
  payloads.reserve(chunk_count);
  for (std::size_t c = 0; c < chunk_count; ++c) {
    const std::size_t begin = c * feed_packets;
    const std::size_t end = std::min(begin + feed_packets, packets.size());
    payloads.push_back(
        encode_feed_payload(packets.subspan(begin, end - begin)));
  }
  for (std::size_t c = 0; c < chunk_count; ++c) {
    for (const auto& s : shared.sessions) {
      {
        std::lock_guard<std::mutex> lock(shared.mu);
        if (s.phase != Phase::kOpened) continue;
      }
      if (!send(s.connection, "FEED " + s.id + " " + payloads[c])) {
        teardown();
        return fail("connection died during FEED");
      }
    }
  }

  // Phase 3: CLOSE (unless this is the SIGTERM-drain drill) and wait for
  // every session to reach a terminal state.
  if (options.close_sessions) {
    for (auto& s : shared.sessions) {
      bool is_open = false;
      {
        std::lock_guard<std::mutex> lock(shared.mu);
        is_open = s.phase == Phase::kOpened;
        if (is_open) s.close_sent = Clock::now();
      }
      if (is_open && !send(s.connection, "CLOSE " + s.id)) {
        teardown();
        return fail("connection died during CLOSE");
      }
    }
  }
  if (!wait_until([&] { return all_terminal(shared); })) {
    teardown();
    return fail(options.close_sessions
                    ? "timeout waiting for CLOSED"
                    : "timeout waiting for the daemon drain to CLOSED us");
  }
  teardown();

  // Tally.
  std::vector<double> latencies;
  std::map<std::size_t, const SessionState*> group_reference;
  for (const auto& s : shared.sessions) {
    switch (s.phase) {
      case Phase::kClosed: ++report.completed; break;
      case Phase::kShed: ++report.shed; break;
      case Phase::kRejected: ++report.rejected; break;
      default: break;
    }
    report.rows += s.rows.size();
    if (s.latency_ms >= 0) latencies.push_back(s.latency_ms);
    if (s.phase != Phase::kClosed) continue;
    // Cross-session determinism: within a seed group every completed
    // session saw the same packets with the same spec, so the ROWS
    // payload sequences must match byte for byte.
    const auto [it, inserted] = group_reference.emplace(s.group, &s);
    if (!inserted && it->second->rows != s.rows) {
      report.deterministic = false;
      if (report.error.empty()) {
        report.error = "cross-session nondeterminism: " + s.id +
                       " rows differ from " + it->second->id;
      }
    }
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    report.max_ms = latencies.back();
    const std::size_t idx =
        std::min(latencies.size() - 1,
                 static_cast<std::size_t>(
                     std::ceil(0.99 * static_cast<double>(latencies.size())) -
                     1));
    report.p99_ms = latencies[idx];
  }
  if (!options.dump_rows_path.empty()) {
    const auto it = shared.by_id.find("s0");
    if (it == shared.by_id.end() || it->second->phase != Phase::kClosed) {
      return fail("dump-rows: session s0 did not complete");
    }
    std::ofstream out(options.dump_rows_path, std::ios::binary);
    for (const auto& row : it->second->rows) out << row << "\n";
    if (!out) return fail("dump-rows: cannot write " + options.dump_rows_path);
  }
  if (report.completed == 0) {
    return fail(shared.wire_error.empty() ? "no session completed"
                                          : shared.wire_error);
  }
  if (!report.deterministic) return report;  // error already set
  if (options.p99_ms > 0 && report.p99_ms > options.p99_ms) {
    return fail("p99 latency " + std::to_string(report.p99_ms) +
                " ms exceeds bound " + std::to_string(options.p99_ms) + " ms");
  }
  report.ok = true;
  return report;
}

}  // namespace netsample::serve
