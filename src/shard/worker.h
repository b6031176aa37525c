// The worker half of a sharded sweep: a stateless lease executor.
//
// A worker opens the shared TraceStore read-only through a StoreBackend
// (mmap by default — zero re-binning, zero private copies of the
// population), rebuilds the deterministic cell grid from the SPEC message,
// and then runs whatever grid indices the coordinator leases to it,
// answering each with the cell's replication metrics in the journal's
// bit-exact hexfloat codec. It keeps NO durable state: the coordinator owns
// the journal, so a worker can be SIGKILL'd at any instant and the sweep
// still completes exactly-once.
//
// Three entry points share one loop:
//   - run_worker(opts, in, out): pipes/stdio — the body of a fork-only
//     child and of `netsample worker` without --connect;
//   - run_worker(opts, transport): any Transport (tests, custom wires);
//   - run_socket_worker(opts): dial --connect HOST:PORT, with automatic
//     reconnection — capped exponential backoff + jitter, an idempotent
//     re-HELLO, and a bounded replay of the most recent RESULT lines so a
//     reply that died with the connection still reaches the coordinator
//     (which dedupes; a replayed cell is never committed twice).
//
// Failure behavior on the worker side of the model:
//   - SIGTERM: finish or abandon the in-flight read, send BYE, exit clean
//     (the coordinator logs a departure, not a death);
//   - wire lost in socket mode: redial within the retry budget, re-HELLO,
//     replay unacknowledged results, continue; budget exhausted is
//     kInternal (exit 70);
//   - wire lost in pipe mode: there is nothing to redial — orderly EOF
//     shutdown exactly as before.
#pragma once

#include <cstdio>
#include <string>

#include "util/status.h"

namespace netsample::shard {

class Transport;

struct WorkerOptions {
  std::string store_path;
  std::string backend{"mmap"};
  /// Deterministic chaos hook: once this many RESULTs are sent, die with
  /// _exit(137) when the next LEASE arrives — no flush, no unwind,
  /// indistinguishable from SIGKILL to the coordinator, and always holding
  /// an unreported lease. < 0 disables. Resume/reassignment tests script
  /// kills at exact points with this.
  int die_after_cells{-1};
  /// Clean-departure chaos hook: once this many RESULTs are sent, behave
  /// exactly like a SIGTERM when the next LEASE arrives — send BYE and
  /// return OK. < 0 disables.
  int depart_after_cells{-1};
  /// Socket mode (run_socket_worker): coordinator address to dial.
  std::string connect;
  /// Redial attempts after a lost connection (socket mode).
  int connect_retries{5};
  /// Optional wire-impairment schedule (faultsim netfault codec, e.g.
  /// "seed=7,drop=0.1"); empty = clean wire. Applied on the worker side of
  /// every connection, including redials (the schedule persists).
  std::string netfault;
};

/// Speak the worker protocol over `in`/`out` until STOP or EOF. Returns OK
/// on a clean shutdown; a store that fails validation returns its open()
/// status (kDataLoss for corrupt/truncated/mismatched stores, kNotFound for
/// a missing file) before any message is exchanged. Throws
/// std::invalid_argument for an unknown backend name.
[[nodiscard]] Status run_worker(const WorkerOptions& opts, std::FILE* in,
                                std::FILE* out);

/// Same loop over an arbitrary transport (no reconnection).
[[nodiscard]] Status run_worker(const WorkerOptions& opts,
                                Transport& transport);

/// Dial opts.connect and run the loop with reconnection (see above).
[[nodiscard]] Status run_socket_worker(const WorkerOptions& opts);

}  // namespace netsample::shard
