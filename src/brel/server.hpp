#pragma once
/// \file server.hpp
/// Socket service front end over SolverPool: the network face of the
/// ROADMAP's "serve heavy traffic" north star.
///
/// The `.bdd` wire format (requests) and the manager-independent
/// `PoolResult` (responses, as write_portable_solution text) were already
/// the right service boundary — this layer adds the listener and the
/// production trimmings around it:
///
///   - **framing**: every message is a 4-byte big-endian length prefix
///     followed by that many payload bytes.  Requests carry a one-line
///     text header (`SOLVE`, `STATS`, `PING`) optionally followed by a
///     body; responses carry a one-line status header (`OK`, `TIMEOUT`,
///     `BUSY`, `SHUTDOWN`, `ERROR`) plus a body.  Malformed or oversized
///     frames get an `ERROR` reply and the connection SURVIVES (the
///     oversized payload is drained to stay in sync);
///   - **per-request deadlines**: `SOLVE deadline_ms=N` becomes a
///     `RequestOptions::deadline`, which the pool maps onto the engine's
///     timeout machinery for that request alone.  A deadline-expired
///     request answers a `TIMEOUT` frame carrying the best-so-far
///     solution (possibly empty) — never a dropped connection;
///   - **admission control / backpressure**: at most `max_pending`
///     requests may be resident (accepted, not yet answered).  Past the
///     bound the server replies `BUSY` *immediately* instead of queueing
///     unboundedly, and keeps shedding until residency falls back to
///     `resume_pending` (the low watermark) — plain hysteresis, so a
///     saturating burst cannot make admission flap;
///   - **priorities**: `SOLVE priority=batch` requests yield the pool
///     mailboxes to interactive traffic (RequestPriority);
///   - **graceful drain**: begin_drain() (wired to SIGTERM/SIGINT by the
///     brel_server tool) stops accepting connections and frames; every
///     request accepted before the drain is answered through the pool's
///     airtight mailbox-close/stop ordering, then wait() returns.  A
///     frame arriving during the drain gets a `SHUTDOWN` reply, which is
///     a *rejection*, not a lost answer — accepted == answered holds;
///   - **metrics**: a `STATS` request (or any connection to the optional
///     metrics port, which needs no framing — `nc` works) returns a
///     key-value text block: queue depth, accepted / rejected / timed-out
///     counts, memo size and hit rate, reorder and delta-reuse counters,
///     lock-wait totals, and p50/p99 latency over a fixed-size ring of
///     recent requests.
///
/// Threading: one listener thread, one thread per accepted connection
/// (each connection processes its frames serially — pipelining depth 1 —
/// so per-connection replies arrive in request order), one optional
/// metrics listener.  All solver work happens inside the SolverPool; a
/// connection thread only parses headers and blocks on its future.
/// `Server` is in the library (not the tool) so the integration tests
/// and the service bench can run a real server in-process on an
/// ephemeral port.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "brel/solver_pool.hpp"

namespace brel {

/// Low-level frame I/O, shared by the server, the load generator, the
/// bench, and the integration tests.  All calls handle short reads and
/// writes; none throws.
namespace wire {

/// Outcome of read_frame.
enum class ReadStatus {
  Ok,        ///< `payload` holds one complete frame
  Eof,       ///< peer closed cleanly before a header byte arrived
  Error,     ///< socket error / peer vanished mid-frame
  Oversize,  ///< length prefix exceeded `max_bytes`; payload was drained
             ///< and the stream is still in sync (reply ERROR, continue)
};

/// Write one length-prefixed frame.  Returns false on socket error.
bool write_frame(int fd, const std::string& payload);

/// Read one length-prefixed frame into `payload`.  A frame longer than
/// `max_bytes` is read and DISCARDED so the connection stays usable
/// (ReadStatus::Oversize).  `stop` (optional) aborts the wait for a new
/// frame, but only while the connection is IDLE — a frame in flight, or
/// already buffered when the flag flipped, is still read in full (so a
/// drain answers it instead of dropping it).
ReadStatus read_frame(int fd, std::string& payload, std::size_t max_bytes,
                      const std::atomic<bool>* stop = nullptr);

/// Blocking TCP connect to host:port; -1 on failure.
int connect_tcp(const std::string& host, std::uint16_t port);

}  // namespace wire

/// Server configuration, fixed for the server's lifetime.
struct ServerOptions {
  std::string host = "127.0.0.1";  ///< bind address
  std::uint16_t port = 0;          ///< 0 = ephemeral (see Server::port())
  /// Plain-text metrics listener: every accepted connection immediately
  /// receives the STATS block and is closed.  -1 = off, 0 = ephemeral.
  int metrics_port = -1;

  /// The pool behind the listener (workers, solver options, memo, ...).
  PoolOptions pool;

  /// Admission bound (high watermark): SOLVE frames arriving while
  /// `accepted - answered >= max_pending` are rejected with BUSY.
  std::size_t max_pending = 64;
  /// Low watermark: once shedding starts, admission resumes only when
  /// residency falls to this value or below.  Defaults (when SIZE_MAX)
  /// to max_pending / 2.
  std::size_t resume_pending = static_cast<std::size_t>(-1);

  /// Frames longer than this get an ERROR reply (payload drained).
  std::size_t max_frame_bytes = 4u << 20;

  /// Deadline applied to SOLVE frames that carry none; zero = none.
  std::chrono::milliseconds default_deadline{0};

  /// Latency ring size (most recent answered requests kept for the
  /// p50/p99 estimate).  Must be > 0.
  std::size_t latency_ring = 1024;

  /// Peer exchange (memo_exchange.hpp): "host:port" of every
  /// OTHER member of the memo ring.  Empty = exchange off.  Requires a
  /// pool memo; the server also answers the `MEMO_PULL`/`MEMO_PUSH`
  /// wire verbs whenever it has one, peers configured or not.
  std::vector<std::string> memo_peers;
  /// This member's own ring identity.  Empty = "<host>:<port>" after
  /// binding — fine unless peers address this server by a different
  /// name than it binds (then every member must be told the name its
  /// peers use, or ownership would disagree across the ring).
  std::string memo_self;
  /// Deadline of one MEMO_PULL round trip (an expired pull is a miss).
  int memo_pull_timeout_ms = 250;
};

/// Point-in-time counters (STATS in struct form, for tests/benches).
struct ServerMetrics {
  std::uint64_t accepted = 0;       ///< SOLVE frames admitted to the pool
  std::uint64_t answered = 0;       ///< replies written for accepted ones
  std::uint64_t rejected_busy = 0;  ///< BUSY replies (admission control)
  std::uint64_t rejected_shutdown = 0;  ///< SHUTDOWN replies (draining)
  std::uint64_t timed_out = 0;      ///< TIMEOUT replies (deadline expired)
  std::uint64_t request_errors = 0;   ///< ERROR replies from solve failures
  std::uint64_t protocol_errors = 0;  ///< ERROR replies from bad frames
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_open = 0;
  std::size_t queue_depth = 0;  ///< pool mailbox backlog right now
  std::size_t inflight = 0;     ///< accepted - answered right now
  bool shedding = false;        ///< admission currently closed
  // Aggregates folded from answered PoolResults.
  std::uint64_t memo_hits_total = 0;
  std::uint64_t reorders = 0;
  // Latency over the ring (microseconds, frame-read to reply-written).
  std::uint64_t latency_samples = 0;  ///< answered requests ever ringed
  std::uint64_t latency_p50_us = 0;
  std::uint64_t latency_p99_us = 0;
  double uptime_seconds = 0.0;
  // Memo snapshot and peer surface (zeros when not configured).
  std::uint64_t snapshot_entries_loaded = 0;  ///< installed at start
  std::uint64_t snapshot_entries_saved = 0;   ///< nonzero after the drain
  std::uint64_t snapshot_age_seconds = 0;  ///< now − loaded `.saved_at`
  std::uint64_t memo_hits_run = 0;       ///< served by this process's runs
  std::uint64_t memo_hits_snapshot = 0;  ///< served by restored entries
  std::uint64_t memo_hits_peer = 0;      ///< served by pulled/pushed entries
  std::uint64_t peer_pulls = 0;          ///< MEMO_PULL round trips sent
  std::uint64_t peer_pull_hits = 0;
  std::uint64_t peer_pull_failures = 0;
  std::uint64_t peer_pushes = 0;  ///< MEMO_PUSH frames delivered
  std::uint64_t peer_push_failures = 0;
  std::uint64_t peer_push_dropped = 0;
  std::uint64_t peer_pulls_served = 0;     ///< MEMO_PULL answered OK here
  std::uint64_t peer_pushes_received = 0;  ///< MEMO_PUSH installed here
};

/// The service.  Construct, start(), then begin_drain() + wait() to shut
/// down (the destructor drains too).  Thread-safe: begin_drain() and the
/// metrics accessors may be called from any thread.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, spawn the listener thread(s).  Throws
  /// std::runtime_error when a socket cannot be bound.
  void start();

  /// Actual listening port (resolves ephemeral port 0 after start()).
  [[nodiscard]] std::uint16_t port() const noexcept;
  /// Actual metrics port (0 when the metrics listener is off).
  [[nodiscard]] std::uint16_t metrics_port() const noexcept;

  /// Stop accepting connections and frames; in-flight requests keep
  /// running to their answers.  Idempotent, callable from any thread
  /// (but not from a signal handler — flip an atomic there and call
  /// this from the main loop, as tools/brel_server.cpp does).
  void begin_drain();

  /// Block until every connection thread exited and the pool drained.
  /// Implies begin_drain() has been (or is) called; returns immediately
  /// when the server never started.
  void wait();

  [[nodiscard]] ServerMetrics metrics() const;
  /// The STATS response body (key value per line), also served on the
  /// metrics port.
  [[nodiscard]] std::string stats_text() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace brel
