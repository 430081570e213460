#pragma once
/// \file solver_pool.hpp
/// The solver-pool service layer: N long-lived worker slots serving a
/// queue of independent Boolean-relation solve requests.
///
/// `ParallelEngine` parallelizes one solve across workers;  the pool is
/// the complementary shape the ROADMAP's service north-star needs — many
/// concurrent *solves*, each handled serially by one worker, with state
/// that outlives any single request:
///
///   ownership rules (see DESIGN.md §service layer)
///   -----------------------------------------------
///   - each worker slot owns a persistent `BddManager`, reused across
///     every request the slot serves; nothing of a slot is ever touched
///     by another thread (the manager is bound to the worker thread for
///     the pool's lifetime);
///   - requests enter as *text* (the `.br`/`.bdd` relation formats) and
///     results leave as `PoolResult` — a manager-independent
///     `PortableSolution` (rank-mapped serialized BDDs) — so no handle
///     of a slot manager ever crosses the pool boundary;
///   - the cross-request state is the shared `GlobalMemo`, a cache of
///     whole answers keyed by the canonical serialized relation form: any
///     worker, in any manager, at any variable offset, is served the
///     answer another worker (or itself, requests ago) returned for the
///     same relation.  A hit imports the memoized solution via the
///     transfer layer instead of re-exploring — a warm re-solve of an
///     identical relation explores zero nodes.
///
/// Manager lifetime across solves: the request's handles die when the
/// request finishes, and the slot then RECYCLES its whole variable block
/// (BddManager::reset_variables): every node is freed and num_vars drops
/// to zero — so each request parses into variables 0..width-1 and a
/// slot's variable count stays bounded by the widest single request it
/// ever served, however long the pool lives (PoolResult::manager_num_vars
/// witnesses this; rank-table construction stays O(request width)).
/// Cross-request reuse flows exclusively through the GlobalMemo, whose
/// entries are plain data and pin nothing.
///
/// The per-request engine configuration is fixed at pool construction
/// (`PoolOptions::solver`) — one objective, one mode — which is exactly
/// the comparability contract the memo's fingerprint enforces.
/// `num_workers` inside those options is ignored: each request runs the
/// serial engine (cross-request throughput is the pool's parallelism).
///
/// Concurrency note for shared-memo users: the memo only ever holds the
/// returned answer of a solve that drained (no budget or timeout stop),
/// so an interrupted or in-flight solve can never serve a partial result
/// to another request.  Two *concurrent* solves of the same relation
/// both miss and both publish; the memo keeps the better answer (cost
/// ties broken canonically), so under a fixed configuration either one
/// reproduces what a cold solve returns.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "brel/global_memo.hpp"
#include "brel/solver.hpp"

namespace brel {

/// Pool configuration, fixed for the pool's lifetime.
struct PoolOptions {
  /// Worker slots (concurrent solves).  0 = one per hardware thread.
  std::size_t workers = 1;

  /// Engine configuration every request is solved under.  `num_workers`
  /// and `subproblem_cache` are ignored (see the file comment).  A
  /// caller-provided `global_memo` is always adopted as the pool memo
  /// (sharing warm state across pools).
  SolverOptions solver;

  /// When no memo was provided via `solver.global_memo`, create a
  /// pool-private cross-solve GlobalMemo (the warm-re-solve path);
  /// false leaves the pool memo-less.
  bool share_memo = true;

  /// Entry bound of the pool memo (entries are plain data; this caps
  /// memory, not pinned BDD nodes).
  std::size_t memo_capacity = static_cast<std::size_t>(-1);

  /// Lock shards of the pool memo (GlobalMemo's second constructor
  /// argument).  0 = auto: an unlimited memo shards
  /// GlobalMemo::kDefaultShards ways so concurrent slots probing
  /// different keys never contend; a finite memo_capacity stays on one
  /// shard for exact global-LRU semantics.  Ignored when a caller memo
  /// is adopted via `solver.global_memo` (its sharding is fixed at its
  /// construction).
  std::size_t memo_shards = 0;

  /// Totalize partial request relations (allow every output on inputs
  /// with an empty image) instead of failing them with
  /// std::invalid_argument.  Note the memo key is the *totalized*
  /// characteristic, so the same partial relation keys consistently.
  bool totalize = false;

  /// Order memory (delta_context.hpp): each slot keeps a private
  /// DeltaRegistry of the block orders its most recent solves drained
  /// with, per variable space, and seeds each request's variable order
  /// from the sifted order the slot's previous same-signature solve ended
  /// with — so repeat traffic skips the sifting ramp (reorder_swaps ≈ 0
  /// on the second solve).  Registry entries are plain rank-form data, so
  /// they survive the slot's variable-block recycling unharmed.  Works
  /// with or without a pool memo (edited requests reuse through the
  /// memo's root entries only; see global_memo.hpp).  The
  /// BREL_INCREMENTAL environment variable ("0"/"off", "1"/"on")
  /// overrides this setting (resolve_incremental).
  bool incremental = false;

  /// Persistence (memo_snapshot.hpp): restore this snapshot into
  /// the pool memo at construction (empty = cold start; a missing or
  /// partially corrupt file degrades to a partial/empty load, never a
  /// construction failure — see snapshot_info()).  Ignored without a
  /// pool memo.
  std::string memo_load_path;

  /// Write every memo entry to this path when
  /// shutdown() completes its drain (empty = no save).  The save runs
  /// AFTER the workers joined, so the snapshot contains every entry the
  /// drained requests completed.  Ignored without a pool memo.
  std::string memo_save_path;
};

/// Lifecycle facts of the pool's snapshot integration: the load
/// attempted at construction and the save attempted at shutdown.  All
/// zeros when no paths were configured (snapshot_info()).
struct MemoSnapshotInfo {
  bool load_attempted = false;
  bool load_ok = false;               ///< full file parsed clean
  std::size_t entries_loaded = 0;     ///< entries installed at start
  std::size_t entries_skipped = 0;    ///< corrupt entries skipped
  std::uint64_t loaded_saved_at = 0;  ///< snapshot's `.saved_at` header
  std::string load_error;             ///< diagnostic when !load_ok
  bool save_attempted = false;
  bool save_ok = false;
  std::size_t entries_saved = 0;  ///< entries written at shutdown
  std::string save_error;
};

/// Service class of one request, honored when a slot pops its mailbox:
/// every pending Interactive job of a mailbox is taken before any Batch
/// job (steals scan the other mailboxes in the same two passes).  Within
/// one class, FIFO order is preserved — a pool fed a single class
/// behaves exactly like the pre-priority pool.
enum class RequestPriority : std::uint8_t {
  Interactive = 0,  ///< latency-sensitive traffic, served first
  Batch = 1,        ///< throughput traffic, served when no interactive waits
};

/// Per-request options of the submit() overload below.  The plain
/// submit() is equivalent to RequestOptions{} (no deadline, Interactive).
struct RequestOptions {
  /// Absolute wall-clock deadline.  Unlike the pool-wide
  /// `SolverOptions::timeout` (which clocks each ENGINE run from its own
  /// start), the deadline covers the request's whole pool residency —
  /// queue wait included.  The worker maps whatever remains at solve
  /// start onto the existing timeout machinery (taking the minimum with
  /// a configured pool-wide timeout); a request whose deadline expired
  /// before (or while) parsing still RESOLVES its future, with
  /// `stats.budget_exhausted` set, `deadline_expired` set, and the
  /// best-so-far solution — possibly empty when no time was left to
  /// find one.  No deadline (nullopt) preserves the old behavior.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  RequestPriority priority = RequestPriority::Interactive;
};

/// Outcome of one pool request: the solution in manager-independent form
/// plus the solve statistics.  `import_pool_solution` materializes the
/// function in a caller-owned manager.
struct PoolResult {
  PortableSolution solution;  ///< outputs over input *ranks*
  double cost = 0.0;          ///< == solution.cost
  SolverStats stats;
  std::size_t worker_id = 0;  ///< slot that served the request
  /// Variable count of the serving slot's manager right after this solve
  /// — the boundedness witness of the slot-recycling scheme (it equals
  /// the REQUEST's width, not a sum over the slot's history, because the
  /// slot reclaims its whole variable block between requests).
  std::uint32_t manager_num_vars = 0;
  /// The request's RequestOptions::deadline passed before the solve ran
  /// to its natural end: either it was already spent at pickup (the
  /// solution is then empty and `cost` infinite) or the engine stopped
  /// on the mapped timeout (the solution is the best found so far).
  /// `stats.budget_exhausted` is set in both cases; this flag
  /// distinguishes a deadline stop from an ordinary exploration-budget
  /// stop, which service front ends report differently (TIMEOUT vs OK).
  bool deadline_expired = false;
  /// Time the request spent queued (submit → worker pickup), in ns.
  std::uint64_t queue_ns = 0;
};

/// Materialize `result`'s solution in `mgr` for relation `r` (the same
/// relation the request was built from, parsed into the caller's
/// manager).  The inverse of the pool's rank mapping.
[[nodiscard]] MultiFunction import_pool_solution(BddManager& mgr,
                                                 const BooleanRelation& r,
                                                 const PoolResult& result);

/// The pool.  submit() is thread-safe; futures resolve as workers finish
/// (exceptions — parse errors, ill-defined relations, fingerprint
/// mismatches — propagate through the future).  Destruction drains the
/// queue and joins the workers.
class SolverPool {
 public:
  explicit SolverPool(PoolOptions options = {});
  ~SolverPool();

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Enqueue a relation in the `.br`/`.bdd` text formats.
  [[nodiscard]] std::future<PoolResult> submit(std::string relation_text);

  /// Enqueue with per-request options: a deadline that maps onto the
  /// timeout machinery for THIS request only, and a priority class
  /// honored when slots pop their mailboxes (see RequestOptions).
  [[nodiscard]] std::future<PoolResult> submit(std::string relation_text,
                                               RequestOptions request);

  /// Convenience: serialize `r` (compact `.bdd` form, on the calling
  /// thread, touching only r's manager) and enqueue it.
  [[nodiscard]] std::future<PoolResult> submit(const BooleanRelation& r);

  /// Stop accepting work, finish everything queued, join the workers.
  /// Idempotent; later submits throw std::runtime_error.
  void shutdown();

  [[nodiscard]] std::size_t worker_count() const noexcept;
  /// The pool-wide cross-solve memo (null when share_memo is off).
  [[nodiscard]] const std::shared_ptr<GlobalMemo>& memo() const noexcept;
  /// Requests fully served (successfully or exceptionally) so far.
  [[nodiscard]] std::uint64_t requests_served() const;
  /// Snapshot lifecycle facts: what the construction-time load
  /// installed and (after shutdown) what the drain-time save wrote.
  [[nodiscard]] MemoSnapshotInfo snapshot_info() const;
  /// Requests accepted but not yet picked up by a slot — the mailbox
  /// backlog a service front end feeds its admission control with
  /// (in-flight solves are not counted; track accepted-minus-answered
  /// on the caller side for the full residency figure).
  [[nodiscard]] std::size_t queue_depth() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace brel
