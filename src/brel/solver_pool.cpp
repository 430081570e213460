#include "brel/solver_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "brel/lock_stats.hpp"
#include "brel/memo_snapshot.hpp"
#include "brel/parallel_engine.hpp"  // resolve_worker_count
#include "brel/search.hpp"
#include "relation/relation_io.hpp"

namespace brel {

namespace {

struct Job {
  std::string text;
  RequestOptions request;
  std::chrono::steady_clock::time_point submitted;
  std::promise<PoolResult> promise;
};

/// Number of RequestPriority classes (one deque per class per mailbox).
constexpr std::size_t kPriorityClasses = 2;

}  // namespace

MultiFunction import_pool_solution(BddManager& mgr, const BooleanRelation& r,
                                   const PoolResult& result) {
  return import_portable_solution(mgr, make_memo_space(r), result.solution);
}

/// Request distribution: instead of one mutex+condvar deque that every
/// submitter and every slot hammers, each slot owns a MAILBOX (its own
/// small mutex + deque).  submit() picks a mailbox round-robin with a
/// relaxed atomic counter — concurrent submitters land on different
/// mailboxes and never serialize behind each other — and idle slots
/// STEAL from other mailboxes before parking, so an unlucky round-robin
/// burst cannot strand work behind a slow request.  The shared sleep
/// mutex/condvar exists only for parking: the saturated (throughput)
/// path never touches it, because submit only notifies when the
/// `sleepers` count says somebody is actually asleep.
///
/// Shutdown ordering makes the drain airtight without a global lock:
/// shutdown() first CLOSES every mailbox (under its own lock — later
/// submits throw), then sets `stop`.  A slot that observes `stop` does
/// one more full scan before exiting; any job enqueued before its
/// mailbox closed happened-before the close, the close
/// sequenced-before the `stop` store, so the post-`stop` scan is
/// guaranteed to see it.  Every accepted job is therefore served.
struct SolverPool::Impl {
  struct Mailbox {
    TimedMutex mutex{lock_names::kPool};
    /// One FIFO per RequestPriority class; pops drain class 0
    /// (Interactive) before class 1 (Batch), FIFO within a class.
    std::deque<Job> jobs[kPriorityClasses];
    bool closed = false;
  };

  explicit Impl(PoolOptions options)
      : options(std::move(options)),
        workers(resolve_worker_count(this->options.workers)) {
    // Normalize the per-request engine configuration once: requests run
    // the serial engine (the pool's parallelism is across requests), a
    // raw-edge cache cannot be shared across slot managers, and the
    // pool's own memo is the cross-request channel.
    this->options.solver.num_workers = 1;
    this->options.solver.subproblem_cache = nullptr;
    // A caller-provided memo is always adopted (sharing warm state
    // across pools); share_memo only controls whether the pool creates
    // its own when none was given.  bind fails fast on a fingerprint
    // clash (e.g. a memo that served a different objective).
    memo = this->options.solver.global_memo;
    if (memo == nullptr && this->options.share_memo) {
      memo = std::make_shared<GlobalMemo>(this->options.memo_capacity,
                                          this->options.memo_shards);
    }
    if (memo != nullptr) {
      memo->bind(MemoFingerprint{
          (this->options.solver.cost ? this->options.solver.cost
                                     : sum_of_bdd_sizes())
              .id(),
          this->options.solver.exact});
    }
    this->options.solver.global_memo = memo;

    // Snapshot restore, BEFORE any worker starts: a request served after
    // construction already sees yesterday's entries.  A bad file is a
    // partial/empty load recorded in snapshot_info(), never a throw —
    // a service must come up cold rather than not at all.
    if (memo != nullptr && !this->options.memo_load_path.empty()) {
      const SnapshotLoadResult loaded =
          load_memo_snapshot(*memo, this->options.memo_load_path);
      snapshot.load_attempted = true;
      snapshot.load_ok = loaded.ok;
      snapshot.entries_loaded = loaded.entries_installed;
      snapshot.entries_skipped = loaded.entries_skipped;
      snapshot.loaded_saved_at = loaded.saved_at;
      snapshot.load_error = loaded.error;
    }

    mailboxes.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      mailboxes.push_back(std::make_unique<Mailbox>());
    }
    threads.reserve(workers);
    try {
      for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back([this, w] { worker_loop(w); });
      }
    } catch (...) {
      shutdown();  // join whoever already started before rethrowing
      throw;
    }
  }

  /// Pop the oldest job of one mailbox's priority class `cls`, if any.
  bool try_take_class(std::size_t slot, std::size_t cls, Job& out) {
    Mailbox& box = *mailboxes[slot];
    const std::scoped_lock lock(box.mutex);
    if (box.jobs[cls].empty()) {
      return false;
    }
    out = std::move(box.jobs[cls].front());
    box.jobs[cls].pop_front();
    return true;
  }

  /// Pop the oldest job of one mailbox, highest priority class first.
  bool try_take(std::size_t slot, Job& out) {
    Mailbox& box = *mailboxes[slot];
    const std::scoped_lock lock(box.mutex);
    for (std::deque<Job>& jobs : box.jobs) {
      if (!jobs.empty()) {
        out = std::move(jobs.front());
        jobs.pop_front();
        return true;
      }
    }
    return false;
  }

  /// Next job for slot `id`: sweep every mailbox (own first, then the
  /// others — the idle steal) for an Interactive job before taking any
  /// Batch job anywhere, then park.  The class-major sweep is what
  /// "priorities honored at mailbox pop" means under round-robin
  /// submission: an interactive request never waits behind another
  /// mailbox's batch backlog while any slot is free to notice it.
  /// Returns false when the pool stopped and nothing is left anywhere.
  bool acquire(std::size_t id, Job& out) {
    while (true) {
      for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
        for (std::size_t i = 0; i < workers; ++i) {
          if (try_take_class((id + i) % workers, cls, out)) {
            pending.fetch_sub(1, std::memory_order_relaxed);
            return true;
          }
        }
      }
      if (stop.load(std::memory_order_acquire)) {
        // Final drain: `stop` is only stored after every mailbox was
        // closed, so a scan made after observing it sees every job that
        // was ever accepted (see the file comment on the ordering).
        for (std::size_t s = 0; s < workers; ++s) {
          if (try_take(s, out)) {
            pending.fetch_sub(1, std::memory_order_relaxed);
            return true;
          }
        }
        return false;
      }
      // Park.  The pending/sleepers handshake with enqueue() makes the
      // lost-wakeup window benign, and the timed wait bounds even that
      // to one period.
      sleepers.fetch_add(1);
      {
        std::unique_lock lock(sleep_mutex);
        if (pending.load() == 0 && !stop.load()) {
          sleep_cv.wait_for(lock, std::chrono::milliseconds(50));
        }
      }
      sleepers.fetch_sub(1);
    }
  }

  void worker_loop(std::size_t id) {
    // The slot's persistent substrate: one manager, owned by this thread
    // for the pool's whole lifetime.
    BddManager mgr{0};
    mgr.bind_to_current_thread();
    // Order memory (PoolOptions::incremental): slot-private and
    // thread-confined like the manager, but — holding only plain
    // rank-form data — it SURVIVES the per-request variable-block
    // recycle, which is what lets a repeat request start at the order
    // the slot's previous same-signature solve sifted into.
    std::optional<DeltaRegistry> slot_registry;
    if (resolve_incremental(options.incremental)) {
      slot_registry.emplace();
    }

    while (true) {
      Job job;
      if (!acquire(id, job)) {
        return;  // stop && drained
      }
      // Counted before the promise resolves, so a caller that joined
      // every future observes the full tally.
      served.fetch_add(1);
      const auto picked_up = std::chrono::steady_clock::now();
      const std::uint64_t queue_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              picked_up - job.submitted)
              .count());
      try {
        // Deadline pre-check: a request whose deadline was spent while
        // it queued must still RESOLVE its future — skip even the parse
        // (the one potentially expensive step left) and report an
        // empty best-so-far with budget_exhausted set, exactly what the
        // engine would report had it been given zero time.
        if (job.request.deadline.has_value() &&
            picked_up >= *job.request.deadline) {
          PoolResult out;
          out.cost = std::numeric_limits<double>::infinity();
          out.stats.budget_exhausted = true;
          out.worker_id = id;
          out.manager_num_vars = mgr.num_vars();
          out.deadline_expired = true;
          out.queue_ns = queue_ns;
          job.promise.set_value(std::move(out));
          continue;
        }
        // Order persistence: when the slot remembers the sifted order a
        // previous same-signature solve ended with, seed this request's
        // variable block from it — the parse places each block variable
        // at its remembered rank (exactly as an explicit `.order` line
        // would), so repeat traffic starts where sifting left off
        // instead of re-climbing the reorder ramp.
        const std::vector<std::uint32_t>* order_hint = nullptr;
        if (slot_registry.has_value()) {
          if (const std::optional<RelationSignature> sig =
                  peek_relation_signature(job.text)) {
            order_hint = slot_registry->find_order(sig->input_ranks,
                                                   sig->output_ranks);
          }
        }
        // The slot recycled its variable block after the previous
        // request (reset_variables below), so this request parses into
        // variables 0..width-1; its handles die with this scope.
        BooleanRelation r = read_relation(mgr, job.text, order_hint);
        if (options.totalize) {
          r = r.totalized();
        }
        SolverOptions solve_options = options.solver;
        if (job.request.deadline.has_value()) {
          // Map what remains of the request deadline onto the engine's
          // timeout machinery (per request — the pool-wide setting stays
          // the ceiling when tighter).  Re-read the clock AFTER the
          // parse: the engine clocks its timeout from its own start, so
          // this is what keeps the deadline absolute.
          // Round the remainder UP: truncating would have the engine
          // stop a fraction of a millisecond BEFORE the deadline, and
          // the absolute now-vs-deadline check below would then read a
          // deadline stop as an ordinary budget stop.
          const auto remaining =
              std::chrono::ceil<std::chrono::milliseconds>(
                  *job.request.deadline - std::chrono::steady_clock::now());
          // Ceil to 1ms: timeout 0 means UNLIMITED, which would invert
          // an almost-spent deadline into no deadline at all.
          const auto budget =
              remaining > std::chrono::milliseconds(1)
                  ? remaining
                  : std::chrono::milliseconds(1);
          solve_options.timeout =
              solve_options.timeout.count() > 0
                  ? std::min(solve_options.timeout, budget)
                  : budget;
        }
        SolveResult solved = SearchEngine(r, solve_options).run();
        const MemoSpace space = make_memo_space(r);
        if (slot_registry.has_value()) {
          // Remember the POST-solve order (whatever sifting settled on)
          // for the next same-signature request.  An identity order is
          // remembered too — it clears a stale hint a later sift moved
          // away from (find_order treats empty as absent).
          slot_registry->remember_order(space.input_ranks,
                                        space.output_ranks,
                                        relation_block_order(r));
        }
        PoolResult out;
        out.solution =
            make_portable_solution(space, solved.function, solved.cost);
        out.cost = solved.cost;
        out.stats = solved.stats;
        out.worker_id = id;
        out.manager_num_vars = mgr.num_vars();
        // A deadline stop is an ordinary engine timeout whose budget
        // came from the request: the run ended with the clock past the
        // deadline.  (A run that drained naturally just inside its
        // budget ends with the clock still before it.)
        out.deadline_expired =
            job.request.deadline.has_value() && out.stats.budget_exhausted &&
            std::chrono::steady_clock::now() >= *job.request.deadline;
        out.queue_ns = queue_ns;
        job.promise.set_value(std::move(out));
      } catch (...) {
        job.promise.set_exception(std::current_exception());
      }
      // Slot recycling: the request's handles are dead past this point.
      // Reclaim the whole variable block, so num_vars stays bounded by
      // the widest single request instead of growing with every request
      // served.  reset_variables only declines when something still pins
      // a node — impossible here, but fall back to ordinary GC rather
      // than assert on a hypothetical embedder extension.
      if (!mgr.reset_variables()) {
        mgr.garbage_collect_if_needed();
      }
    }
  }

  std::future<PoolResult> enqueue(std::string text, RequestOptions request) {
    Job job;
    job.text = std::move(text);
    job.request = request;
    job.submitted = std::chrono::steady_clock::now();
    std::future<PoolResult> future = job.promise.get_future();
    const std::size_t cls =
        static_cast<std::size_t>(request.priority) < kPriorityClasses
            ? static_cast<std::size_t>(request.priority)
            : kPriorityClasses - 1;
    const std::size_t slot =
        next_slot.fetch_add(1, std::memory_order_relaxed) % workers;
    {
      Mailbox& box = *mailboxes[slot];
      const std::scoped_lock lock(box.mutex);
      if (box.closed) {
        throw std::runtime_error("SolverPool: submit after shutdown");
      }
      box.jobs[cls].push_back(std::move(job));
    }
    pending.fetch_add(1, std::memory_order_release);
    if (sleepers.load() > 0) {
      // Only parked slots cost a shared-lock touch; the saturated path
      // (sleepers == 0) never contends anything beyond its one mailbox.
      const std::scoped_lock lock(sleep_mutex);
      sleep_cv.notify_one();
    }
    return future;
  }

  void shutdown() {
    const std::scoped_lock guard(shutdown_mutex);
    if (stopped) {
      return;
    }
    stopped = true;
    // Close every mailbox BEFORE raising stop — the ordering the
    // workers' final drain scan relies on (see the file comment).
    for (const std::unique_ptr<Mailbox>& box : mailboxes) {
      const std::scoped_lock lock(box->mutex);
      box->closed = true;
    }
    stop.store(true, std::memory_order_release);
    {
      const std::scoped_lock lock(sleep_mutex);
      sleep_cv.notify_all();
    }
    for (std::thread& t : threads) {
      if (t.joinable()) {
        t.join();
      }
    }
    // Snapshot flush, AFTER the workers joined: every drained request's
    // completions are in the memo, and no publisher runs concurrently
    // with the export walk.
    if (memo != nullptr && !options.memo_save_path.empty()) {
      const std::uint64_t now_unix = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::seconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      const SnapshotSaveResult saved =
          save_memo_snapshot(*memo, options.memo_save_path, now_unix);
      const std::scoped_lock lock(snapshot_mutex);
      snapshot.save_attempted = true;
      snapshot.save_ok = saved.ok;
      snapshot.entries_saved = saved.entries;
      snapshot.save_error = saved.error;
    }
  }

  PoolOptions options;
  std::size_t workers;
  std::shared_ptr<GlobalMemo> memo;

  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::atomic<std::size_t> next_slot{0};  ///< round-robin submit cursor
  std::atomic<std::size_t> pending{0};    ///< accepted, not yet taken
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> sleepers{0};   ///< slots parked on sleep_cv
  std::mutex sleep_mutex;                 ///< parking only — never hot
  std::condition_variable sleep_cv;
  std::atomic<std::uint64_t> served{0};

  std::mutex shutdown_mutex;  ///< serializes shutdown() callers
  bool stopped = false;       ///< under shutdown_mutex

  mutable std::mutex snapshot_mutex;
  /// Under snapshot_mutex (the constructor's load writes pre-thread).
  MemoSnapshotInfo snapshot;

  std::vector<std::thread> threads;
};

SolverPool::SolverPool(PoolOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SolverPool::~SolverPool() { impl_->shutdown(); }

std::future<PoolResult> SolverPool::submit(std::string relation_text) {
  return impl_->enqueue(std::move(relation_text), RequestOptions{});
}

std::future<PoolResult> SolverPool::submit(std::string relation_text,
                                           RequestOptions request) {
  return impl_->enqueue(std::move(relation_text), request);
}

std::future<PoolResult> SolverPool::submit(const BooleanRelation& r) {
  return impl_->enqueue(write_relation_bdd(r), RequestOptions{});
}

void SolverPool::shutdown() { impl_->shutdown(); }

std::size_t SolverPool::worker_count() const noexcept {
  return impl_->workers;
}

const std::shared_ptr<GlobalMemo>& SolverPool::memo() const noexcept {
  return impl_->memo;
}

std::uint64_t SolverPool::requests_served() const {
  return impl_->served.load();
}

MemoSnapshotInfo SolverPool::snapshot_info() const {
  const std::scoped_lock lock(impl_->snapshot_mutex);
  return impl_->snapshot;
}

std::size_t SolverPool::queue_depth() const noexcept {
  return impl_->pending.load(std::memory_order_relaxed);
}

}  // namespace brel
