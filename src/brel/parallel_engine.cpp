#include "brel/parallel_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bdd/bdd_transfer.hpp"
#include "brel/lock_stats.hpp"
#include "brel/quick_solver.hpp"
#include "brel/search.hpp"

namespace brel {

namespace {

/// A subproblem in flight between two managers: plain data, no handles,
/// safe to hand across threads (see bdd_transfer.hpp).  The push-time
/// best-first candidate does not travel — the thief re-seeds the
/// priority — and neither does the quick solution, so the children of a
/// stolen node quick-solve from the table alone.  Nothing memo-related
/// travels either: the cross-solve memo is probed and published by the
/// coordinator, at the root only.
struct InjectedSubproblem {
  SerializedBdd chi;
  std::size_t depth = 0;
};

/// One donation: up to SolverOptions::steal_batch subproblems serialized
/// together, so a steal pays the transfer round trip once per SUBTREE
/// BATCH instead of once per node.
using InjectedBatch = std::vector<InjectedSubproblem>;

/// The only cross-worker state (see the ownership rules in the header).
struct SharedState {
  explicit SharedState(std::size_t worker_count) : workers(worker_count) {}

  const std::size_t workers;

  TimedMutex mutex{lock_names::kInject};  ///< guards queue / idle / done
  std::condition_variable_any work_ready;
  std::deque<InjectedBatch> queue;  ///< the injection queue (of batches)
  std::size_t idle = 0;             ///< workers blocked on the queue
  bool done = false;                ///< all idle and nothing queued

  /// Mirror of queue.size(), readable without the lock: victims size
  /// their donations against it so the build happens OUTSIDE the lock.
  std::atomic<std::size_t> queued_batches{0};

  std::atomic<std::size_t> steal_requests{0};  ///< waiting thieves
  std::atomic<std::size_t> steals{0};          ///< subproblems donated
  std::atomic<std::size_t> steal_batches{0};   ///< donation batches
  std::atomic<std::size_t> explored{0};        ///< global budget tickets
  std::atomic<bool> stop{false};               ///< budget/timeout/failure
  std::atomic<bool> budget_exhausted{false};
  /// Incumbent *bound* (best explored-candidate cost anywhere): one
  /// worker's discovery prunes every other worker's subtrees.  Costs
  /// only — the winning function stays in its worker's manager until the
  /// coordinator merges after join.
  std::atomic<double> bound{std::numeric_limits<double>::infinity()};

  /// Stop the fleet.  The flag is set under the mutex so a thief between
  /// its predicate check and its wait cannot miss the wake-up.
  void halt() {
    const std::scoped_lock lock(mutex);
    stop.store(true);
    work_ready.notify_all();
  }
};

void atomic_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

/// Result slot filled by a worker before it exits; `best` lives in the
/// worker's manager and is read by the coordinator only after join (and
/// after re-binding the manager to the coordinating thread).
struct WorkerOutcome {
  MultiFunction best;
  double best_cost = std::numeric_limits<double>::infinity();
  /// Rank form of `best` (workers mirror the coordinator's layout, so
  /// forms are comparable fleet-wide): the coordinator breaks equal-cost
  /// merge ties with canonically_before instead of worker index, which
  /// would leak the schedule into the returned function.
  std::optional<PortableSolution> best_portable;
  SolverStats stats;
};

/// Serve pending steal requests from this worker's surplus: donate one
/// BATCH of up to `batch_limit` Frontier::steal() picks per waiting thief
/// not already covered by a queued batch, always keeping at least one
/// subproblem for ourselves.  The batch is serialized OUTSIDE the queue
/// lock — serialization only reads the victim's private frontier and
/// manager — so the critical section is reduced to deque pointer swaps.
/// Over-donation (a thief that found work elsewhere meanwhile) is safe:
/// surplus batches drain to the next idle worker.
void donate_work(SharedState& shared, Frontier& frontier, BddManager& mgr,
                 std::size_t batch_limit) {
  const std::size_t waiting = shared.steal_requests.load();
  if (waiting == 0 || frontier.size() <= 1) {
    return;
  }
  const std::size_t queued = shared.queued_batches.load();
  if (waiting <= queued) {
    return;
  }
  std::size_t need = waiting - queued;

  std::vector<InjectedBatch> batches;
  std::vector<Subproblem> picks;
  std::size_t donated_items = 0;
  while (need-- > 0 && frontier.size() > 1) {
    const std::size_t take = std::min(batch_limit, frontier.size() - 1);
    picks.clear();
    frontier.steal_into(picks, take);
    InjectedBatch batch;
    batch.reserve(picks.size());
    for (Subproblem& victim : picks) {
      batch.push_back(InjectedSubproblem{
          mgr.serialize_bdd(victim.rel.characteristic()), victim.depth});
    }
    donated_items += batch.size();
    batches.push_back(std::move(batch));
  }
  if (batches.empty()) {
    return;
  }
  {
    const std::scoped_lock lock(shared.mutex);
    for (InjectedBatch& batch : batches) {
      shared.queue.push_back(std::move(batch));
    }
    shared.queued_batches.store(shared.queue.size());
  }
  shared.steals.fetch_add(donated_items);
  shared.steal_batches.fetch_add(batches.size());
  shared.work_ready.notify_all();
}

/// Idle path: take one injected BATCH (materializing every subproblem in
/// OUR manager) or detect global termination.  Returns false when the
/// worker should exit (all workers idle with an empty queue, stop flag,
/// or deadline).
bool acquire_injected(SearchContext& ctx, SharedState& shared,
                      Frontier& frontier, const BooleanRelation& root) {
  std::unique_lock<TimedMutex> lock(shared.mutex);
  if (shared.done || shared.stop.load()) {
    return false;
  }
  if (shared.queue.empty()) {
    ++shared.idle;
    shared.steal_requests.fetch_add(1);
    if (shared.idle == shared.workers && shared.queue.empty()) {
      // Nobody holds local work and nothing is queued: the tree is done.
      shared.done = true;
      shared.steal_requests.fetch_sub(1);
      shared.work_ready.notify_all();
      return false;
    }
    while (shared.queue.empty() && !shared.done && !shared.stop.load()) {
      if (ctx.timed_out()) {  // waiting workers also watch the deadline
        shared.stop.store(true);
        shared.budget_exhausted.store(true);
        ctx.stats.budget_exhausted = true;
        shared.work_ready.notify_all();
        break;
      }
      // Timed wait: a missed notify can only cost one period, never a
      // hang, and gives blocked workers a deadline heartbeat.
      shared.work_ready.wait_for(lock, std::chrono::milliseconds(20));
    }
    shared.steal_requests.fetch_sub(1);
    if (shared.done || shared.stop.load()) {
      return false;  // idle stays counted: the run is over
    }
    --shared.idle;
  }
  InjectedBatch batch = std::move(shared.queue.front());
  shared.queue.pop_front();
  shared.queued_batches.store(shared.queue.size());
  lock.unlock();

  // Materialize the whole batch locally — deserialization happens in OUR
  // manager, outside any shared lock.
  for (InjectedSubproblem& item : batch) {
    Bdd chi = ctx.mgr.deserialize_bdd(item.chi);
    Subproblem sub{BooleanRelation(ctx.mgr, root.inputs(), root.outputs(),
                                   std::move(chi)),
                   item.depth};
    seed_priority(ctx, sub, frontier);
    frontier.push_root(std::move(sub));  // stolen work is never dropped
  }
  return true;
}

/// One worker: the serial engine's loop (same step-0 seeding on worker 0,
/// same expansion order within the local frontier) plus the donation /
/// injection / shared-bound / global-budget hooks.  Workers never touch
/// the cross-solve memo (the coordinator probes and publishes the root).
void run_worker(std::size_t worker_id, BddManager& mgr,
                const BooleanRelation& root, const SolverOptions& options,
                std::chrono::steady_clock::time_point start,
                SharedState& shared, WorkerOutcome& out) {
  SearchContext ctx{mgr,
                    options,
                    options.cost ? options.cost : sum_of_bdd_sizes(),
                    start,
                    MultiFunction{},
                    std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity(),
                    SolverStats{},
                    std::nullopt,
                    nullptr};
  if (options.use_symmetry) {
    ctx.symmetries.emplace(mgr, root.outputs());
  }
  // The rank tables are per-worker because they reference this worker's
  // manager variables; all workers mirror the coordinator's variable
  // layout, so every worker produces identical canonical forms.  They
  // anchor the canonical equal-cost tie order (canonically_before) for
  // the incumbent and the merge.
  const MemoSpace tie_space = make_memo_space(root);
  ctx.tie_space = &tie_space;
  const std::unique_ptr<Frontier> frontier =
      make_frontier(options.order, options.fifo_capacity);

  // Reordering policy, per worker manager (each is private and fresh, so
  // no restore is needed): On sifts the imported root now; Auto arms the
  // GC-coupled trigger.  Sifting is deterministic over equal stores, so
  // all workers start in the same order.
  const ReorderMode reorder_mode = resolve_reorder_mode(options.reorder);
  const std::uint64_t reorders_before = mgr.stats().reorders;
  const std::uint64_t swaps_before = mgr.stats().reorder_swaps;
  if (reorder_mode == ReorderMode::On) {
    mgr.reorder();
  } else if (reorder_mode == ReorderMode::Auto) {
    mgr.set_auto_reorder(true);
  }

  if (worker_id == 0) {
    // Step 0, exactly like SearchEngine::run(): the root subproblem and
    // the unconditional QuickSolver incumbent seed live on worker 0; the
    // other workers start empty and immediately post steal requests.
    if (ctx.symmetries.has_value()) {
      (void)ctx.symmetries->seen_before_or_insert(root.characteristic());
    }
    Subproblem root_item{root, 0};
    MultiFunction quick = quick_solve(root, options.minimizer, ctx.table);
    ++ctx.stats.quick_solutions;
    ++ctx.stats.solutions_seen;
    const double quick_cost = ctx.cost(quick);
    root_item.quick = QuickSolution{quick, mgr.stats().reorders};
    ctx.best_cost = quick_cost;
    ctx.best = std::move(quick);
    seed_priority(ctx, root_item, *frontier);
    frontier->push_root(std::move(root_item));
  }

  while (true) {
    if (shared.stop.load()) {
      break;
    }
    if (ctx.timed_out()) {
      shared.budget_exhausted.store(true);
      ctx.stats.budget_exhausted = true;
      shared.halt();
      break;
    }
    if (frontier->empty()) {
      if (!acquire_injected(ctx, shared, *frontier, root)) {
        break;
      }
      continue;
    }
    donate_work(shared, *frontier, mgr,
                std::max<std::size_t>(1, options.steal_batch));
    if (!options.exact) {
      // One global ticket per expansion, so N workers share the serial
      // budget instead of multiplying it.
      const std::size_t ticket = shared.explored.fetch_add(1);
      if (ticket >= options.max_relations) {
        shared.explored.fetch_sub(1);
        shared.budget_exhausted.store(true);
        ctx.stats.budget_exhausted = true;
        shared.halt();
        break;
      }
    }
    mgr.garbage_collect_if_needed();
    // Import the fleet-wide bound, expand, publish what we learned.
    const double fleet_bound = shared.bound.load(std::memory_order_relaxed);
    if (fleet_bound < ctx.bound_cost) {
      ctx.bound_cost = fleet_bound;
    }
    expand_subproblem(ctx, frontier->pop(), *frontier);
    atomic_min(shared.bound, ctx.bound_cost);
  }

  ctx.stats.reorders =
      static_cast<std::size_t>(mgr.stats().reorders - reorders_before);
  ctx.stats.reorder_swaps =
      static_cast<std::size_t>(mgr.stats().reorder_swaps - swaps_before);
  ctx.stats.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.best = std::move(ctx.best);
  out.best_cost = ctx.best_cost;
  if (!out.best.outputs.empty()) {
    out.best_portable =
        ctx.best_portable.has_value()
            ? std::move(ctx.best_portable)
            : std::optional<PortableSolution>(make_portable_solution(
                  tie_space, out.best, out.best_cost));
  }
  out.stats = ctx.stats;
}

}  // namespace

std::size_t resolve_worker_count(std::size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

ParallelEngine::ParallelEngine(const BooleanRelation& root,
                               const SolverOptions& options)
    : root_(root),
      options_(options),
      workers_(resolve_worker_count(options.num_workers)) {
  if (!root_.is_well_defined()) {
    throw std::invalid_argument("BrelSolver: relation is not well defined");
  }
  if (options_.subproblem_cache != nullptr) {
    throw std::invalid_argument(
        "ParallelEngine: a shared SubproblemCache is keyed by one "
        "manager's edges and cannot serve per-worker managers");
  }
  if (options_.global_memo != nullptr) {
    // The manager-independent memo CAN serve per-worker managers; fail
    // fast on a comparability mismatch before any thread starts.
    options_.global_memo->bind(MemoFingerprint{
        (options_.cost ? options_.cost : sum_of_bdd_sizes()).id(),
        options_.exact});
  }
}

SolveResult ParallelEngine::run() {
  const auto start = std::chrono::steady_clock::now();
  // Best-effort attribution (the registry is process-global): waits that
  // accrue on the memo/injection locks between here and join.
  const std::uint64_t lock_wait_before =
      total_lock_wait_ns({lock_names::kMemo, lock_names::kInject});
  BddManager& root_mgr = root_.manager();
  const std::size_t count = workers_;

  // Warm-memo fast path: probe the cross-solve memo with the root's
  // canonical key before paying for managers and threads.  A hit is the
  // memoized answer of an identical earlier solve — return it directly.
  // The key outlives the probe: a drained run publishes under it.
  std::optional<GlobalMemoKey> root_key;
  if (options_.global_memo != nullptr) {
    const MemoSpace memo_space = make_memo_space(root_);
    root_key = make_memo_key(memo_space, root_.characteristic());
    if (const std::optional<PortableSolution> entry =
            options_.global_memo->lookup(*root_key)) {
      SolveResult result;
      result.function =
          import_portable_solution(root_mgr, memo_space, *entry);
      result.cost = entry->cost;
      result.stats.memo_hits = 1;
      result.stats.solutions_seen = 1;
      result.stats.workers = count;
      result.stats.runtime_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      return result;
    }
  }

  // Per-worker substrate: a private manager per worker, with the root
  // relation rebuilt in it.  The root is serialized once here (plain
  // data, read-only from then on); each worker constructs its manager
  // and deserializes the root on its own thread, so that setup runs in
  // parallel rather than ahead of every thread.  The slots are filled
  // by their workers and read here only after join.
  const SerializedBdd root_chi = root_mgr.serialize_bdd(root_.characteristic());
  const std::uint32_t num_vars = root_mgr.num_vars();
  std::vector<std::unique_ptr<BddManager>> managers(count);
  std::vector<std::optional<BooleanRelation>> roots(count);

  SharedState shared(count);
  std::vector<WorkerOutcome> outcomes(count);
  std::vector<std::exception_ptr> failures(count);

  // The join established happens-before; take the managers back so the
  // merge (and the outcome and root destructors) run on this thread
  // legally.
  const auto join_and_rebind = [&](std::vector<std::thread>& threads) {
    for (std::thread& t : threads) {
      t.join();
    }
    for (const std::unique_ptr<BddManager>& mgr : managers) {
      if (mgr != nullptr) {
        mgr->bind_to_current_thread();
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(count);
  try {
    for (std::size_t w = 0; w < count; ++w) {
      threads.emplace_back([&, w] {
        try {
          managers[w] = std::make_unique<BddManager>(num_vars);
          roots[w].emplace(*managers[w], root_.inputs(), root_.outputs(),
                           managers[w]->deserialize_bdd(root_chi));
          run_worker(w, *managers[w], *roots[w], options_, start, shared,
                     outcomes[w]);
        } catch (...) {
          failures[w] = std::current_exception();
          shared.halt();
        }
      });
    }
  } catch (...) {
    shared.halt();  // thread-spawn failure: stop whoever already started
    join_and_rebind(threads);
    throw;
  }
  join_and_rebind(threads);
  for (const std::exception_ptr& failure : failures) {
    if (failure) {
      std::rethrow_exception(failure);
    }
  }

  SolveResult result;
  result.worker_stats.reserve(count);
  std::size_t winner = count;  // index of the cheapest non-empty incumbent
  for (std::size_t w = 0; w < count; ++w) {
    const WorkerOutcome& outcome = outcomes[w];
    result.worker_stats.push_back(outcome.stats);
    result.stats.accumulate(outcome.stats);
    if (outcome.best.outputs.empty()) {
      continue;
    }
    // NaN-safe: a NaN cost never displaces an earlier incumbent, and the
    // first non-empty one (worker 0's unconditional quick seed) always
    // enters, so even a pathological cost function yields a compatible
    // function — same contract as the serial engine.  Equal-cost ties
    // resolve through the canonical order, not worker index: which
    // worker happened to find a tied function is scheduling noise.
    if (winner == count || outcome.best_cost < outcomes[winner].best_cost ||
        (outcome.best_cost == outcomes[winner].best_cost &&
         outcome.best_portable.has_value() &&
         outcomes[winner].best_portable.has_value() &&
         canonically_before(*outcome.best_portable,
                            *outcomes[winner].best_portable))) {
      winner = w;
    }
  }
  if (winner == count) {
    throw std::logic_error("ParallelEngine: no worker produced a solution");
  }
  result.stats.workers = count;
  result.stats.steals = shared.steals.load();
  result.stats.steal_batches = shared.steal_batches.load();
  result.stats.lock_wait_ns =
      total_lock_wait_ns({lock_names::kMemo, lock_names::kInject}) -
      lock_wait_before;
  result.stats.budget_exhausted =
      result.stats.budget_exhausted || shared.budget_exhausted.load();
  result.stats.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Publish-once, mirroring SearchEngine::run: only a drained fleet (no
  // budget or timeout stop, no frontier-overflow drop in any worker)
  // publishes, and it publishes exactly what it returns: the winner's
  // rank form (set for every non-empty incumbent, and comparable here
  // because every worker mirrors the coordinator's variable layout).
  if (options_.global_memo != nullptr && !result.stats.budget_exhausted &&
      result.stats.fifo_overflow == 0) {
    options_.global_memo->publish(*root_key, *outcomes[winner].best_portable);
  }

  // Transfer the winning solution back into the caller's manager.
  const WorkerOutcome& best = outcomes[winner];
  result.cost = best.best_cost;
  result.function.outputs.reserve(best.best.outputs.size());
  for (const Bdd& g : best.best.outputs) {
    result.function.outputs.push_back(root_mgr.import_bdd(g));
  }
  return result;
}

}  // namespace brel
