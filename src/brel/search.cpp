#include "brel/search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "brel/quick_solver.hpp"

namespace brel {

namespace {

/// Derive the split vertex from the largest conflicting input cube
/// (Sec. 7.4): don't-care positions are assigned 1.
std::vector<bool> vertex_from_cube(const Cube& cube, std::size_t num_vars) {
  std::vector<bool> x(num_vars, true);
  for (std::size_t v = 0; v < cube.num_vars(); ++v) {
    if (cube.lit(v) == Lit::Zero) {
      x[v] = false;
    }
  }
  return x;
}

/// Outputs ordered by manager variable index (Sec. 7.4: "following the
/// variable order in the BDD manager").
std::vector<std::size_t> outputs_in_var_order(const BooleanRelation& rel) {
  std::vector<std::size_t> order(rel.num_outputs());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rel.outputs()[a] < rel.outputs()[b];
  });
  return order;
}

/// True when `rel` runs on ctx.table (loaded by this call if need be).
bool on_table(SearchContext& ctx, const BooleanRelation& rel) {
  return ctx.options.minimizer.has_table_path() && ctx.table.load(rel);
}

/// A NaN cost would break the strict weak ordering std::push_heap
/// requires; map it to +inf (explore last) before it becomes a priority.
double sanitize_priority(double cost) noexcept {
  return std::isnan(cost) ? std::numeric_limits<double>::infinity() : cost;
}

/// quick_solve of `child`, the half of parent's split at `choice` that
/// keeps y_i(x) = value.  While ctx.table still holds the parent (it
/// does: expand_subproblem quick-solves both halves before pricing
/// either), the half's table is derived from the parent's, and its chain
/// starts from the parent's quick solution when the parent has one.
MultiFunction quick_solve_child(SearchContext& ctx, const Subproblem& parent,
                                const BooleanRelation& child,
                                const SplitChoice& choice, bool value) {
  if (ctx.options.minimizer.has_table_path() && ctx.table.holds(parent.rel)) {
    return ctx.table.quick_solve_split(
        choice.vertex, choice.output, value,
        parent.quick.has_value() ? &*parent.quick : nullptr);
  }
  return quick_solve(child, ctx.options.minimizer, ctx.table);
}

/// Generate one child: symmetry pruning, subproblem-cache dedup and the
/// QuickSolver safety net.  `parent` supplies the symmetry depth gate
/// (exactly like the original loop), the ancestor chain for solution
/// memoization and the quick solution the child's starts from; the child
/// is the half of its split at `choice` with y_i(x) = value.  Returns
/// nothing when a cache pruned the child.
std::optional<Subproblem> make_child(SearchContext& ctx,
                                     BooleanRelation&& child,
                                     const Subproblem& parent,
                                     const SplitChoice& choice, bool value) {
  if (ctx.symmetries.has_value() &&
      parent.depth < ctx.options.symmetry_depth &&
      ctx.symmetries->seen_before_or_insert(child.characteristic())) {
    ++ctx.stats.pruned_by_symmetry;
    return std::nullopt;
  }
  // Dedup re-encounters (only possible across solves sharing the cache —
  // within one tree Property 5.4 forbids them; see subproblem_cache.hpp).
  // Every inserted entry is memoized with at least its quick solution
  // right below, so a hit always carries a memo; pruning offers it
  // instead of losing the branch — never worse than the QuickSolver
  // safety net would have been.
  if (ctx.cache != nullptr) {
    const CachedSolution* const prior =
        ctx.cache->seen_before_or_insert(child.characteristic());
    if (prior != nullptr && prior->has_solution()) {
      ++ctx.stats.pruned_by_cache;
      ++ctx.stats.solutions_seen;
      ctx.offer_solution(prior->best, prior->cost);
      return std::nullopt;
    }
  }

  Subproblem sub{std::move(child), parent.depth + 1};
  if (ctx.cache != nullptr) {
    sub.ancestors = parent.ancestors;
    sub.ancestors.push_back(sub.rel.characteristic().raw_edge());
  }
  // Sec. 7.6: every generated subrelation is quick-solved immediately, so
  // a solution from this branch survives even if the child is never
  // popped (frontier overflow, budget, timeout).
  MultiFunction q = quick_solve_child(ctx, parent, sub.rel, choice, value);
  ++ctx.stats.quick_solutions;
  ++ctx.stats.solutions_seen;
  const double qc = ctx.cost(q);
  sub.quick = QuickSolution{q, ctx.mgr.stats().reorders};
  ctx.record_solution(sub, std::move(q), qc);
  return sub;
}

/// Price a generated child for best-first frontiers and push it.
void push_child(SearchContext& ctx, Subproblem&& sub, Frontier& frontier) {
  seed_priority(ctx, sub, frontier);
  if (!frontier.try_push(std::move(sub))) {
    // The dropped child's subtree is lost; only the QuickSolver result
    // above survives.
    ++ctx.stats.fifo_overflow;
  }
}

}  // namespace

void seed_priority(SearchContext& ctx, Subproblem& sub,
                   const Frontier& frontier) {
  if (!frontier.wants_priority() || frontier.size() >= frontier.capacity()) {
    return;
  }
  if (sub.rel.is_function()) {
    sub.candidate = sub.rel.extract_function();
  } else {
    sub.candidate = minimize_misf_candidate(ctx, sub.rel);
  }
  sub.candidate_cost = ctx.cost(*sub.candidate);
  sub.priority = sanitize_priority(sub.candidate_cost);
}

bool SearchContext::timed_out() const {
  return options.timeout.count() > 0 &&
         std::chrono::steady_clock::now() - start >= options.timeout;
}

void SearchContext::offer_solution(MultiFunction f, double solution_cost) {
  if (solution_cost < best_cost) {
    best = std::move(f);
    best_cost = solution_cost;
    best_portable.reset();
    return;
  }
  // Equal-cost ties resolve through the canonical total order so the
  // kept incumbent does not depend on arrival order (memo-served
  // candidates arrive earlier than a cold search would produce them).
  if (solution_cost == best_cost && tie_space != nullptr &&
      !best.outputs.empty()) {
    if (!best_portable.has_value()) {
      best_portable = make_portable_solution(*tie_space, best, best_cost);
    }
    PortableSolution candidate =
        make_portable_solution(*tie_space, f, solution_cost);
    if (canonically_before(candidate, *best_portable)) {
      best = std::move(f);
      best_portable = std::move(candidate);
    }
  }
}

void SearchContext::offer_solution(MultiFunction f) {
  const double solution_cost = cost(f);
  offer_solution(std::move(f), solution_cost);
}

void SearchContext::record_solution(const Subproblem& from, MultiFunction f,
                                    double solution_cost) {
  if (cache != nullptr) {
    cache->improve(from.ancestors, f, solution_cost);
  }
  offer_solution(std::move(f), solution_cost);
}

CacheFingerprint make_cache_fingerprint(const BooleanRelation& root,
                                        const SolverOptions& options,
                                        const CostFunction& resolved_cost) {
  return CacheFingerprint{resolved_cost.id(), options.exact, root.inputs(),
                          root.outputs()};
}

MultiFunction minimize_misf_candidate(SearchContext& ctx,
                                      const BooleanRelation& rel) {
  ctx.stats.misf_minimizations += rel.num_outputs();
  if (on_table(ctx, rel)) {
    return ctx.table.misf_candidate();
  }
  MultiFunction candidate;
  candidate.outputs.reserve(rel.num_outputs());
  for (std::size_t i = 0; i < rel.num_outputs(); ++i) {
    candidate.outputs.push_back(
        ctx.options.minimizer.minimize(rel.project_output(i)));
  }
  return candidate;
}

Bdd conflict_inputs(SearchContext& ctx, const BooleanRelation& rel,
                    const MultiFunction& f) {
  if (on_table(ctx, rel)) {
    if (std::optional<Bdd> conflicts = ctx.table.conflict_inputs(f)) {
      return std::move(*conflicts);
    }
  }
  return ctx.mgr.exists(rel.incompatibilities(f), rel.outputs());
}

void handle_terminal(SearchContext& ctx, const Subproblem& item) {
  // Best-first priced the terminal at push time; reuse that instead of
  // re-extracting and re-costing.
  MultiFunction f = item.candidate.has_value() ? *item.candidate
                                               : item.rel.extract_function();
  ++ctx.stats.solutions_seen;
  const double c =
      item.candidate.has_value() ? item.candidate_cost : ctx.cost(f);
  ctx.bound_cost = std::min(ctx.bound_cost, c);
  ctx.record_solution(item, std::move(f), c);
}

std::optional<SplitChoice> select_flexibility_split(
    const BooleanRelation& rel) {
  BddManager& mgr = rel.manager();
  for (const std::size_t i : outputs_in_var_order(rel)) {
    const Isf isf = rel.project_output(i);
    if (!isf.is_completely_specified()) {
      return SplitChoice{mgr.pick_minterm(isf.dc()), i};
    }
  }
  return std::nullopt;
}

SplitChoice select_conflict_split(SearchContext& ctx,
                                  const BooleanRelation& rel,
                                  const Bdd& conflicts) {
  BddManager& mgr = ctx.mgr;
  const Cube cube = mgr.shortest_cube(conflicts);
  std::vector<bool> x = vertex_from_cube(cube, mgr.num_vars());
  const bool table = on_table(ctx, rel);
  for (const std::size_t i : outputs_in_var_order(rel)) {
    if (table ? ctx.table.can_split(x, i) : rel.can_split(x, i)) {
      return SplitChoice{std::move(x), i};
    }
  }
  // Impossible for a genuine conflict vertex (see Sec. 6.3): its image has
  // >= 2 vertices, so some output admits both values.
  throw std::logic_error("BrelSolver: no splittable output at conflict");
}

void expand_subproblem(SearchContext& ctx, Subproblem item,
                       Frontier& frontier) {
  const BooleanRelation& rel = item.rel;
  ++ctx.stats.relations_explored;

  // Terminal case (Fig. 6 lines 1-3): a functional relation *is* its
  // unique solution.
  if (rel.is_function()) {
    handle_terminal(ctx, item);
    return;
  }

  // Lines 4-5: the MISF candidate — either precomputed at push time
  // (best-first) or minimized here (BFS/DFS, like the original loop).
  MultiFunction candidate;
  double candidate_cost;
  if (item.candidate.has_value()) {
    candidate = std::move(*item.candidate);
    candidate_cost = item.candidate_cost;
  } else {
    candidate = minimize_misf_candidate(ctx, rel);
    candidate_cost = ctx.cost(candidate);
  }

  // Line 6: bound.  Constraining the relation further cannot beat a
  // cheaper solution already obtained with more flexibility.  The bound
  // is maintained from *explored* candidates only (see run()); it is
  // heuristic when the ISF minimizer is (like ours) not exact, so exact
  // mode skips it.
  if (!ctx.options.exact && ctx.options.use_cost_bound &&
      candidate_cost >= ctx.bound_cost) {
    ++ctx.stats.pruned_by_cost;
    return;
  }

  // Depth cap (schedule-independent truncation — see SolverOptions): the
  // node itself is processed in full — terminal handling above, candidate
  // recording below — but its subtree is cut.
  const bool depth_capped = item.depth >= ctx.options.max_depth;

  const Bdd conflicts = conflict_inputs(ctx, rel, candidate);
  std::optional<SplitChoice> choice;
  if (conflicts.is_zero()) {
    // Lines 7-8: compatible solution.  Nothing below reads the candidate
    // again, so it moves into the incumbent/memo.
    ++ctx.stats.solutions_seen;
    ctx.bound_cost = std::min(ctx.bound_cost, candidate_cost);
    ctx.record_solution(item, std::move(candidate), candidate_cost);
    if (!ctx.options.exact) {
      return;
    }
    if (depth_capped) {
      ++ctx.stats.depth_limited;
      return;
    }
    // Exact mode: the branch may still hide cheaper functions; keep
    // splitting on any remaining flexibility until leaves are reached.
    choice = select_flexibility_split(rel);
    if (!choice.has_value()) {
      return;  // fully constrained in every output: nothing below
    }
  } else {
    // Lines 9-10: select the split point from the conflicts (Sec. 7.4).
    ++ctx.stats.conflicts;
    if (depth_capped) {
      ++ctx.stats.depth_limited;
      return;
    }
    choice = select_conflict_split(ctx, rel, conflicts);
  }

  // Lines 11-12: both halves enter the frontier through the caches and
  // the QuickSolver safety net.  Both are quick-solved before either is
  // priced, while ctx.table still holds this node: a best-first pricing
  // loads the child's table.
  ++ctx.stats.splits;
  auto [r0, r1] = rel.split(choice->vertex, choice->output);
  std::optional<Subproblem> first =
      make_child(ctx, std::move(r0), item, *choice, false);
  std::optional<Subproblem> second =
      make_child(ctx, std::move(r1), item, *choice, true);
  for (std::optional<Subproblem>* child : {&first, &second}) {
    if (child->has_value()) {
      push_child(ctx, std::move(**child), frontier);
    }
  }
}

SearchEngine::SearchEngine(const BooleanRelation& root,
                           const SolverOptions& options)
    : root_(root),
      options_(options),
      cache_(options_.subproblem_cache),
      ctx_{root_.manager(),
           options_,
           options_.cost ? options_.cost : sum_of_bdd_sizes(),
           std::chrono::steady_clock::now(),
           MultiFunction{},
           std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity(),
           SolverStats{},
           std::nullopt,
           nullptr},
      frontier_(make_frontier(options_.order, options_.fifo_capacity)) {
  if (!root_.is_well_defined()) {
    throw std::invalid_argument("BrelSolver: relation is not well defined");
  }
  if (options_.use_symmetry) {
    ctx_.symmetries.emplace(ctx_.mgr, root_.outputs());
  }
  if (cache_ != nullptr) {
    // Enforce the comparability contract before the first probe: a cache
    // warmed under a different objective/mode/space must not prune us.
    cache_->bind(make_cache_fingerprint(root_, options_, ctx_.cost));
    ctx_.cache = cache_.get();
  }
  // The rank space is built unconditionally: besides keying the memo it
  // anchors the canonical equal-cost tie order, which must be identical
  // between memo-less and memo-backed runs of the same relation.  No
  // KEY is ever built on memo-less runs, though — the rank tables are
  // the only canonical-form work they pay for.
  memo_space_ = std::make_unique<const MemoSpace>(make_memo_space(root_));
  ctx_.tie_space = memo_space_.get();
  if (options_.global_memo != nullptr) {
    options_.global_memo->bind(
        MemoFingerprint{ctx_.cost.id(), options_.exact});
  }
}

SolveResult SearchEngine::run() {
  // Dynamic reordering policy (SolverOptions::reorder, overridable via
  // BREL_REORDER): On sifts the manager once before exploration, Auto
  // arms the GC-coupled trigger for the duration of this run (restored
  // afterwards — an engine must not permanently change a caller's
  // manager policy).  SolverStats::reorders reports the sift passes this
  // run caused, whatever the trigger.
  const ReorderMode reorder_mode = resolve_reorder_mode(options_.reorder);
  const bool auto_was_armed = ctx_.mgr.auto_reorder();
  const std::uint64_t reorders_before = ctx_.mgr.stats().reorders;
  const std::uint64_t swaps_before = ctx_.mgr.stats().reorder_swaps;

  // Step 0 (Sec. 7.2): QuickSolver guarantees at least one solution.
  // Its cost does NOT seed the branch-and-bound bound: Fig. 6 starts the
  // recursion with an infinite-cost BestF, and the quick fallbacks serve
  // only as a safety net.  (Seeding the bound with the quick cost would
  // prune the root whenever the MISF candidate merely ties it, silencing
  // the whole exploration.)
  // The root bypasses the caches (it seeds them) and the capacity bound.
  if (ctx_.symmetries.has_value()) {
    (void)ctx_.symmetries->seen_before_or_insert(root_.characteristic());
  }
  Subproblem root_item{root_, 0};
  if (ctx_.cache != nullptr) {
    (void)ctx_.cache->seen_before_or_insert(root_.characteristic());
    root_item.ancestors.push_back(root_.characteristic().raw_edge());
  }
  GlobalMemo* const memo = options_.global_memo.get();
  std::optional<GlobalMemoKey> root_key;
  if (memo != nullptr) {
    // Root probe of the cross-solve memo, the only memo traffic of a
    // run: a warm re-solve of an identical relation (same canonical
    // serialized form and spaces) returns the memoized answer
    // immediately — first-run quality at zero exploration.  The root's
    // canonical key is built once, here; a drained run publishes under
    // the same key.
    root_key = make_memo_key(*memo_space_, root_.characteristic());
    if (const std::optional<PortableSolution> entry =
            memo->lookup(*root_key)) {
      ++ctx_.stats.memo_hits;
      ++ctx_.stats.solutions_seen;
      SolveResult result;
      result.function =
          import_portable_solution(ctx_.mgr, *memo_space_, *entry);
      result.cost = entry->cost;
      ctx_.stats.runtime_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        ctx_.start)
              .count();
      result.stats = ctx_.stats;
      return result;
    }
  }

  // Apply the reordering policy only past the warm-memo fast path (keys
  // are order-independent, so probing never needed a sift — and a warm
  // hit should not pay for one): On sifts once up front, Auto arms the
  // GC-coupled trigger for the duration of this run.  The disarm guard
  // runs on every exit — a throwing cost function must not leave the
  // caller's manager permanently armed.
  struct AutoReorderGuard {
    BddManager* mgr = nullptr;
    ~AutoReorderGuard() {
      if (mgr != nullptr) {
        mgr->set_auto_reorder(false);
      }
    }
  } disarm_guard;
  if (reorder_mode == ReorderMode::On) {
    ctx_.mgr.reorder();
  } else if (reorder_mode == ReorderMode::Auto && !auto_was_armed) {
    ctx_.mgr.set_auto_reorder(true, options_.reorder_trigger);
    disarm_guard.mgr = &ctx_.mgr;
  }

  // The root quick solution seeds the incumbent UNCONDITIONALLY: even a
  // cost function that maps it to +inf (or NaN) must leave a compatible
  // function in `best`, never an empty MultiFunction.
  MultiFunction quick =
      quick_solve(root_, ctx_.options.minimizer, ctx_.table);
  ++ctx_.stats.quick_solutions;
  ++ctx_.stats.solutions_seen;
  const double quick_cost = ctx_.cost(quick);
  if (ctx_.cache != nullptr) {
    ctx_.cache->improve(root_item.ancestors, quick, quick_cost);
  }
  root_item.quick = QuickSolution{quick, ctx_.mgr.stats().reorders};
  ctx_.best_cost = quick_cost;
  ctx_.best = std::move(quick);

  seed_priority(ctx_, root_item, *frontier_);
  frontier_->push_root(std::move(root_item));

  while (!frontier_->empty()) {
    if (!ctx_.options.exact &&
        ctx_.stats.relations_explored >= ctx_.options.max_relations) {
      ctx_.stats.budget_exhausted = true;
      break;
    }
    if (ctx_.timed_out()) {
      ctx_.stats.budget_exhausted = true;
      break;
    }
    ctx_.mgr.garbage_collect_if_needed();
    expand_subproblem(ctx_, frontier_->pop(), *frontier_);
  }

  // Publish-once: whatever cut the run's subtrees, a drained run's entry
  // IS what it returned, so it serves exactly a re-solve of the same
  // relation under the same configuration.  An interrupted run (budget
  // or timeout stop) or one that dropped children to frontier overflow
  // publishes nothing, so a later identical solve re-explores rather
  // than inheriting a degraded result forever.
  if (memo != nullptr && !ctx_.stats.budget_exhausted &&
      ctx_.stats.fifo_overflow == 0) {
    memo->publish(
        *root_key,
        ctx_.best_portable.has_value()
            ? *ctx_.best_portable
            : make_portable_solution(*memo_space_, ctx_.best,
                                     ctx_.best_cost));
  }

  ctx_.stats.reorders = static_cast<std::size_t>(
      ctx_.mgr.stats().reorders - reorders_before);
  ctx_.stats.reorder_swaps = static_cast<std::size_t>(
      ctx_.mgr.stats().reorder_swaps - swaps_before);

  ctx_.stats.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ctx_.start)
          .count();
  SolveResult result;
  result.function = std::move(ctx_.best);
  result.cost = ctx_.best_cost;
  result.stats = ctx_.stats;
  return result;
}

}  // namespace brel
