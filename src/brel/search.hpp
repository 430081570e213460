#pragma once
/// \file search.hpp
/// The BREL search engine: the Fig. 6 branch-and-bound recursion broken
/// into an explicit state object plus small focused steps.
///
/// Layering (see DESIGN.md):
///
///   BrelSolver (facade, solver.hpp)
///     └─ SearchEngine (driver loop, this file)
///          ├─ Frontier            exploration order (frontier.hpp)
///          ├─ SubproblemCache     caller-shared cross-solve dedup (subproblem_cache.hpp)
///          ├─ SymmetryCache       near-root symmetry pruning (symmetry.hpp)
///          ├─ GlobalMemo          whole-answer cache, root only (below)
///          └─ SearchContext       incumbent / bound / stats / deadline
///
/// `SearchContext` carries everything one expansion needs: the manager,
/// the resolved cost function, the incumbent solution and its cost, the
/// line-6 bound, the deadline and the statistics.  The steps
/// (`expand_subproblem`, `handle_terminal`, the split selectors) are free
/// functions over the context so they can be tested — and eventually
/// executed by parallel workers — without going through the solver facade.
///
/// With the default BFS/DFS strategies the engine performs *exactly* the
/// operations of the original monolithic loop, in the same order, so
/// results are bit-identical; best-first additionally precomputes each
/// child's MISF candidate at push time to order the frontier by it.
///
/// The cross-solve memo (SolverOptions::global_memo) is a cache of whole
/// answers.  Every node of one search tree is a distinct subrelation
/// (Property 5.4), so within a run the memo can never hit; across runs,
/// service traffic repeats whole requests, not subtrees.  The engines
/// therefore probe the memo once, at the root, and on a miss search with
/// no memo traffic at all; a drained run — no budget or timeout stop and
/// no frontier-overflow drop — publishes its returned result under the
/// root key once, and an interrupted run publishes nothing.

#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "brel/frontier.hpp"
#include "brel/global_memo.hpp"
#include "brel/solver.hpp"
#include "brel/subproblem_cache.hpp"
#include "brel/symmetry.hpp"
#include "relation/relation.hpp"
#include "relation/relation_table.hpp"

namespace brel {

/// Mutable state threaded through every step of one solve() run.
struct SearchContext {
  BddManager& mgr;
  const SolverOptions& options;
  CostFunction cost;  ///< options.cost or the default, never empty

  std::chrono::steady_clock::time_point start;

  /// Incumbent: best compatible solution seen so far (from any source —
  /// QuickSolver, terminals, compatible MISF candidates).
  MultiFunction best;
  double best_cost = std::numeric_limits<double>::infinity();

  /// The line-6 branch-and-bound bound.  Maintained from *explored*
  /// candidates only — QuickSolver results never lower it (see the
  /// step-0 comment in search.cpp).
  double bound_cost = std::numeric_limits<double>::infinity();

  SolverStats stats;

  std::optional<SymmetryCache> symmetries;

  /// The caller-shared SolverOptions::subproblem_cache; null when unset.
  SubproblemCache* cache = nullptr;

  /// Rank space for the canonical equal-cost tie order (see
  /// canonically_before).  The engines always set it — memo or not — so
  /// a cold memo-less run and a memo-served warm run break every tie
  /// the same way and stay bit-identical.  `best_portable` caches the
  /// incumbent's rank form; empty until the first cost tie forces a
  /// comparison, invalidated whenever a strictly better incumbent wins.
  const MemoSpace* tie_space = nullptr;
  std::optional<PortableSolution> best_portable = {};

  /// The truth table of the relation last expanded or quick-solved, when
  /// it is narrow and the minimizer has a table path (relation_table.hpp):
  /// one load per relation serves the MISF candidate, the conflict check
  /// and the split guard.
  RelationTable table = {};

  [[nodiscard]] bool timed_out() const;

  /// Offer a compatible solution to the incumbent (does not touch the
  /// bound).  The one-argument form evaluates the cost function itself.
  void offer_solution(MultiFunction f, double solution_cost);
  void offer_solution(MultiFunction f);

  /// Offer a solution AND memoize it for every subrelation on the
  /// discovering node's cache chain (Property 5.1 justifies the
  /// attribution to every ancestor).
  void record_solution(const Subproblem& from, MultiFunction f,
                       double solution_cost);
};

/// The comparability stamp the engines bind their caches with (see
/// CacheFingerprint): the resolved cost identity, the exploration mode,
/// and the root's variable spaces.
[[nodiscard]] CacheFingerprint make_cache_fingerprint(
    const BooleanRelation& root, const SolverOptions& options,
    const CostFunction& resolved_cost);

/// A split decision: the input vertex and the output to split on.
struct SplitChoice {
  std::vector<bool> vertex;
  std::size_t output;
};

/// Fig. 6 lines 4-5: minimize the MISF over-approximation output by
/// output.  Counts one misf_minimization per output.
[[nodiscard]] MultiFunction minimize_misf_candidate(SearchContext& ctx,
                                                    const BooleanRelation& rel);

/// Fig. 6 lines 1-3: a functional relation *is* its unique solution;
/// record it (reusing a push-time candidate when present) and lower the
/// bound.
void handle_terminal(SearchContext& ctx, const Subproblem& item);

/// Exact-mode continuation below a compatible candidate: the first output
/// (in manager variable order) that still has don't-care flexibility, or
/// nullopt when the relation is fully constrained.
[[nodiscard]] std::optional<SplitChoice> select_flexibility_split(
    const BooleanRelation& rel);

/// Fig. 6 lines 7 and 9: ∃Y Incomp(f, rel), the input vertices where the
/// candidate f leaves the relation (zero iff f is compatible).
[[nodiscard]] Bdd conflict_inputs(SearchContext& ctx,
                                  const BooleanRelation& rel,
                                  const MultiFunction& f);

/// Fig. 6 lines 9-10 / Sec. 7.4: split vertex from the largest cube of the
/// conflict inputs (don't-cares assigned 1), first output in variable
/// order admitting both values.  Throws std::logic_error if no output can
/// split — impossible for a genuine conflict (Sec. 6.3).
[[nodiscard]] SplitChoice select_conflict_split(SearchContext& ctx,
                                                const BooleanRelation& rel,
                                                const Bdd& conflicts);

/// One full expansion of a popped subproblem: terminal handling, MISF
/// candidate + bounding, compatibility check, split selection, and child
/// generation (dedup caches, QuickSolver safety net, frontier push).
void expand_subproblem(SearchContext& ctx, Subproblem item,
                       Frontier& frontier);

/// For priority-ordered frontiers, price `sub` before it is pushed:
/// terminals by their exact solution, everything else by the MISF
/// candidate (which expansion then reuses).  Skipped when the frontier is
/// full — the push would be rejected anyway, and MISF minimization is the
/// dominant per-node cost.  No-op for strategies that ignore priority.
/// Used by the engine for the root and by parallel workers for
/// subproblems received through the injection queue (which travel
/// without their push-time candidate).
void seed_priority(SearchContext& ctx, Subproblem& sub,
                   const Frontier& frontier);

/// Drives a frontier and a context to a SolveResult.  One engine per
/// solve() run; the solver facade owns nothing but options.
class SearchEngine {
 public:
  /// Throws std::invalid_argument when `root` is not well defined.
  SearchEngine(const BooleanRelation& root, const SolverOptions& options);

  /// Run to completion (frontier drained, budget exhausted or deadline
  /// hit) and return the incumbent plus statistics.
  [[nodiscard]] SolveResult run();

  [[nodiscard]] const SearchContext& context() const noexcept { return ctx_; }

 private:
  // Owned copies (both are cheap: handles + index vectors), so an engine
  // outlives temporaries passed to its constructor.
  const BooleanRelation root_;
  const SolverOptions options_;
  std::shared_ptr<SubproblemCache> cache_;  ///< keeps the shared cache alive
  /// Rank tables for this root (heap-held: ctx_.tie_space points at it).
  std::unique_ptr<const MemoSpace> memo_space_;
  SearchContext ctx_;
  std::unique_ptr<Frontier> frontier_;
};

}  // namespace brel
