#include "brel/solver.hpp"

#include <algorithm>

#include "brel/parallel_engine.hpp"
#include "brel/partition.hpp"
#include "brel/search.hpp"

namespace brel {

void SolverStats::accumulate(const SolverStats& other) {
  relations_explored += other.relations_explored;
  splits += other.splits;
  quick_solutions += other.quick_solutions;
  misf_minimizations += other.misf_minimizations;
  conflicts += other.conflicts;
  pruned_by_cost += other.pruned_by_cost;
  pruned_by_symmetry += other.pruned_by_symmetry;
  pruned_by_cache += other.pruned_by_cache;
  memo_hits += other.memo_hits;
  fifo_overflow += other.fifo_overflow;
  depth_limited += other.depth_limited;
  solutions_seen += other.solutions_seen;
  workers = std::max(workers, other.workers);
  steals += other.steals;
  steal_batches += other.steal_batches;
  reorders += other.reorders;
  reorder_swaps += other.reorder_swaps;
  delta_active = delta_active || other.delta_active;
  delta_reused += other.delta_reused;
  delta_researched += other.delta_researched;
  budget_exhausted = budget_exhausted || other.budget_exhausted;
  lock_wait_ns += other.lock_wait_ns;
}

BrelSolver::BrelSolver(SolverOptions options) : options_(std::move(options)) {}

SolveResult BrelSolver::solve(const BooleanRelation& r) const {
  if (options_.partition_inputs > 0 && !options_.exact &&
      r.num_inputs() >= 2) {
    return solve_partitioned(r, options_);
  }
  if (resolve_worker_count(options_.num_workers) > 1) {
    return ParallelEngine(r, options_).run();
  }
  return SearchEngine(r, options_).run();
}

}  // namespace brel
