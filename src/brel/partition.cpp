#include "brel/partition.hpp"

#include <chrono>
#include <cstdint>
#include <optional>

#include "brel/cost.hpp"
#include "brel/delta_context.hpp"
#include "brel/global_memo.hpp"

namespace brel {

SolveResult solve_partitioned(const BooleanRelation& r,
                              const SolverOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  BddManager& mgr = r.manager();
  const std::vector<std::uint32_t>& inputs = r.inputs();
  const std::vector<std::uint32_t>& outputs = r.outputs();
  const std::size_t q = std::min(options.partition_inputs, inputs.size() - 1);
  const std::size_t blocks = std::size_t{1} << q;
  const std::vector<std::uint32_t> rest(inputs.begin() +
                                            static_cast<std::ptrdiff_t>(q),
                                        inputs.end());

  // Delta classification at block granularity: diff against the
  // registry's base for the FULL relation's spaces.  The delta never
  // decides anything — clean blocks are served (or not) by their own
  // content-keyed root probes — it only explains the reuse in the stats.
  Bdd delta;
  std::optional<GlobalMemoKey> root_key;
  if (options.delta_registry != nullptr && options.global_memo != nullptr) {
    const MemoSpace memo_space = make_memo_space(r);
    // The canonical key is built once, here, and remembered as the next
    // base at the end of a drained run.
    root_key = make_memo_key(memo_space, r.characteristic());
    if (const SerializedBdd* base = options.delta_registry->find_base(
            memo_space.input_ranks, memo_space.output_ranks)) {
      delta =
          r.characteristic() ^ import_canonical_bdd(mgr, memo_space, *base);
    }
  }

  // Blocks run the plain engine: no nested partitioning, no registry
  // (their bases live implicitly in the shared memo as block-root
  // entries).  Everything else — memo, workers, depth caps, reordering —
  // passes through unchanged.
  SolverOptions block_options = options;
  block_options.partition_inputs = 0;
  block_options.delta_registry = nullptr;
  const BrelSolver block_solver(block_options);

  SolveResult result;
  result.function.outputs.assign(outputs.size(), mgr.zero());
  SolverStats& stats = result.stats;
  stats.delta_active = !delta.is_null();

  for (std::size_t a = 0; a < blocks; ++a) {
    Bdd chi = r.characteristic();
    Bdd block_delta = delta;
    Bdd cube = mgr.one();
    for (std::size_t i = 0; i < q; ++i) {
      const bool bit = ((a >> i) & 1u) != 0;
      chi = chi.cofactor(inputs[i], bit);
      cube = cube & mgr.literal(inputs[i], bit);
      if (!block_delta.is_null() && !block_delta.is_zero()) {
        block_delta = block_delta.cofactor(inputs[i], bit);
      }
    }
    if (stats.delta_active) {
      if (block_delta.is_zero()) {
        ++stats.delta_reused;
      } else {
        ++stats.delta_researched;
      }
    }

    const SolveResult block = block_solver.solve(
        BooleanRelation(mgr, rest, outputs, std::move(chi)));
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      result.function.outputs[o] =
          result.function.outputs[o] | (cube & block.function.outputs[o]);
    }

    stats.accumulate(block.stats);
  }

  const CostFunction cost =
      options.cost ? options.cost : sum_of_bdd_sizes();
  result.cost = cost(result.function);

  // This run becomes the next base for its spaces — same drain condition
  // as the engines' root publish (an interrupted run must not anchor
  // future diffs to a composition of degraded block results).
  if (root_key.has_value() && !stats.budget_exhausted &&
      stats.fifo_overflow == 0) {
    options.delta_registry->remember(*root_key);
  }

  stats.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace brel
