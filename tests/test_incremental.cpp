// Differential tests for the incremental re-solve paths:
//
//   - randomized minterm-flip differentials: for every benchmark
//     instance, flipping k in {1, 4, 32} minterms and re-solving through
//     a memo and DeltaRegistry warmed by the unedited base must be
//     BIT-IDENTICAL — cost and rank-mapped solution BDDs — to a cold
//     solve of the edited relation, at 1, 2 and 4 workers;
//   - the partitioned path (partition.hpp), where the registry's base
//     diff localizes an edit to the input-cofactor blocks it touches;
//   - edge cases: identical re-solve (served at the root), a completely
//     different base, a one-minterm edit of a tiny paper relation, and a
//     base solved from a reordered manager (keys are canonical, so reuse
//     must survive variable-order divergence).
//
// The configuration is the schedule-independent one throughout
// (use_cost_bound=false plus a depth cap; cf. test_parallel_engine.cpp):
// that is what makes "bit-identical to cold" a meaningful contract.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "benchgen/paper_relations.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/parallel_engine.hpp"
#include "brel/search.hpp"
#include "brel/solver.hpp"

namespace brel {
namespace {

/// The schedule-independent configuration (see the header comment).
SolverOptions deterministic_options(std::size_t max_depth) {
  SolverOptions options;
  options.cost = sum_of_bdd_sizes();
  options.max_relations = static_cast<std::size_t>(-1);
  options.use_cost_bound = false;
  options.max_depth = max_depth;
  return options;
}

/// A solve result in the manager-independent rank form, so "the same
/// solution" is plain struct equality across managers.
PortableSolution portable(const BooleanRelation& r, const SolveResult& s) {
  return make_portable_solution(make_memo_space(r), s.function, s.cost);
}

/// Run base then edited through a shared memo + registry and compare the
/// edited result against a cold memo-less solve of the same options.
/// `bit_identical` additionally requires the solution BDDs to match in
/// rank form.  With the schedule-independent configuration this holds
/// for BOTH engines: equal-cost ties resolve through the canonical
/// total order (canonically_before) at every selection point, so the
/// surviving incumbent no longer depends on worker schedule or memo
/// arrival order.
/// Returns the warm run's stats so callers can aggregate reuse counters.
SolverStats expect_warm_equals_cold(const BooleanRelation& base,
                                    const BooleanRelation& edited,
                                    SolverOptions options, const char* label,
                                    bool bit_identical) {
  SolverOptions cold_options = options;
  cold_options.global_memo = nullptr;
  cold_options.delta_registry = nullptr;
  const SolveResult cold = BrelSolver(cold_options).solve(edited);
  EXPECT_TRUE(edited.is_compatible(cold.function)) << label;

  const auto memo = std::make_shared<GlobalMemo>();
  DeltaRegistry registry;
  options.global_memo = memo;
  options.delta_registry = &registry;
  const SolveResult warm_base = BrelSolver(options).solve(base);
  EXPECT_FALSE(warm_base.stats.budget_exhausted) << label;
  const SolveResult warm = BrelSolver(options).solve(edited);

  // Only the partitioned path diffs against a base; the plain engines
  // reuse through the memo's root entries alone.
  EXPECT_EQ(warm.stats.delta_active, options.partition_inputs > 0) << label;
  EXPECT_EQ(warm.cost, cold.cost) << label;
  if (bit_identical) {
    EXPECT_EQ(portable(edited, warm), portable(edited, cold)) << label;
  }
  EXPECT_TRUE(edited.is_compatible(warm.function)) << label;
  // Memo-hit pruning can only shrink the re-explored set, never grow it.
  EXPECT_LE(warm.stats.relations_explored, cold.stats.relations_explored)
      << label;
  return warm.stats;
}

TEST(IncrementalTest, FlipDifferentialsAreBitIdenticalSerial) {
  // The acceptance bar, serial engine: every suite instance, k flips of
  // the characteristic, warm result == cold result byte for byte.  The
  // memo holds whole answers only, so an edited relation misses and
  // re-searches; the partitioned test below pins the localization that
  // makes edits cheap.
  for (const RelationBenchmark& bench : relation_suite()) {
    for (const std::size_t flips : {std::size_t{1}, std::size_t{4},
                                    std::size_t{32}}) {
      BddManager mgr{0};
      std::vector<std::uint32_t> inputs;
      std::vector<std::uint32_t> outputs;
      const BooleanRelation base =
          make_benchmark_relation(mgr, bench, inputs, outputs);
      const BooleanRelation edited = flip_minterms(
          base, flips, bench.seed ^ static_cast<std::uint32_t>(flips));
      if (edited.characteristic() == base.characteristic()) {
        continue;  // flips cancelled out (astronomically unlikely)
      }
      const std::string label =
          bench.name + " k=" + std::to_string(flips);
      (void)expect_warm_equals_cold(base, edited, deterministic_options(6),
                                    label.c_str(), true);
    }
  }
}

TEST(IncrementalTest, PartitionedFlipLocalizesToOneBlock) {
  // The near-free-repeat-traffic guarantee (partition.hpp): with the
  // delta-localization pre-split armed, a 1-minterm flip dirties exactly
  // one input-cofactor block — every other block root-hits its base
  // entry at zero exploration — and the composed result is bit-identical
  // to a cold partitioned solve.
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation base =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    const BooleanRelation edited = flip_minterms(base, 1, bench.seed ^ 1u);
    ASSERT_FALSE(edited.characteristic() == base.characteristic())
        << bench.name;
    SolverOptions options = deterministic_options(6);
    options.partition_inputs = 5;
    const std::size_t blocks =
        std::size_t{1} << std::min<std::size_t>(5, bench.num_inputs - 1);
    const SolverStats warm = expect_warm_equals_cold(
        base, edited, options, bench.name.c_str(), true);
    EXPECT_EQ(warm.delta_researched, 1u) << bench.name;
    EXPECT_GE(warm.delta_reused, blocks - 1) << bench.name;
  }
}

TEST(IncrementalTest, PartitionedIdenticalResolveExploresNothing) {
  // Warm-identical traffic under the pre-split: all blocks root-hit, so
  // the whole re-solve explores zero relations and returns the identical
  // composed solution.
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite()[2], inputs, outputs);  // int3: 6 inputs
  SolverOptions options = deterministic_options(6);
  options.partition_inputs = 5;
  options.global_memo = std::make_shared<GlobalMemo>();
  DeltaRegistry registry;
  options.delta_registry = &registry;
  const SolveResult cold = BrelSolver(options).solve(r);
  const SolveResult warm = BrelSolver(options).solve(r);
  EXPECT_EQ(warm.cost, cold.cost);
  EXPECT_EQ(portable(r, warm), portable(r, cold));
  EXPECT_EQ(warm.stats.relations_explored, 0u);
  EXPECT_EQ(warm.stats.memo_hits, 32u);  // one root hit per block
}

TEST(IncrementalTest, FlipDifferentialsAreBitIdenticalParallel) {
  // Same bar across worker counts, on a suite subset (the parallel
  // engine's schedule-independence is pinned by its own suite-wide
  // differential tests; here the interesting axis is delta + injection).
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{8},
                        std::size_t{12}}) {
    const RelationBenchmark& bench = relation_suite()[i];
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
      for (const std::size_t flips : {std::size_t{1}, std::size_t{4}}) {
        BddManager mgr{0};
        std::vector<std::uint32_t> inputs;
        std::vector<std::uint32_t> outputs;
        const BooleanRelation base =
            make_benchmark_relation(mgr, bench, inputs, outputs);
        const BooleanRelation edited = flip_minterms(
            base, flips, bench.seed ^ static_cast<std::uint32_t>(flips));
        if (edited.characteristic() == base.characteristic()) {
          continue;
        }
        SolverOptions options = deterministic_options(6);
        options.num_workers = workers;
        const std::string label = bench.name + " k=" +
                                  std::to_string(flips) + " w=" +
                                  std::to_string(workers);
        (void)expect_warm_equals_cold(base, edited, options, label.c_str(),
                                      true);
      }
    }
  }
}

TEST(IncrementalTest, IdenticalResolveIsServedAtTheRoot) {
  // Delta = nothing is the warm-root fast path: the unchanged relation
  // root-hits the memo and explores zero nodes.
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite().front(), inputs, outputs);
  SolverOptions options = deterministic_options(6);
  options.global_memo = std::make_shared<GlobalMemo>();
  DeltaRegistry registry;
  options.delta_registry = &registry;

  const SolveResult cold = BrelSolver(options).solve(r);
  const SolveResult warm = BrelSolver(options).solve(r);
  EXPECT_EQ(warm.cost, cold.cost);
  EXPECT_EQ(portable(r, warm), portable(r, cold));
  EXPECT_EQ(warm.stats.relations_explored, 0u);
  EXPECT_EQ(warm.stats.memo_hits, 1u);
  EXPECT_FALSE(warm.stats.delta_active);  // a hit needs no diff

  // ...and a subsequent genuine edit misses the root entry (the memo
  // holds whole answers only) and searches; the plain engine never
  // diffs against the registry.
  const BooleanRelation edited = flip_minterms(r, 1, 99);
  ASSERT_FALSE(edited.characteristic() == r.characteristic());
  const SolveResult edit_run = BrelSolver(options).solve(edited);
  EXPECT_EQ(edit_run.stats.memo_hits, 0u);
  EXPECT_GT(edit_run.stats.relations_explored, 0u);
  EXPECT_FALSE(edit_run.stats.delta_active);
  EXPECT_TRUE(edited.is_compatible(edit_run.function));
}

TEST(IncrementalTest, CompletelyDifferentBaseStillYieldsColdResult) {
  // Delta = everything: the registry offers a base that shares nothing
  // with the request beyond its variable spaces.  The diff is then a
  // near-total change region — no reuse, but the overlay must stay
  // invisible in the result.
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const RelationBenchmark& spec = relation_suite().front();
  const BooleanRelation base =
      make_benchmark_relation(mgr, spec, inputs, outputs);
  const RelationBenchmark other_spec{"unrelated", spec.num_inputs,
                                     spec.num_outputs, 0xBADC0DEu};
  std::vector<std::uint32_t> other_inputs;
  std::vector<std::uint32_t> other_outputs;
  const BooleanRelation other =
      make_benchmark_relation(mgr, other_spec, other_inputs, other_outputs);
  ASSERT_FALSE(other.characteristic() == base.characteristic());
  (void)expect_warm_equals_cold(base, other, deterministic_options(6),
                                "disjoint base", true);
}

TEST(IncrementalTest, RootSplitOnlyEditOnTinyRelation) {
  // A one-minterm edit of the 2x2 Fig. 1 relation: the change region is
  // confined to one root-split half, the smallest nontrivial delta.
  BddManager mgr{0};
  const RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation base = fig1_relation(mgr, space);
  const BooleanRelation edited = flip_minterms(base, 1, 7);
  ASSERT_FALSE(edited.characteristic() == base.characteristic());
  (void)expect_warm_equals_cold(base, edited, deterministic_options(6),
                                "fig1 one-minterm", true);
}

TEST(IncrementalTest, ReorderedBaseManagerStillServesTheDelta) {
  // The base was solved from a manager whose variable order diverged
  // from identity.  Memo keys and registry bases are canonical
  // (identity-order serialized forms), so the edited request — parsed
  // into a plain identity-order manager — must still find the base, arm
  // the delta, and return the cold result.  The partitioned path is the
  // one that diffs against registry bases (partition.hpp).
  BddManager reordered{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const RelationBenchmark& spec = relation_suite().front();
  const BooleanRelation base_reordered =
      make_benchmark_relation(reordered, spec, inputs, outputs);
  reordered.reorder();

  const auto memo = std::make_shared<GlobalMemo>();
  DeltaRegistry registry;
  SolverOptions options = deterministic_options(6);
  options.partition_inputs = 5;
  options.global_memo = memo;
  options.delta_registry = &registry;
  const SolveResult warm_base = BrelSolver(options).solve(base_reordered);
  ASSERT_FALSE(warm_base.stats.budget_exhausted);

  BddManager plain{0};
  std::vector<std::uint32_t> plain_inputs;
  std::vector<std::uint32_t> plain_outputs;
  const BooleanRelation base_plain =
      make_benchmark_relation(plain, spec, plain_inputs, plain_outputs);
  const BooleanRelation edited = flip_minterms(base_plain, 1, 12345);
  ASSERT_FALSE(edited.characteristic() == base_plain.characteristic());

  SolverOptions cold_options = deterministic_options(6);
  cold_options.partition_inputs = 5;
  const SolveResult cold = BrelSolver(cold_options).solve(edited);
  const SolveResult warm = BrelSolver(options).solve(edited);
  EXPECT_TRUE(warm.stats.delta_active);
  EXPECT_EQ(warm.cost, cold.cost);
  EXPECT_EQ(portable(edited, warm), portable(edited, cold));
  EXPECT_TRUE(edited.is_compatible(warm.function));
}

}  // namespace
}  // namespace brel
