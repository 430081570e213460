// Tests for dynamic variable reordering (bdd_reorder.cpp) and its
// interplay with the rest of the stack.
//
// The load-bearing properties:
//   - semantics: after forced sifting every function still evaluates /
//     sat-counts exactly like a no-reorder reference manager (randomized
//     differential over <= 12 variables);
//   - in-place survival: external Bdd handles, raw edges and reference
//     counts are intact after any number of swaps (check_integrity
//     validates store structure, refcounts and external-root bookkeeping
//     node by node);
//   - effectiveness: on the classic worst-order pair function sifting
//     shrinks the DAG by well over the 2x acceptance bar;
//   - order independence of the transfer layer: serialization (and hence
//     GlobalMemo keys and .bdd bodies) is byte-identical from managers in
//     different orders, and import/deserialize re-canonicalize correctly
//     in both directions;
//   - the auto trigger fires through garbage_collect_if_needed, and the
//     solver's reorder={on,auto} modes return compatible solutions.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/bdd_transfer.hpp"
#include "benchgen/paper_relations.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/solver.hpp"
#include "relation/relation.hpp"

namespace brel {
namespace {

/// Deterministic random expression tree over `vars` variables (the same
/// sequence of manager calls builds the same function in any manager).
Bdd random_function(BddManager& mgr, std::mt19937& rng, std::uint32_t vars,
                    int depth) {
  if (depth == 0) {
    return mgr.literal(rng() % vars, rng() % 2 == 0);
  }
  const Bdd lhs = random_function(mgr, rng, vars, depth - 1);
  const Bdd rhs = random_function(mgr, rng, vars, depth - 1);
  switch (rng() % 3) {
    case 0:
      return lhs | rhs;
    case 1:
      return lhs ^ rhs;
    default:
      return lhs & rhs;
  }
}

/// Truth-table equality over all 2^vars assignments.
void expect_same_function(const Bdd& a, const Bdd& b, std::uint32_t vars) {
  std::vector<bool> assignment(
      std::max(a.manager()->num_vars(), b.manager()->num_vars()), false);
  for (std::uint32_t m = 0; m < (1u << vars); ++m) {
    for (std::uint32_t v = 0; v < vars; ++v) {
      assignment[v] = ((m >> v) & 1u) != 0;
    }
    ASSERT_EQ(a.eval(assignment), b.eval(assignment))
        << "functions diverge on minterm " << m;
  }
}

/// The classic worst-order family: f = OR_i (x_i AND x_{k+i}) with the
/// partners maximally separated in the identity order — exponential as
/// built, linear once the pairs are interleaved.
Bdd pair_function(BddManager& mgr, std::uint32_t k) {
  Bdd f = mgr.zero();
  for (std::uint32_t i = 0; i < k; ++i) {
    f = f | (mgr.var(i) & mgr.var(k + i));
  }
  return f;
}

TEST(BddReorderTest, WorstOrderPairFunctionShrinksAtLeast2x) {
  constexpr std::uint32_t k = 10;
  BddManager mgr{2 * k};
  const Bdd f = pair_function(mgr, k);
  const std::size_t before = f.size();
  ASSERT_GT(before, 1u << k) << "the bad order should be exponential";

  mgr.reorder();
  mgr.check_integrity();
  const std::size_t after = f.size();
  EXPECT_LE(after * 2, before) << "sifting must shrink the DAG >= 2x";
  EXPECT_LE(after, 4 * k) << "the interleaved order is linear in k";
  EXPECT_GE(mgr.stats().reorders, 1u);
  EXPECT_GT(mgr.stats().reorder_swaps, 0u);
  EXPECT_FALSE(mgr.has_identity_order());

  // Spot-check semantics on the reordered DAG.
  BddManager ref{2 * k};
  const Bdd g = pair_function(ref, k);
  std::vector<bool> assignment(2 * k, false);
  std::mt19937 rng{7};
  for (int trial = 0; trial < 2000; ++trial) {
    for (std::uint32_t v = 0; v < 2 * k; ++v) {
      assignment[v] = (rng() & 1u) != 0;
    }
    ASSERT_EQ(f.eval(assignment), g.eval(assignment));
  }
  EXPECT_DOUBLE_EQ(mgr.sat_count(f, 2 * k), ref.sat_count(g, 2 * k));
}

TEST(BddReorderTest, DisjointSupportsSkipSwapsAndSurviveSifting) {
  // Two pair functions over DISJOINT variable halves: no root depends on
  // both halves, so the interaction matrix lets every swap of a
  // cross-half level pair reduce to a pure table flip (counted in
  // reorder_swap_skips), while within-half swaps still do real work —
  // both functions must shrink and keep their truth tables.
  constexpr std::uint32_t k = 4;
  BddManager mgr{8 * k};
  Bdd f = mgr.zero();  // over variables [0, 4k)
  for (std::uint32_t i = 0; i < k; ++i) {
    f = f | (mgr.var(i) & mgr.var(2 * k + i));
  }
  Bdd g = mgr.zero();  // over variables [4k, 8k)
  for (std::uint32_t i = 0; i < k; ++i) {
    g = g | (mgr.var(4 * k + i) & mgr.var(6 * k + i));
  }
  const std::size_t before = f.size() + g.size();

  mgr.reorder();
  mgr.check_integrity();

  EXPECT_GT(mgr.stats().reorder_swaps, 0u);
  EXPECT_GT(mgr.stats().reorder_swap_skips, 0u)
      << "sifting a variable across the foreign half must skip";
  EXPECT_LT(f.size() + g.size(), before);

  // Semantics: both functions intact against a no-reorder reference.
  BddManager ref{8 * k};
  Bdd rf = ref.zero();
  Bdd rg = ref.zero();
  for (std::uint32_t i = 0; i < k; ++i) {
    rf = rf | (ref.var(i) & ref.var(2 * k + i));
    rg = rg | (ref.var(4 * k + i) & ref.var(6 * k + i));
  }
  std::vector<bool> assignment(8 * k, false);
  std::mt19937 rng{11};
  for (int trial = 0; trial < 2000; ++trial) {
    for (std::uint32_t v = 0; v < 8 * k; ++v) {
      assignment[v] = (rng() & 1u) != 0;
    }
    ASSERT_EQ(f.eval(assignment), rf.eval(assignment));
    ASSERT_EQ(g.eval(assignment), rg.eval(assignment));
  }
}

TEST(BddReorderTest, RandomizedDifferentialAgainstNoReorderReference) {
  // Forced sifting on one manager, none on the other, truth tables must
  // match exactly — across many seeds, with several functions alive per
  // manager so sifting has real sharing to preserve.
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    constexpr std::uint32_t kVars = 12;
    BddManager mgr{kVars};
    BddManager ref{kVars};
    std::mt19937 rng_a{seed};
    std::mt19937 rng_b{seed};
    std::vector<Bdd> fs;
    std::vector<Bdd> gs;
    for (int i = 0; i < 4; ++i) {
      fs.push_back(random_function(mgr, rng_a, kVars, 4));
      gs.push_back(random_function(ref, rng_b, kVars, 4));
    }
    const double sat_before = mgr.sat_count(fs[0], kVars);

    mgr.reorder();
    mgr.check_integrity();

    for (int i = 0; i < 4; ++i) {
      expect_same_function(fs[i], gs[i], kVars);
      EXPECT_DOUBLE_EQ(mgr.sat_count(fs[i], kVars),
                       ref.sat_count(gs[i], kVars))
          << "seed " << seed << " function " << i;
    }
    EXPECT_DOUBLE_EQ(mgr.sat_count(fs[0], kVars), sat_before);

    // The reordered manager keeps working: new ops on old handles, GC,
    // and a second sift all preserve the functions.
    const Bdd combined = (fs[0] & fs[1]) ^ fs[2];
    const Bdd ref_combined = (gs[0] & gs[1]) ^ gs[2];
    expect_same_function(combined, ref_combined, kVars);
    mgr.garbage_collect();
    mgr.reorder();
    mgr.check_integrity();
    expect_same_function(fs[3], gs[3], kVars);
  }
}

TEST(BddReorderTest, HandlesAndRefcountsSurviveSwaps) {
  constexpr std::uint32_t kVars = 8;
  BddManager mgr{kVars};
  std::mt19937 rng{3};
  const Bdd f = random_function(mgr, rng, kVars, 4);
  // Several handles to one node, some dropped later: the refcount /
  // external-root bookkeeping must stay exact across the sift.
  std::vector<Bdd> copies(5, f);
  const Bdd negated = !f;
  copies.pop_back();
  copies.pop_back();

  mgr.reorder();
  mgr.check_integrity();  // validates refcounts and external_roots_

  // The handles still denote f / !f.
  EXPECT_EQ(copies.front().raw_edge(), f.raw_edge());
  std::vector<bool> assignment(kVars, false);
  for (std::uint32_t m = 0; m < (1u << kVars); ++m) {
    for (std::uint32_t v = 0; v < kVars; ++v) {
      assignment[v] = ((m >> v) & 1u) != 0;
    }
    ASSERT_EQ(f.eval(assignment), copies.front().eval(assignment));
    ASSERT_NE(f.eval(assignment), negated.eval(assignment));
  }
  // Dropping every handle after a reorder leaves a collectible store.
  copies.clear();
  mgr.garbage_collect();
  mgr.check_integrity();
}

TEST(BddReorderTest, SerializationIsOrderIndependent) {
  constexpr std::uint32_t kVars = 10;
  BddManager mgr{kVars};
  BddManager ref{kVars};
  std::mt19937 rng_a{11};
  std::mt19937 rng_b{11};
  const Bdd f = random_function(mgr, rng_a, kVars, 4);
  const Bdd g = random_function(ref, rng_b, kVars, 4);

  const SerializedBdd before = serialize_bdd(f);
  mgr.reorder();
  ASSERT_FALSE(mgr.has_identity_order());
  const SerializedBdd after = serialize_bdd(f);
  // Byte-identical node lists: the canonical form ignores the manager's
  // internal order — this is the invariant GlobalMemo keys stand on.
  EXPECT_EQ(before, after);
  EXPECT_EQ(serialize_bdd(g), after);

  // Round trips in every direction.
  BddManager dst{kVars};
  expect_same_function(deserialize_bdd(dst, after), g, kVars);  // to identity
  BddManager dst2{kVars};
  dst2.reorder();  // no nodes: order stays identity; force one manually
  const Bdd warm = pair_function(dst2, kVars / 2);
  dst2.reorder();
  expect_same_function(deserialize_bdd(dst2, after), g, kVars);  // reordered
  expect_same_function(dst2.import_bdd(f), g, kVars);    // reordered both
  expect_same_function(ref.import_bdd(f), g, kVars);     // reordered source
  (void)warm;
}

TEST(BddReorderTest, AutoReorderTriggersThroughGc) {
  constexpr std::uint32_t k = 10;
  BddManager mgr{2 * k};
  mgr.set_auto_reorder(true, /*first_trigger=*/256);
  const Bdd f = pair_function(mgr, k);
  ASSERT_GT(f.size(), 256u);
  EXPECT_EQ(mgr.stats().reorders, 0u);  // nothing ran yet

  mgr.garbage_collect_if_needed(/*dead_node_threshold=*/1);
  EXPECT_GE(mgr.stats().reorders, 1u);
  EXPECT_LE(f.size() * 2, std::size_t{1} << k);
  mgr.check_integrity();

  // The threshold doubled past the post-sift size: an immediate second
  // check must NOT re-sift.
  const std::uint64_t runs = mgr.stats().reorders;
  mgr.garbage_collect_if_needed(1);
  EXPECT_EQ(mgr.stats().reorders, runs);
}

TEST(BddReorderTest, SolverModesReturnCompatibleSolutions) {
  // reorder=on / auto are heuristics: costs may differ from off, but the
  // returned function must stay a compatible solution of the relation.
  for (const ReorderMode mode :
       {ReorderMode::Off, ReorderMode::On, ReorderMode::Auto}) {
    BddManager mgr{0};
    RelationSpace space = make_space(mgr, 2, 2);
    const BooleanRelation r = fig10_relation(mgr, space);
    SolverOptions options;
    options.reorder = mode;
    options.max_relations = 50;
    const SolveResult result = BrelSolver(options).solve(r);
    EXPECT_TRUE(r.is_compatible(result.function))
        << "mode " << static_cast<int>(mode);
    mgr.check_integrity();
  }
}

TEST(BddReorderTest, EveryEngineReportsItsSwaps) {
  // Serial, parallel and partitioned solves all report the adjacent-level
  // swaps their sifting made: a run that sifted swapped something, and a
  // parallel run's total is the sum over its workers.  BREL_REORDER may
  // override the mode (auto need not sift at this size), so the checks
  // are conditional on a sift having run.
  const RelationBenchmark& bench = relation_suite()[2];
  for (const std::size_t workers : {1u, 2u}) {
    for (const std::size_t partition : {0u, 2u}) {
      BddManager mgr{0};
      std::vector<std::uint32_t> inputs;
      std::vector<std::uint32_t> outputs;
      const BooleanRelation r =
          make_benchmark_relation(mgr, bench, inputs, outputs);
      SolverOptions options;
      options.reorder = ReorderMode::On;
      options.num_workers = workers;
      options.partition_inputs = partition;
      options.max_relations = static_cast<std::size_t>(-1);
      options.max_depth = 4;
      options.use_cost_bound = false;
      const SolveResult result = BrelSolver(options).solve(r);
      const std::string label = "workers=" + std::to_string(workers) +
                                " partition=" + std::to_string(partition);
      EXPECT_TRUE(r.is_compatible(result.function)) << label;
      if (result.stats.reorders > 0) {
        EXPECT_GT(result.stats.reorder_swaps, 0u) << label;
      }
      if (!result.worker_stats.empty()) {
        std::size_t swaps = 0;
        for (const SolverStats& w : result.worker_stats) {
          swaps += w.reorder_swaps;
        }
        EXPECT_EQ(result.stats.reorder_swaps, swaps) << label;
      }
    }
  }
}

TEST(BddReorderTest, KernelOpsAgreeOnReorderedManagers) {
  // Cross-kernel differential on a reordered manager: every public op
  // must agree with the identity-order reference (the kernels recurse on
  // levels; this is the net that catches a missed var/level comparison).
  constexpr std::uint32_t kVars = 9;
  BddManager mgr{kVars};
  BddManager ref{kVars};
  std::mt19937 rng_a{29};
  std::mt19937 rng_b{29};
  const Bdd fa = random_function(mgr, rng_a, kVars, 4);
  const Bdd fb = random_function(mgr, rng_a, kVars, 4);
  const Bdd ga = random_function(ref, rng_b, kVars, 4);
  const Bdd gb = random_function(ref, rng_b, kVars, 4);
  mgr.reorder();
  ASSERT_FALSE(mgr.has_identity_order());

  const std::vector<std::uint32_t> q{1, 3, 5, 7};
  expect_same_function(mgr.bdd_and(fa, fb), ref.bdd_and(ga, gb), kVars);
  expect_same_function(mgr.bdd_xor(fa, fb), ref.bdd_xor(ga, gb), kVars);
  expect_same_function(mgr.ite(fa, fb, !fa), ref.ite(ga, gb, !ga), kVars);
  expect_same_function(mgr.exists(fa, q), ref.exists(ga, q), kVars);
  expect_same_function(mgr.forall(fa, q), ref.forall(ga, q), kVars);
  expect_same_function(mgr.and_exists(fa, fb, q), ref.and_exists(ga, gb, q),
                       kVars);
  expect_same_function(mgr.cofactor(fa, 4, true), ref.cofactor(ga, 4, true),
                       kVars);
  EXPECT_EQ(mgr.leq(fa, fb), ref.leq(ga, gb));
  EXPECT_EQ(mgr.leq(fa, mgr.bdd_or(fa, fb)), true);
  if (!fb.is_zero()) {
    // constrain/restrict are order-sensitive heuristics; only their
    // contracts transfer: the result agrees with f on the care set.
    const Bdd constrained = mgr.constrain(fa, fb);
    const Bdd diff = (constrained ^ fa) & fb;
    EXPECT_TRUE(diff.is_zero());
    const Bdd restricted = mgr.restrict_to(fa, fb);
    EXPECT_TRUE(((restricted ^ fa) & fb).is_zero());
  }
  if (!fa.is_zero()) {
    const IsopResult sop = mgr.isop(fa, fa);
    expect_same_function(sop.function, ga, kVars);
    const Cube cube = mgr.shortest_cube(fa);
    // The cube is an implicant of fa whatever the order.
    std::vector<std::uint32_t> var_map(kVars);
    for (std::uint32_t v = 0; v < kVars; ++v) {
      var_map[v] = v;
    }
    EXPECT_TRUE(mgr.cube_bdd(cube, var_map).subset_of(fa));
  }
  const std::vector<bool> minterm = mgr.pick_minterm(fa);
  EXPECT_TRUE(fa.eval(minterm));
  EXPECT_EQ(fa.support(), ga.support());
  mgr.check_integrity();
}

}  // namespace
}  // namespace brel
