// Tests for the BREL solver core: QuickSolver, ISF minimizer strategies,
// the recursive branch-and-bound, exactness against enumeration, symmetry
// pruning and budget handling.

#include <gtest/gtest.h>

#include <random>
#include <span>

#include "bdd/bdd_transfer.hpp"
#include "benchgen/paper_relations.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/solver.hpp"
#include "relation/enumeration.hpp"

namespace brel {
namespace {

class BrelSolverTest : public ::testing::Test {
 protected:
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);

  Bdd a() { return mgr.var(space.inputs[0]); }
  Bdd b() { return mgr.var(space.inputs[1]); }
};

TEST_F(BrelSolverTest, QuickSolverReturnsCompatibleSolution) {
  for (const BooleanRelation& r : {fig1_relation(mgr, space),
                                   fig10_relation(mgr, space),
                                   fig8_relation(mgr, space)}) {
    const MultiFunction f = quick_solve(r);
    EXPECT_TRUE(r.is_compatible(f));
  }
}

TEST_F(BrelSolverTest, QuickSolverRejectsIllDefinedRelation) {
  const BooleanRelation r = fig1_relation(mgr, space);
  const BooleanRelation broken =
      r.constrain_with(!(mgr.literal(space.inputs[0], true) &
                         mgr.literal(space.inputs[1], false)));
  EXPECT_THROW((void)quick_solve(broken), std::invalid_argument);
}

TEST_F(BrelSolverTest, QuickSolverIsGreedyOnFig10) {
  // Sec. 9.1: the quick solution gives all flexibility to the first output
  // (x ⇔ 1) and leaves the second unbalanced (y ⇔ !a + b).
  const BooleanRelation r = fig10_relation(mgr, space);
  const MultiFunction f = quick_solve(r);
  EXPECT_TRUE(f.outputs[0].is_one());
  EXPECT_TRUE(f.outputs[1] == ((!a()) | b()));
}

TEST_F(BrelSolverTest, SolverEscapesQuickSolverLocalMinimum) {
  // Fig. 10: BREL must find the 2-cube optimum (x ⇔ !b)(y ⇔ !a), which the
  // expand-reduce-irredundant paradigm cannot reach.
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.cost = sum_of_squared_bdd_sizes();
  const SolveResult result = BrelSolver(options).solve(r);
  EXPECT_TRUE(r.is_compatible(result.function));
  EXPECT_TRUE(result.function.outputs[0] == !b());
  EXPECT_TRUE(result.function.outputs[1] == !a());
  EXPECT_DOUBLE_EQ(result.cost, 8.0);
}

TEST_F(BrelSolverTest, SolverSolutionAlwaysCompatible) {
  for (const BooleanRelation& r : {fig1_relation(mgr, space),
                                   fig10_relation(mgr, space),
                                   fig8_relation(mgr, space)}) {
    const SolveResult result = BrelSolver().solve(r);
    EXPECT_TRUE(r.is_compatible(result.function));
    EXPECT_GT(result.stats.relations_explored, 0u);
  }
}

TEST_F(BrelSolverTest, SolverRejectsIllDefinedRelation) {
  const BooleanRelation r = fig1_relation(mgr, space);
  const BooleanRelation broken =
      r.constrain_with(!(mgr.literal(space.inputs[0], true) &
                         mgr.literal(space.inputs[1], false)));
  EXPECT_THROW((void)BrelSolver().solve(broken), std::invalid_argument);
}

TEST_F(BrelSolverTest, FunctionalRelationIsTerminalCase) {
  // A functional relation has exactly one solution; the solver must return
  // it immediately.
  MultiFunction f;
  f.outputs = {a() ^ b(), a() & b()};
  const BooleanRelation any =
      BooleanRelation::full(mgr, space.inputs, space.outputs);
  const BooleanRelation rf =
      any.constrain_with(any.function_characteristic(f));
  const SolveResult result = BrelSolver().solve(rf);
  EXPECT_TRUE(result.function.outputs[0] == f.outputs[0]);
  EXPECT_TRUE(result.function.outputs[1] == f.outputs[1]);
  EXPECT_EQ(result.stats.splits, 0u);
}

TEST_F(BrelSolverTest, ExactModeMatchesEnumerationOnPaperRelations) {
  for (const BooleanRelation& r : {fig1_relation(mgr, space),
                                   fig10_relation(mgr, space),
                                   fig8_relation(mgr, space)}) {
    SolverOptions options;
    options.exact = true;
    options.cost = sum_of_bdd_sizes();
    const SolveResult result = BrelSolver(options).solve(r);
    const ExactOptimum truth = exact_optimum(r, sum_of_bdd_sizes());
    EXPECT_DOUBLE_EQ(result.cost, truth.cost);
    EXPECT_TRUE(r.is_compatible(result.function));
  }
}

TEST_F(BrelSolverTest, ExactModeMatchesEnumerationUnderSquaredCost) {
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.exact = true;
  options.cost = sum_of_squared_bdd_sizes();
  const SolveResult result = BrelSolver(options).solve(r);
  const ExactOptimum truth = exact_optimum(r, sum_of_squared_bdd_sizes());
  EXPECT_DOUBLE_EQ(result.cost, truth.cost);
}

TEST_F(BrelSolverTest, BudgetOfOneStillYieldsASolution) {
  // Sec. 7.6: QuickSolver guarantees a solution no matter how small the
  // exploration budget is.
  SolverOptions options;
  options.max_relations = 1;
  const BooleanRelation r = fig10_relation(mgr, space);
  const SolveResult result = BrelSolver(options).solve(r);
  EXPECT_TRUE(r.is_compatible(result.function));
}

TEST_F(BrelSolverTest, FifoCapacityDropsChildrenButKeepsSolutions) {
  SolverOptions options;
  options.max_relations = 100;
  options.fifo_capacity = 1;
  const BooleanRelation r = fig10_relation(mgr, space);
  const SolveResult result = BrelSolver(options).solve(r);
  EXPECT_TRUE(r.is_compatible(result.function));
}

TEST_F(BrelSolverTest, LargerBudgetNeverWorsensTheSolution) {
  const BooleanRelation r = fig10_relation(mgr, space);
  double previous = std::numeric_limits<double>::infinity();
  for (const std::size_t budget : {1u, 2u, 5u, 10u, 50u}) {
    SolverOptions options;
    options.max_relations = budget;
    const SolveResult result = BrelSolver(options).solve(r);
    EXPECT_LE(result.cost, previous);
    previous = result.cost;
  }
}

TEST_F(BrelSolverTest, StatsAreConsistent) {
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.max_relations = 10;
  const SolveResult result = BrelSolver(options).solve(r);
  const SolverStats& s = result.stats;
  EXPECT_GE(s.solutions_seen, 1u);
  EXPECT_GE(s.quick_solutions, 1u);
  EXPECT_LE(s.relations_explored, 10u);
  // Each split produces at most two quick solutions beyond the root one.
  EXPECT_LE(s.quick_solutions, 1 + 2 * s.splits);
  EXPECT_GT(s.runtime_seconds, 0.0);
}

TEST_F(BrelSolverTest, SymmetryPruningSkipsMirroredBranch) {
  // Fig. 8: after the first split the two subrelations are images of each
  // other under the output swap x <-> y, so one of them is pruned.
  const BooleanRelation r = fig8_relation(mgr, space);
  SolverOptions with_sym;
  with_sym.use_symmetry = true;
  with_sym.max_relations = 100;
  const SolveResult pruned = BrelSolver(with_sym).solve(r);
  EXPECT_GT(pruned.stats.pruned_by_symmetry, 0u);
  EXPECT_TRUE(r.is_compatible(pruned.function));

  SolverOptions without_sym;
  without_sym.use_symmetry = false;
  without_sym.max_relations = 100;
  const SolveResult full = BrelSolver(without_sym).solve(r);
  // Permutation-invariant cost: pruning must not change the result cost.
  EXPECT_DOUBLE_EQ(pruned.cost, full.cost);
}

TEST_F(BrelSolverTest, SymmetryCacheDetectsSwapAndComplementedSwap) {
  SymmetryCache cache(mgr, space.outputs);
  const Bdd x = mgr.var(space.outputs[0]);
  const Bdd y = mgr.var(space.outputs[1]);
  const Bdd chi = (a() & x & !y) | ((!a()) & !x & y);
  EXPECT_FALSE(cache.seen_before_or_insert(chi));
  EXPECT_TRUE(cache.seen_before_or_insert(chi));  // itself
  // Swap image.
  const Bdd swapped = (a() & y & !x) | ((!a()) & !y & x);
  EXPECT_TRUE(cache.seen_before_or_insert(swapped));
  // Complemented-swap image: x -> !y, y -> !x.
  const Bdd skewed = (a() & !y & x) | ((!a()) & y & !x);
  EXPECT_TRUE(cache.seen_before_or_insert(skewed));
  // An unrelated relation is not reported.
  const Bdd other = b() & x & y;
  EXPECT_FALSE(cache.seen_before_or_insert(other));
  EXPECT_EQ(cache.hits(), 3u);
}

TEST_F(BrelSolverTest, CostFunctionsEvaluateAsDocumented) {
  MultiFunction f;
  f.outputs = {a() & b(), mgr.one()};
  // BDD sizes: and = 3 nodes (two decisions + terminal), one = 1 node.
  EXPECT_DOUBLE_EQ(sum_of_bdd_sizes()(f), 4.0);
  EXPECT_DOUBLE_EQ(sum_of_squared_bdd_sizes()(f), 10.0);
  EXPECT_DOUBLE_EQ(cube_count_cost()(f), 2.0);   // "ab" + universal cube
  EXPECT_DOUBLE_EQ(literal_count_cost()(f), 2.0);
}

TEST_F(BrelSolverTest, CustomCostFunctionGuidesTheSearch) {
  // Cost that *punishes* balanced solutions: prefer all flexibility on one
  // output.  The solver should then keep the quick solution (x ⇔ 1).
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.cost = [](const MultiFunction& f) {
    // Reward constant outputs.
    double c = 0.0;
    for (const Bdd& g : f.outputs) {
      c += g.is_constant() ? 0.0 : 10.0 + static_cast<double>(g.size());
    }
    return c;
  };
  options.exact = true;
  const SolveResult result = BrelSolver(options).solve(r);
  EXPECT_TRUE(result.function.outputs[0].is_constant());
}

class IsfMinimizerMethodTest : public ::testing::TestWithParam<IsfMethod> {};

TEST_P(IsfMinimizerMethodTest, ResultAlwaysInsideInterval) {
  BddManager mgr{6};
  std::mt19937 rng{42};
  for (int iter = 0; iter < 30; ++iter) {
    // Random ISF over 6 variables via random ON/DC tables.
    Bdd on = mgr.zero();
    Bdd dc = mgr.zero();
    for (std::uint32_t i = 0; i < 64; ++i) {
      Bdd minterm = mgr.one();
      for (std::uint32_t j = 0; j < 6; ++j) {
        minterm = minterm & mgr.literal(j, ((i >> j) & 1u) != 0);
      }
      switch (rng() % 3) {
        case 0:
          on = on | minterm;
          break;
        case 1:
          dc = dc | minterm;
          break;
        default:
          break;
      }
    }
    const Isf isf(on, dc & !on);
    for (const bool elim : {false, true}) {
      const IsfMinimizer minimizer{GetParam(), elim};
      const Bdd f = minimizer.minimize(isf);
      EXPECT_TRUE(isf.contains(f))
          << "method violates the ISF interval (elim=" << elim << ")";
      const IsopResult cover = minimizer.minimize_to_cover(isf);
      EXPECT_TRUE(isf.contains(cover.function));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, IsfMinimizerMethodTest,
                         ::testing::Values(IsfMethod::Isop,
                                           IsfMethod::Constrain,
                                           IsfMethod::Restrict,
                                           IsfMethod::SafeRestrict));

// ---------------------------------------------------------------------------
// The minimize memo: IsfMinimizer::minimize results kept in the computed
// table under BddOp::Minimize, keyed on the interval (ON, upper).
// ---------------------------------------------------------------------------

/// Random ISF over `vars` variables: every minterm lands in ON, DC or OFF.
Isf random_isf(BddManager& mgr, std::mt19937& rng, std::uint32_t vars) {
  Bdd on = mgr.zero();
  Bdd dc = mgr.zero();
  for (std::uint32_t i = 0; i < (1u << vars); ++i) {
    Bdd minterm = mgr.one();
    for (std::uint32_t j = 0; j < vars; ++j) {
      minterm = minterm & mgr.literal(j, ((i >> j) & 1u) != 0);
    }
    switch (rng() % 3) {
      case 0:
        on = on | minterm;
        break;
      case 1:
        dc = dc | minterm;
        break;
      default:
        break;
    }
  }
  return Isf(on, dc);
}

std::uint64_t minimize_hits(const BddManager& mgr) {
  return mgr.stats().op_hits[static_cast<std::size_t>(BddOp::Minimize)];
}
std::uint64_t minimize_lookups(const BddManager& mgr) {
  return mgr.stats().op_lookups[static_cast<std::size_t>(BddOp::Minimize)];
}

TEST(MinimizeMemoTest, HitEqualsUncachedMinimization) {
  BddManager mgr{6};
  std::mt19937 rng{7};
  for (int iter = 0; iter < 20; ++iter) {
    const Isf isf = random_isf(mgr, rng, 6);
    for (const IsfMethod method :
         {IsfMethod::Isop, IsfMethod::Constrain, IsfMethod::Restrict,
          IsfMethod::SafeRestrict}) {
      for (const bool elim : {false, true}) {
        const IsfMinimizer minimizer{method, elim};
        const Bdd first = minimizer.minimize(isf);
        const std::uint64_t hits = minimize_hits(mgr);
        const Bdd again = minimizer.minimize(isf);
        EXPECT_EQ(minimize_hits(mgr), hits + 1) << "second call must hit";
        EXPECT_TRUE(again == first);
        // Uncached: a GC empties the computed table, so this recomputes.
        mgr.garbage_collect();
        const Bdd recomputed = minimizer.minimize(isf);
        EXPECT_EQ(minimize_hits(mgr), hits + 1) << "GC must drop the memo";
        EXPECT_TRUE(recomputed == first);
      }
    }
  }
}

TEST(MinimizeMemoTest, KeyIsTheInterval) {
  // The key is (ON, upper): the same interval reached through either
  // constructor shares one entry, and a different upper bound with the
  // same ON does not.
  BddManager mgr{6};
  std::mt19937 rng{10};
  const IsfMinimizer minimizer{};
  for (int iter = 0; iter < 20; ++iter) {
    const Isf isf = random_isf(mgr, rng, 6);
    const Bdd first = minimizer.minimize(isf);
    std::uint64_t hits = minimize_hits(mgr);
    EXPECT_TRUE(minimizer.minimize(Isf::interval(isf.on(), isf.max())) ==
                first);
    EXPECT_EQ(minimize_hits(mgr), hits + 1);
    if (isf.is_completely_specified()) {
      continue;
    }
    hits = minimize_hits(mgr);
    (void)minimizer.minimize(Isf::exact(isf.on()));
    EXPECT_EQ(minimize_hits(mgr), hits) << "a narrower interval hit";
  }
}

/// The minimizer as it was before the node-free essential test and the
/// function-only ISOP: greedy ∃/∀ elimination over the upper bound's
/// support, then the cover-building ISOP.
Bdd quantified_reference(BddManager& mgr, const Isf& isf) {
  Bdd lower = isf.min();
  Bdd upper = isf.max();
  for (const std::uint32_t var : upper.support()) {
    const std::span<const std::uint32_t> one_var(&var, 1);
    Bdd new_lower = mgr.exists(lower, one_var);
    Bdd new_upper = mgr.forall(upper, one_var);
    if (new_lower.subset_of(new_upper)) {
      lower = std::move(new_lower);
      upper = std::move(new_upper);
    }
  }
  return mgr.isop(lower, upper).function;
}

TEST(MinimizeMemoTest, IsopMinimizationMatchesQuantifiedReference) {
  BddManager mgr{7};
  std::mt19937 rng{11};
  const IsfMinimizer minimizer{};
  for (int iter = 0; iter < 40; ++iter) {
    const Isf isf = random_isf(mgr, rng, 7);
    const Bdd expected = quantified_reference(mgr, isf);
    mgr.garbage_collect();  // uncached
    EXPECT_TRUE(minimizer.minimize(isf) == expected);
    if (iter % 8 == 0) {
      mgr.reorder();  // the reference is recomputed in the new order
    }
  }
}

TEST(MinimizeMemoTest, MethodsDoNotShareEntries) {
  BddManager mgr{6};
  std::mt19937 rng{8};
  const IsfMinimizer isop{IsfMethod::Isop, true};
  const IsfMinimizer restricter{IsfMethod::Restrict, true};
  int differing = 0;
  for (int iter = 0; iter < 20; ++iter) {
    const Isf isf = random_isf(mgr, rng, 6);
    mgr.garbage_collect();
    const Bdd uncached_restrict = restricter.minimize(isf);
    mgr.garbage_collect();
    const Bdd by_isop = isop.minimize(isf);
    const std::uint64_t hits = minimize_hits(mgr);
    const Bdd by_restrict = restricter.minimize(isf);
    EXPECT_EQ(minimize_hits(mgr), hits) << "Restrict hit an Isop entry";
    EXPECT_TRUE(by_restrict == uncached_restrict);
    differing += by_restrict == by_isop ? 0 : 1;
  }
  // The two kernels disagree on some ISFs, so a shared entry would show.
  EXPECT_GT(differing, 0);
}

TEST(MinimizeMemoTest, EntriesDieWithGcReorderAndReset) {
  const IsfMinimizer minimizer{};
  BddManager mgr{0};
  const auto build = [&mgr] {
    (void)mgr.add_vars(6);
    std::mt19937 rng{9};
    return random_isf(mgr, rng, 6);
  };
  const auto expect_miss = [&](const Isf& isf, const char* after) {
    const std::uint64_t hits = minimize_hits(mgr);
    const std::uint64_t lookups = minimize_lookups(mgr);
    (void)minimizer.minimize(isf);
    EXPECT_EQ(minimize_lookups(mgr), lookups + 1);
    EXPECT_EQ(minimize_hits(mgr), hits) << "memo entry survived " << after;
  };
  {
    const Isf isf = build();
    (void)minimizer.minimize(isf);
    mgr.garbage_collect();
    expect_miss(isf, "garbage_collect");
    mgr.reorder();
    expect_miss(isf, "reorder");
    // Control: with nothing in between, the same call hits.
    const std::uint64_t hits = minimize_hits(mgr);
    (void)minimizer.minimize(isf);
    EXPECT_EQ(minimize_hits(mgr), hits + 1);
  }
  // Rebuilding the same ISF after a reset reproduces the same node
  // indices, so a surviving entry would be found under the same key.
  ASSERT_TRUE(mgr.reset_variables());
  const Isf isf = build();
  expect_miss(isf, "reset_variables");
}

TEST(MinimizeMemoTest, SuiteHitsWithUnchangedCostAndExploration) {
  // The schedule-independent configuration (no bound, depth cap 6): cost
  // and exploration over the suite are pure functions of the relations,
  // so the memo must leave both exactly where the uncached solver had
  // them while serving repeat minimizations.  The memo serves the BDD
  // path: in the generated order (outputs below inputs) every node runs
  // on relation tables, which never probe it, so each relation is also
  // solved with its outputs moved above its inputs, where every node runs
  // on BDDs.  Neither order moves the costs (the solutions range over the
  // inputs, whose relative order is the same) or the exploration.
  SolverOptions options;
  options.cost = sum_of_bdd_sizes();
  options.max_relations = static_cast<std::size_t>(-1);
  options.use_cost_bound = false;
  options.max_depth = 6;
  double cost = 0.0;
  double bdd_path_cost = 0.0;
  std::size_t explored = 0;
  std::size_t bdd_path_explored = 0;
  std::uint64_t hits = 0;
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    const SolveResult result = BrelSolver(options).solve(r);
    EXPECT_TRUE(r.is_compatible(result.function)) << bench.name;
    cost += result.cost;
    explored += result.stats.relations_explored;

    BddManager top{0};
    (void)top.add_vars(mgr.num_vars());
    std::vector<std::uint32_t> order = outputs;
    order.insert(order.end(), inputs.begin(), inputs.end());
    top.seed_block_order(0, order);
    const BooleanRelation s(top, inputs, outputs,
                            transfer_bdd(r.characteristic(), top));
    const SolveResult on_bdds = BrelSolver(options).solve(s);
    EXPECT_TRUE(s.is_compatible(on_bdds.function)) << bench.name;
    bdd_path_cost += on_bdds.cost;
    bdd_path_explored += on_bdds.stats.relations_explored;
    hits += minimize_hits(top);
  }
  EXPECT_GT(hits, 0u);
  EXPECT_DOUBLE_EQ(cost, 817.0);
  EXPECT_EQ(explored, 1915u);
  EXPECT_DOUBLE_EQ(bdd_path_cost, 817.0);
  EXPECT_EQ(bdd_path_explored, 1915u);
}

}  // namespace
}  // namespace brel
