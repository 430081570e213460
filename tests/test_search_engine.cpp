// Tests for the pluggable search-engine layer: frontier strategy
// semantics (FIFO / LIFO / best-first ordering, capacity, move-only
// items), the subproblem cache (in-tree no-duplicate invariant and
// cross-solve dedup), the SearchEngine driver, strategy-independence
// of exact mode, and the global memo's root entry (published once, by
// drained runs only).

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "benchgen/paper_relations.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/search.hpp"
#include "relation/enumeration.hpp"

namespace brel {
namespace {

// Items move through the frontier; copying a subproblem would duplicate
// the whole characteristic-BDD handle chain for nothing.
static_assert(!std::is_copy_constructible_v<Subproblem>);
static_assert(std::is_nothrow_move_constructible_v<Subproblem>);

class FrontierTest : public ::testing::Test {
 protected:
  BddManager mgr{4};
  BooleanRelation rel = BooleanRelation::full(mgr, {0, 1}, {2, 3});

  Subproblem item(std::size_t depth, double priority = 0.0) {
    Subproblem sub{rel, depth};
    sub.priority = priority;
    return sub;
  }
};

TEST_F(FrontierTest, FifoPopsInInsertionOrder) {
  BoundedFifoFrontier fifo{100};
  EXPECT_TRUE(fifo.empty());
  for (std::size_t d : {1u, 2u, 3u}) {
    EXPECT_TRUE(fifo.try_push(item(d)));
  }
  EXPECT_EQ(fifo.size(), 3u);
  EXPECT_EQ(fifo.pop().depth, 1u);
  EXPECT_EQ(fifo.pop().depth, 2u);
  EXPECT_EQ(fifo.pop().depth, 3u);
  EXPECT_TRUE(fifo.empty());
}

TEST_F(FrontierTest, LifoPopsInReverseOrder) {
  LifoFrontier lifo{100};
  for (std::size_t d : {1u, 2u, 3u}) {
    EXPECT_TRUE(lifo.try_push(item(d)));
  }
  EXPECT_EQ(lifo.pop().depth, 3u);
  EXPECT_EQ(lifo.pop().depth, 2u);
  EXPECT_EQ(lifo.pop().depth, 1u);
}

TEST_F(FrontierTest, BestFirstPopsCheapestWithFifoTieBreak) {
  BestFirstFrontier best{100};
  EXPECT_TRUE(best.wants_priority());
  EXPECT_TRUE(best.try_push(item(1, 5.0)));
  EXPECT_TRUE(best.try_push(item(2, 1.0)));
  EXPECT_TRUE(best.try_push(item(3, 5.0)));
  EXPECT_TRUE(best.try_push(item(4, 3.0)));
  EXPECT_EQ(best.pop().depth, 2u);  // priority 1
  EXPECT_EQ(best.pop().depth, 4u);  // priority 3
  EXPECT_EQ(best.pop().depth, 1u);  // priority 5, inserted first
  EXPECT_EQ(best.pop().depth, 3u);  // priority 5, inserted second
}

TEST_F(FrontierTest, CapacityBoundsPushesButNotTheRoot) {
  for (const ExplorationOrder order :
       {ExplorationOrder::BreadthFirst, ExplorationOrder::DepthFirst,
        ExplorationOrder::BestFirst}) {
    const auto frontier = make_frontier(order, 2);
    EXPECT_TRUE(frontier->try_push(item(1)));
    EXPECT_TRUE(frontier->try_push(item(2)));
    EXPECT_FALSE(frontier->try_push(item(3)));  // full
    EXPECT_EQ(frontier->size(), 2u);
    frontier->push_root(item(0));  // the root bypasses the bound
    EXPECT_EQ(frontier->size(), 3u);
  }
}

TEST_F(FrontierTest, FactoryMakesMatchingStrategy) {
  EXPECT_NE(dynamic_cast<BoundedFifoFrontier*>(
                make_frontier(ExplorationOrder::BreadthFirst, 1).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<LifoFrontier*>(
                make_frontier(ExplorationOrder::DepthFirst, 1).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<BestFirstFrontier*>(
                make_frontier(ExplorationOrder::BestFirst, 1).get()),
            nullptr);
}

class SearchEngineTest : public ::testing::Test {
 protected:
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
};

TEST_F(SearchEngineTest, AllStrategiesFindCompatibleSolutionsOnPaperSuite) {
  for (const BooleanRelation& r : {fig1_relation(mgr, space),
                                   fig10_relation(mgr, space),
                                   fig8_relation(mgr, space)}) {
    for (const ExplorationOrder order :
         {ExplorationOrder::BreadthFirst, ExplorationOrder::DepthFirst,
          ExplorationOrder::BestFirst}) {
      SolverOptions options;
      options.order = order;
      options.max_relations = 20;
      const SolveResult result = BrelSolver(options).solve(r);
      EXPECT_TRUE(r.is_compatible(result.function));
      EXPECT_GT(result.stats.relations_explored, 0u);
    }
  }
}

TEST_F(SearchEngineTest, ExactModeCostIsStrategyIndependent) {
  for (const BooleanRelation& r : {fig1_relation(mgr, space),
                                   fig10_relation(mgr, space),
                                   fig8_relation(mgr, space)}) {
    const ExactOptimum truth = exact_optimum(r, sum_of_bdd_sizes());
    for (const ExplorationOrder order :
         {ExplorationOrder::BreadthFirst, ExplorationOrder::DepthFirst,
          ExplorationOrder::BestFirst}) {
      SolverOptions options;
      options.exact = true;
      options.cost = sum_of_bdd_sizes();
      options.order = order;
      const SolveResult result = BrelSolver(options).solve(r);
      EXPECT_DOUBLE_EQ(result.cost, truth.cost);
      EXPECT_TRUE(r.is_compatible(result.function));
    }
  }
}

TEST_F(SearchEngineTest, BestFirstEscapesQuickSolverLocalMinimum) {
  // Fig. 10: like BFS/DFS, the cost-directed order must reach the 2-cube
  // optimum the ERI paradigm cannot.
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.cost = sum_of_squared_bdd_sizes();
  options.order = ExplorationOrder::BestFirst;
  const SolveResult result = BrelSolver(options).solve(r);
  EXPECT_DOUBLE_EQ(result.cost, 8.0);
}

TEST_F(SearchEngineTest, BestFirstPrecomputesCandidatesAtPushTime) {
  // In exact mode every strategy expands the same finite tree (no
  // order-dependent cost pruning), so split counts match; best-first
  // never minimizes more than once per relation (terminals are priced
  // via extract_function, not the projections).
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions bfs;
  bfs.exact = true;
  SolverOptions best = bfs;
  best.order = ExplorationOrder::BestFirst;
  const SolveResult a = BrelSolver(bfs).solve(r);
  const SolveResult b = BrelSolver(best).solve(r);
  EXPECT_EQ(a.stats.splits, b.stats.splits);
  EXPECT_GE(b.stats.misf_minimizations, a.stats.misf_minimizations);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST_F(SearchEngineTest, EngineMatchesSolverFacade) {
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.max_relations = 25;
  SearchEngine engine(r, options);
  const SolveResult direct = engine.run();
  const SolveResult facade = BrelSolver(options).solve(r);
  EXPECT_DOUBLE_EQ(direct.cost, facade.cost);
  EXPECT_EQ(direct.stats.relations_explored,
            facade.stats.relations_explored);
  EXPECT_EQ(engine.context().stats.relations_explored,
            direct.stats.relations_explored);
}

TEST_F(SearchEngineTest, InfiniteCostStillReturnsCompatibleFunction) {
  // The QuickSolver seed must survive even a cost function that maps
  // every candidate to +inf: solve() promises a compatible function, not
  // an empty one.
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.cost = [](const MultiFunction&) {
    return std::numeric_limits<double>::infinity();
  };
  const SolveResult result = BrelSolver(options).solve(r);
  EXPECT_EQ(result.function.num_outputs(), r.num_outputs());
  EXPECT_TRUE(r.is_compatible(result.function));
}

TEST_F(SearchEngineTest, EngineOutlivesConstructorArguments) {
  // The engine copies its root and options; a temporary SolverOptions
  // must not dangle (the ASan CI job would flag it if it did).
  const BooleanRelation r = fig10_relation(mgr, space);
  SearchEngine engine(r, SolverOptions{});
  const SolveResult result = engine.run();
  EXPECT_TRUE(r.is_compatible(result.function));
}

TEST_F(SearchEngineTest, EngineRejectsIllDefinedRelation) {
  const BooleanRelation r = fig1_relation(mgr, space);
  const BooleanRelation broken = r.constrain_with(
      !(mgr.literal(space.inputs[0], true) &
        mgr.literal(space.inputs[1], false)));
  EXPECT_THROW(SearchEngine(broken, SolverOptions{}), std::invalid_argument);
}

// ------------------------------------------------ global memo root entry

/// A run that drains: unlimited budget and a depth cap.
SolverOptions drained_options(ExplorationOrder order, bool cost_bound) {
  SolverOptions options;
  options.cost = sum_of_bdd_sizes();
  options.max_relations = static_cast<std::size_t>(-1);
  options.max_depth = 6;
  options.use_cost_bound = cost_bound;
  options.order = order;
  options.global_memo = std::make_shared<GlobalMemo>();
  return options;
}

/// The memo's root entry for `r` (a depth-0 probe with the full key).
std::optional<PortableSolution> root_entry(GlobalMemo& memo,
                                           const BooleanRelation& r) {
  return memo.lookup(make_memo_key(make_memo_space(r), r.characteristic()));
}

TEST(GlobalMemoRootTest, DrainedRunPublishesExactlyItsResult) {
  // One entry, one publish, and the entry is the returned result byte
  // for byte — whatever cost-bound prunes cut the tree on the way.
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r =
      make_benchmark_relation(mgr, relation_suite()[2], inputs, outputs);
  for (const ExplorationOrder order :
       {ExplorationOrder::BreadthFirst, ExplorationOrder::DepthFirst,
        ExplorationOrder::BestFirst}) {
    for (const bool cost_bound : {false, true}) {
      const SolverOptions options = drained_options(order, cost_bound);
      const SolveResult result = SearchEngine(r, options).run();
      ASSERT_FALSE(result.stats.budget_exhausted);
      ASSERT_EQ(result.stats.fifo_overflow, 0u);
      GlobalMemo& memo = *options.global_memo;
      EXPECT_EQ(memo.size(), 1u);
      EXPECT_EQ(memo.publishes(), 1u);
      const std::optional<PortableSolution> entry = root_entry(memo, r);
      ASSERT_TRUE(entry.has_value());
      EXPECT_EQ(*entry, make_portable_solution(make_memo_space(r),
                                               result.function, result.cost));
    }
  }
}

TEST(GlobalMemoRootTest, InterruptedRunsPublishNothing) {
  // A partial result can never be served: budget stops, timeouts and
  // frontier-overflow drops leave the memo empty.
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r =
      make_benchmark_relation(mgr, relation_suite()[8], inputs, outputs);

  SolverOptions budget = drained_options(ExplorationOrder::BreadthFirst, true);
  budget.max_relations = 2;
  const SolveResult stopped = SearchEngine(r, budget).run();
  ASSERT_TRUE(stopped.stats.budget_exhausted);
  EXPECT_EQ(budget.global_memo->size(), 0u);
  EXPECT_EQ(budget.global_memo->publishes(), 0u);

  // Exact mode over the largest suite instance cannot drain in 1 ms.
  SolverOptions timed = drained_options(ExplorationOrder::BreadthFirst, true);
  timed.exact = true;
  timed.max_depth = static_cast<std::size_t>(-1);
  timed.timeout = std::chrono::milliseconds(1);
  const SolveResult timed_out = SearchEngine(r, timed).run();
  ASSERT_TRUE(timed_out.stats.budget_exhausted);
  EXPECT_EQ(timed.global_memo->size(), 0u);

  SolverOptions overflow =
      drained_options(ExplorationOrder::BreadthFirst, false);
  overflow.fifo_capacity = 1;
  const SolveResult dropped = SearchEngine(r, overflow).run();
  ASSERT_FALSE(dropped.stats.budget_exhausted);
  ASSERT_GT(dropped.stats.fifo_overflow, 0u);
  EXPECT_EQ(overflow.global_memo->size(), 0u);

  // The next identical solve then misses and searches again.
  const SolveResult again = SearchEngine(r, overflow).run();
  EXPECT_EQ(again.stats.memo_hits, 0u);
  EXPECT_EQ(again.stats.relations_explored, dropped.stats.relations_explored);
}

// ------------------------------------------------------ subproblem cache

TEST(SubproblemCacheTest, DetectsExactDuplicatesOnly) {
  BddManager mgr{3};
  SubproblemCache cache;
  const Bdd f = mgr.var(0) & mgr.var(1);
  EXPECT_FALSE(cache.seen_before_or_insert(f));
  EXPECT_TRUE(cache.seen_before_or_insert(f));
  EXPECT_TRUE(cache.contains(f));
  EXPECT_FALSE(cache.contains(mgr.var(2)));
  EXPECT_FALSE(cache.seen_before_or_insert(mgr.var(0) & mgr.var(2)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.probes(), 3u);
}

TEST(SubproblemCacheTest, CapacityStopsInsertionNotProbing) {
  BddManager mgr{4};
  SubproblemCache cache{2};
  EXPECT_FALSE(cache.seen_before_or_insert(mgr.var(0)));
  EXPECT_FALSE(cache.seen_before_or_insert(mgr.var(1)));
  EXPECT_FALSE(cache.seen_before_or_insert(mgr.var(2)));  // full: dropped
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.seen_before_or_insert(mgr.var(2)));  // still unseen
  EXPECT_TRUE(cache.seen_before_or_insert(mgr.var(0)));   // cached ones hit
}

TEST(SubproblemCacheTest, InTreeDuplicatesAreImpossible) {
  // Property 5.4 corollary: Split partitions the image at the split
  // vertex, so no two nodes of one solve tree share a characteristic
  // function.  A cold solve must therefore never dedup anything — on the
  // whole benchmark suite, under every strategy.
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    for (const ExplorationOrder order :
         {ExplorationOrder::BreadthFirst, ExplorationOrder::DepthFirst,
          ExplorationOrder::BestFirst}) {
      SolverOptions options;
      options.order = order;
      options.max_relations = 30;
      options.subproblem_cache = std::make_shared<SubproblemCache>();
      const SolveResult result = BrelSolver(options).solve(r);
      EXPECT_EQ(result.stats.pruned_by_cache, 0u)
          << bench.name << ": in-tree duplicate — Property 5.4 violated";
    }
  }
}

TEST(SubproblemCacheTest, PrivateCacheLeavesResultsUntouched) {
  // With a fresh cache nothing can hit within one solve, so arming one
  // must not change any outcome.
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  for (const BooleanRelation& r : {fig1_relation(mgr, space),
                                   fig10_relation(mgr, space),
                                   fig8_relation(mgr, space)}) {
    SolverOptions plain;
    plain.max_relations = 40;
    SolverOptions cached = plain;
    cached.subproblem_cache = std::make_shared<SubproblemCache>();
    const SolveResult a = BrelSolver(plain).solve(r);
    const SolveResult b = BrelSolver(cached).solve(r);
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
    EXPECT_EQ(a.stats.relations_explored, b.stats.relations_explored);
    EXPECT_EQ(a.stats.splits, b.stats.splits);
  }
}

TEST(SubproblemCacheTest, ImprovementsToPresentEntriesLandAtCapacity) {
  // The capacity bound stops *insertions*, not memo improvements: a
  // better solution discovered after the cache fills must still update
  // the entries that are present (a full cache that silently froze its
  // memos would keep offering stale, costlier solutions on every hit).
  BddManager mgr{4};
  SubproblemCache cache{1};
  const Bdd inside = mgr.var(0);
  const Bdd outside = mgr.var(1);
  EXPECT_FALSE(cache.seen_before_or_insert(inside));
  EXPECT_FALSE(cache.seen_before_or_insert(outside));  // full: dropped
  ASSERT_EQ(cache.size(), 1u);

  MultiFunction f;
  f.outputs.push_back(mgr.var(2));
  const detail::Edge chain[] = {inside.raw_edge(), outside.raw_edge()};
  cache.improve(chain, f, 10.0);
  const CachedSolution* entry = cache.seen_before_or_insert(inside);
  ASSERT_TRUE(entry != nullptr && entry->has_solution());
  EXPECT_DOUBLE_EQ(entry->cost, 10.0);

  // The better solution found later lands on the present entry...
  cache.improve(chain, f, 4.0);
  entry = cache.seen_before_or_insert(inside);
  ASSERT_TRUE(entry != nullptr);
  EXPECT_DOUBLE_EQ(entry->cost, 4.0);
  // ...a worse one does not regress it...
  cache.improve(chain, f, 7.0);
  entry = cache.seen_before_or_insert(inside);
  ASSERT_TRUE(entry != nullptr);
  EXPECT_DOUBLE_EQ(entry->cost, 4.0);
  // ...and the dropped edge stays unmemoized (skipped, not resurrected).
  EXPECT_EQ(cache.seen_before_or_insert(outside), nullptr);
}

TEST(SubproblemCacheTest, BindRejectsMismatchedFingerprints) {
  SubproblemCache cache;
  const CacheFingerprint size_fp{"size", false, {0, 1}, {2, 3}};
  cache.bind(size_fp);
  cache.bind(size_fp);  // idempotent re-bind of the same configuration
  // Different objective, mode, or variable spaces: all rejected.
  EXPECT_THROW(cache.bind(CacheFingerprint{"size2", false, {0, 1}, {2, 3}}),
               std::invalid_argument);
  EXPECT_THROW(cache.bind(CacheFingerprint{"size", true, {0, 1}, {2, 3}}),
               std::invalid_argument);
  EXPECT_THROW(cache.bind(CacheFingerprint{"size", false, {0, 1, 2}, {3}}),
               std::invalid_argument);
  // rebind_or_clear recycles instead: entries drop, stamp moves on.
  BddManager mgr{4};
  (void)cache.seen_before_or_insert(mgr.var(0));
  EXPECT_EQ(cache.size(), 1u);
  cache.rebind_or_clear(CacheFingerprint{"size2", false, {0, 1}, {2, 3}});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_THROW(cache.bind(size_fp), std::invalid_argument);
}

TEST(SubproblemCacheTest, SharingAcrossCostFunctionsIsRejected) {
  // The wrong-pruning scenario the fingerprint prevents: warm a shared
  // cache under the "size" objective, then re-solve under "size2".
  // Without the stamp, the warm run would prune its subtrees and offer
  // the size-optimal memos — whose recorded costs are measured in a
  // different unit — as size2 incumbents, silently returning a function
  // that no size2 exploration would have chosen.  With the stamp the
  // incompatible reuse is an error at engine construction.
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.max_relations = 40;
  options.cost = sum_of_bdd_sizes();
  options.subproblem_cache = std::make_shared<SubproblemCache>();
  const SolveResult cold = BrelSolver(options).solve(r);
  EXPECT_TRUE(r.is_compatible(cold.function));

  SolverOptions mismatched = options;
  mismatched.cost = sum_of_squared_bdd_sizes();
  EXPECT_THROW((void)BrelSolver(mismatched).solve(r), std::invalid_argument);
  // Same for a mode flip: exact exploration must not be pruned by memos
  // of a budget-limited run.
  SolverOptions exact_reuse = options;
  exact_reuse.exact = true;
  EXPECT_THROW((void)BrelSolver(exact_reuse).solve(r), std::invalid_argument);
  // And for a different relation over different spaces (the raw-edge
  // keys would alias — e.g. constant characteristics — so the spaces are
  // part of the stamp).
  BooleanRelation other =
      BooleanRelation::full(mgr, {space.inputs[0]}, {space.outputs[0]});
  EXPECT_THROW((void)BrelSolver(options).solve(other), std::invalid_argument);

  // The legitimate sharing pattern still works after the failed binds.
  const SolveResult warm = BrelSolver(options).solve(r);
  EXPECT_DOUBLE_EQ(warm.cost, cold.cost);
  EXPECT_GT(warm.stats.pruned_by_cache, 0u);
}

TEST(SubproblemCacheTest, AnonymousCostFunctionsNeverFalselyMatch) {
  // Two independently written lambdas could compute different costs, so
  // they get distinct identities; copies of one CostFunction (the normal
  // way options are reused) share theirs.
  const CostFunction a = [](const MultiFunction&) { return 1.0; };
  const CostFunction b = [](const MultiFunction&) { return 1.0; };
  EXPECT_NE(a.id(), b.id());
  const CostFunction a_copy = a;  // NOLINT(performance-unnecessary-copy)
  EXPECT_EQ(a.id(), a_copy.id());
  EXPECT_EQ(sum_of_bdd_sizes().id(), sum_of_bdd_sizes().id());
}

TEST(SubproblemCacheTest, SharedCacheDedupsAcrossSolves) {
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.max_relations = 40;
  options.subproblem_cache = std::make_shared<SubproblemCache>();
  const SolveResult cold = BrelSolver(options).solve(r);
  EXPECT_EQ(cold.stats.pruned_by_cache, 0u);
  const SolveResult warm = BrelSolver(options).solve(r);
  // The warm run prunes re-encountered subtrees...
  EXPECT_GT(warm.stats.pruned_by_cache, 0u);
  EXPECT_LT(warm.stats.relations_explored, cold.stats.relations_explored);
  // ...and each pruned subtree offers its memoized best, so the warm
  // result matches first-run quality at a fraction of the exploration.
  EXPECT_DOUBLE_EQ(warm.cost, cold.cost);
  EXPECT_TRUE(r.is_compatible(warm.function));
  EXPECT_GT(options.subproblem_cache->hits(), 0u);
}

}  // namespace
}  // namespace brel
