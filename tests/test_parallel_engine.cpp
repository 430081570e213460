// Differential tests for the multi-worker engine (parallel_engine.hpp).
//
// The load-bearing configuration is the schedule-independent one:
// use_cost_bound=false plus a max_depth cap (or a fully drained
// frontier) makes the explored node set a pure function of the relation
// — "every node at depth <= D" — so the parallel engine must return the
// *same* solution cost as the serial BFS engine for any worker count,
// across the whole benchmark suite.  On top of that: every returned
// function must satisfy the input relation, the global budget must not
// scale with workers, a single worker must reproduce the serial engine
// exactly even in schedule-dependent configurations, and the
// coordinator must reject setups that would alias manager state.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "benchgen/paper_relations.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/parallel_engine.hpp"
#include "brel/search.hpp"
#include "relation/enumeration.hpp"

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

/// A deterministic random relation: every input vertex gets 1-3 random
/// output vertices, so the relation is total and full of non-cube
/// flexibility.  Small enough (n <= 4) that the whole depth-uncapped
/// bound-free tree drains in milliseconds.
BooleanRelation random_relation(BddManager& mgr, std::size_t n,
                                std::size_t m, std::uint32_t seed) {
  std::mt19937 rng{seed};
  const auto vertex = [&](std::uint64_t code, std::size_t width) {
    std::string text(width, '0');
    for (std::size_t i = 0; i < width; ++i) {
      if (((code >> i) & 1u) != 0) {
        text[i] = '1';
      }
    }
    return text;
  };
  std::vector<std::pair<std::string, std::vector<std::string>>> rows;
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << n); ++x) {
    std::vector<std::string> image;
    const std::size_t count = 1 + rng() % 3;
    for (std::size_t k = 0; k < count; ++k) {
      image.push_back(vertex(rng() % (std::uint64_t{1} << m), m));
    }
    rows.emplace_back(vertex(x, n), std::move(image));
  }
  const std::uint32_t first =
      mgr.add_vars(static_cast<std::uint32_t>(n + m));
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(first + static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < m; ++i) {
    outputs.push_back(first + static_cast<std::uint32_t>(n + i));
  }
  return BooleanRelation::from_table(mgr, inputs, outputs, rows);
}

TEST(ParallelEngineTest, DepthCappedCostsEqualSerialAcrossFullSuite) {
  // The acceptance bar: at 1, 2 and 4 workers the returned cost equals
  // the serial BFS incumbent on every benchmark instance, and the
  // explored-node count (a fixed set in this configuration) matches too.
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    SolverOptions options = deterministic_options(6);
    const SolveResult serial = SearchEngine(r, options).run();
    ASSERT_TRUE(r.is_compatible(serial.function)) << bench.name;
    for (const std::size_t workers : {1u, 2u, 4u}) {
      options.num_workers = workers;
      const SolveResult parallel = ParallelEngine(r, options).run();
      EXPECT_DOUBLE_EQ(parallel.cost, serial.cost)
          << bench.name << " at " << workers << " workers";
      EXPECT_EQ(parallel.stats.relations_explored,
                serial.stats.relations_explored)
          << bench.name << " at " << workers << " workers";
      EXPECT_TRUE(r.is_compatible(parallel.function))
          << bench.name << " at " << workers << " workers";
      EXPECT_EQ(parallel.stats.workers, workers);
      EXPECT_EQ(parallel.worker_stats.size(), workers);
    }
  }
}

TEST(ParallelEngineTest, BatchedDonationPreservesScheduleIndependence) {
  // Donation batch size only changes WHO explores a node, never WHETHER
  // it is explored: donations move already-admitted frontier items, so
  // the depth-capped explored set — and the returned cost — must be
  // invariant across every (workers, steal_batch) combination,
  // including batches far larger than the frontier ever gets.
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite().front(), inputs, outputs);
  SolverOptions options = deterministic_options(6);
  const SolveResult serial = SearchEngine(r, options).run();
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    for (const std::size_t batch : {1u, 4u, 16u}) {
      options.num_workers = workers;
      options.steal_batch = batch;
      const SolveResult parallel = ParallelEngine(r, options).run();
      EXPECT_DOUBLE_EQ(parallel.cost, serial.cost)
          << workers << " workers, batch " << batch;
      EXPECT_EQ(parallel.stats.relations_explored,
                serial.stats.relations_explored)
          << workers << " workers, batch " << batch;
      EXPECT_TRUE(r.is_compatible(parallel.function))
          << workers << " workers, batch " << batch;
    }
  }
}

TEST(ParallelEngineTest, DepthCappedEqualityHoldsForDfsAndBestFirst) {
  // The fixed-set argument is strategy-agnostic: any frontier order over
  // the same truncated tree sees the same solutions.
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite().front(), inputs, outputs);
  for (const ExplorationOrder order :
       {ExplorationOrder::DepthFirst, ExplorationOrder::BestFirst}) {
    SolverOptions options = deterministic_options(6);
    options.order = order;
    const SolveResult serial = SearchEngine(r, options).run();
    options.num_workers = 4;
    const SolveResult parallel = ParallelEngine(r, options).run();
    EXPECT_DOUBLE_EQ(parallel.cost, serial.cost);
    EXPECT_EQ(parallel.stats.relations_explored,
              serial.stats.relations_explored);
    EXPECT_TRUE(r.is_compatible(parallel.function));
  }
}

TEST(ParallelEngineTest, RandomizedDrainedDifferentialSuite) {
  // Seeded random relations small enough to drain the *un*capped
  // bound-free tree: natural completion, where the incumbent is the
  // minimum over every solution the tree can yield — again a pure
  // function of the relation.
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    BddManager mgr{0};
    const std::size_t n = 3 + seed % 2;
    const std::size_t m = 2 + seed % 2;
    const BooleanRelation r = random_relation(mgr, n, m, 7919 * seed);
    if (!r.is_well_defined()) {
      continue;  // impossible (rows cover every vertex), but be explicit
    }
    SolverOptions options =
        deterministic_options(static_cast<std::size_t>(-1));
    options.max_relations = 200000;
    const SolveResult serial = SearchEngine(r, options).run();
    ASSERT_FALSE(serial.stats.budget_exhausted)
        << "seed " << seed << " did not drain; shrink the generator";
    for (const std::size_t workers : {2u, 4u}) {
      options.num_workers = workers;
      const SolveResult parallel = ParallelEngine(r, options).run();
      EXPECT_FALSE(parallel.stats.budget_exhausted);
      EXPECT_DOUBLE_EQ(parallel.cost, serial.cost)
          << "seed " << seed << " at " << workers << " workers";
      EXPECT_TRUE(r.is_compatible(parallel.function));
    }
  }
}

TEST(ParallelEngineTest, SingleWorkerReproducesSerialEngineExactly) {
  // With one worker the machinery (tickets, shared bound, injection
  // queue) must degenerate to the serial loop — including in the
  // schedule-dependent default configuration with the cost bound on.
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    SolverOptions options;
    options.cost = sum_of_bdd_sizes();
    options.max_relations = 25;
    const SolveResult serial = SearchEngine(r, options).run();
    options.num_workers = 1;
    const SolveResult parallel = ParallelEngine(r, options).run();
    EXPECT_DOUBLE_EQ(parallel.cost, serial.cost) << bench.name;
    EXPECT_EQ(parallel.stats.relations_explored,
              serial.stats.relations_explored)
        << bench.name;
    EXPECT_EQ(parallel.stats.splits, serial.stats.splits) << bench.name;
    EXPECT_EQ(parallel.stats.pruned_by_cost, serial.stats.pruned_by_cost)
        << bench.name;
  }
}

TEST(ParallelEngineTest, WorkMigratesAndStatsAddUp) {
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite()[2], inputs, outputs);  // int3: a wide tree
  SolverOptions options = deterministic_options(8);
  options.num_workers = 4;
  const SolveResult result = ParallelEngine(r, options).run();
  EXPECT_GT(result.stats.steals, 0u) << "no subproblem ever migrated";
  ASSERT_EQ(result.worker_stats.size(), 4u);
  std::size_t explored = 0;
  std::size_t participants = 0;
  for (const SolverStats& w : result.worker_stats) {
    explored += w.relations_explored;
    participants += w.relations_explored > 0 ? 1 : 0;
  }
  EXPECT_EQ(explored, result.stats.relations_explored);
  EXPECT_GT(participants, 1u) << "work never left worker 0";
}

TEST(ParallelEngineTest, GlobalBudgetDoesNotScaleWithWorkers) {
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r =
      make_benchmark_relation(mgr, relation_suite()[2], inputs, outputs);
  SolverOptions options;
  options.cost = sum_of_bdd_sizes();
  options.max_relations = 10;
  options.num_workers = 4;
  const SolveResult result = ParallelEngine(r, options).run();
  EXPECT_LE(result.stats.relations_explored, 10u);
  EXPECT_TRUE(result.stats.budget_exhausted);
  EXPECT_TRUE(r.is_compatible(result.function));
}

TEST(ParallelEngineTest, TimeoutStopsTheFleetWithACompatibleResult) {
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r =
      make_benchmark_relation(mgr, relation_suite()[2], inputs, outputs);
  SolverOptions options = deterministic_options(static_cast<std::size_t>(-1));
  options.timeout = std::chrono::milliseconds(30);  // int3 cannot drain
  options.num_workers = 4;
  const SolveResult result = ParallelEngine(r, options).run();
  EXPECT_TRUE(result.stats.budget_exhausted);
  EXPECT_TRUE(r.is_compatible(result.function));
}

TEST(ParallelEngineTest, ShortTimeoutTerminatesAnIdleBlockedFleetPromptly) {
  // Deadline audit (see acquire_injected): a worker blocked on the
  // injection queue must notice the deadline through the timed-wait
  // heartbeat, not only between expansions.  With 8 workers on one
  // small root, most of the fleet spends the whole run blocked waiting
  // for donations — if only busy workers watched the clock, the blocked
  // ones would hang until a donation happened to arrive.  The run must
  // end promptly (heartbeat period is 20ms; allow generous slack for
  // sanitizer builds), report budget_exhausted consistently in the
  // merged stats, and still return a compatible function.
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r =
      make_benchmark_relation(mgr, relation_suite()[2], inputs, outputs);
  SolverOptions options = deterministic_options(static_cast<std::size_t>(-1));
  options.timeout = std::chrono::milliseconds(30);  // int3 cannot drain
  options.num_workers = 8;
  const auto start = std::chrono::steady_clock::now();
  const SolveResult result = ParallelEngine(r, options).run();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 10.0) << "fleet did not notice the deadline promptly";
  EXPECT_TRUE(result.stats.budget_exhausted);
  EXPECT_TRUE(r.is_compatible(result.function));
  // At least one worker recorded the exhaustion in its own stats (the
  // per-worker flag mirrors the serial engine's contract).
  bool any_worker_flagged = false;
  for (const SolverStats& w : result.worker_stats) {
    any_worker_flagged = any_worker_flagged || w.budget_exhausted;
  }
  EXPECT_TRUE(any_worker_flagged);
}

TEST(ParallelEngineTest, FreshGlobalMemoLeavesResultsUntouched) {
  // Within a single solve the memo cannot self-hit (Property 5.4), so
  // attaching an empty memo must not change the schedule-independent
  // result — serial or parallel.
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite().front(), inputs, outputs);
  SolverOptions plain = deterministic_options(6);
  const SolveResult reference = SearchEngine(r, plain).run();
  for (const std::size_t workers : {1u, 4u}) {
    SolverOptions with_memo = plain;
    with_memo.global_memo = std::make_shared<GlobalMemo>();
    with_memo.num_workers = workers;
    const SolveResult result = ParallelEngine(r, with_memo).run();
    EXPECT_EQ(result.stats.memo_hits, 0u) << "in-tree self-hit at "
                                          << workers << " workers";
    EXPECT_DOUBLE_EQ(result.cost, reference.cost);
    EXPECT_EQ(result.stats.relations_explored,
              reference.stats.relations_explored);
    EXPECT_TRUE(r.is_compatible(result.function));
  }
}

TEST(ParallelEngineTest, WarmGlobalMemoShortCircuitsTheWholeFleet) {
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite().front(), inputs, outputs);
  SolverOptions options = deterministic_options(6);
  options.global_memo = std::make_shared<GlobalMemo>();
  options.num_workers = 4;
  const SolveResult cold = ParallelEngine(r, options).run();
  // Warm: the coordinator's root probe answers before any thread spawns.
  const SolveResult warm = ParallelEngine(r, options).run();
  EXPECT_EQ(warm.stats.relations_explored, 0u);
  EXPECT_EQ(warm.stats.memo_hits, 1u);
  EXPECT_DOUBLE_EQ(warm.cost, cold.cost);
  EXPECT_TRUE(r.is_compatible(warm.function));
  // The serial engine hits the same memo: manager-independence means the
  // warm path does not care who explored first.
  options.num_workers = 1;
  const SolveResult serial_warm = SearchEngine(r, options).run();
  EXPECT_EQ(serial_warm.stats.relations_explored, 0u);
  EXPECT_DOUBLE_EQ(serial_warm.cost, cold.cost);
}

TEST(ParallelEngineTest, DrainedFleetPublishesExactlyItsResult) {
  // The coordinator publishes the fleet's returned result under the root
  // key once, so the warm entry equals the cold answer byte for byte even
  // when the winning solution was found in stolen work.
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite()[2], inputs, outputs);
  const MemoSpace space = make_memo_space(r);
  const GlobalMemoKey key = make_memo_key(space, r.characteristic());
  for (const std::size_t workers : {2u, 4u}) {
    SolverOptions options = deterministic_options(6);
    options.global_memo = std::make_shared<GlobalMemo>();
    options.num_workers = workers;
    const SolveResult result = ParallelEngine(r, options).run();
    ASSERT_FALSE(result.stats.budget_exhausted);
    ASSERT_EQ(result.stats.fifo_overflow, 0u);
    EXPECT_EQ(options.global_memo->size(), 1u) << workers << " workers";
    EXPECT_EQ(options.global_memo->publishes(), 1u) << workers << " workers";
    const std::optional<PortableSolution> entry =
        options.global_memo->lookup(key);
    ASSERT_TRUE(entry.has_value()) << workers << " workers";
    EXPECT_EQ(*entry,
              make_portable_solution(space, result.function, result.cost))
        << workers << " workers";
  }
}

TEST(ParallelEngineTest, InterruptedFleetPublishesNothing) {
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite()[8], inputs, outputs);

  SolverOptions budget = deterministic_options(6);
  budget.global_memo = std::make_shared<GlobalMemo>();
  budget.num_workers = 2;
  budget.max_relations = 2;
  const SolveResult stopped = ParallelEngine(r, budget).run();
  ASSERT_TRUE(stopped.stats.budget_exhausted);
  EXPECT_EQ(budget.global_memo->size(), 0u);

  SolverOptions timed = budget;
  timed.global_memo = std::make_shared<GlobalMemo>();
  timed.max_relations = static_cast<std::size_t>(-1);
  timed.max_depth = static_cast<std::size_t>(-1);
  timed.exact = true;
  timed.timeout = std::chrono::milliseconds(1);
  const SolveResult timed_out = ParallelEngine(r, timed).run();
  ASSERT_TRUE(timed_out.stats.budget_exhausted);
  EXPECT_EQ(timed.global_memo->size(), 0u);

  SolverOptions overflow = deterministic_options(6);
  overflow.global_memo = std::make_shared<GlobalMemo>();
  overflow.num_workers = 2;
  overflow.fifo_capacity = 1;
  const SolveResult dropped = ParallelEngine(r, overflow).run();
  ASSERT_FALSE(dropped.stats.budget_exhausted);
  ASSERT_GT(dropped.stats.fifo_overflow, 0u);
  EXPECT_EQ(overflow.global_memo->size(), 0u);
}

TEST(ParallelEngineTest, ExactModeMatchesEnumeratedOptimum) {
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  for (const BooleanRelation& r : {fig1_relation(mgr, space),
                                   fig10_relation(mgr, space),
                                   fig8_relation(mgr, space)}) {
    const ExactOptimum truth = exact_optimum(r, sum_of_bdd_sizes());
    SolverOptions options;
    options.exact = true;
    options.cost = sum_of_bdd_sizes();
    options.num_workers = 2;
    const SolveResult result = ParallelEngine(r, options).run();
    EXPECT_DOUBLE_EQ(result.cost, truth.cost);
    EXPECT_TRUE(r.is_compatible(result.function));
  }
}

TEST(ParallelEngineTest, FacadeDispatchesOnWorkerCount) {
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions options;
  options.num_workers = 2;
  const SolveResult parallel = BrelSolver(options).solve(r);
  EXPECT_EQ(parallel.stats.workers, 2u);
  EXPECT_EQ(parallel.worker_stats.size(), 2u);
  options.num_workers = 1;
  const SolveResult serial = BrelSolver(options).solve(r);
  EXPECT_EQ(serial.stats.workers, 1u);
  EXPECT_TRUE(serial.worker_stats.empty());
}

TEST(ParallelEngineTest, ResolvesWorkerCounts) {
  EXPECT_GE(resolve_worker_count(0), 1u);
  EXPECT_EQ(resolve_worker_count(3), 3u);
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = fig1_relation(mgr, space);
  SolverOptions options;
  options.num_workers = 3;
  EXPECT_EQ(ParallelEngine(r, options).worker_count(), 3u);
}

TEST(ParallelEngineTest, RejectsSharedSubproblemCache) {
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = fig1_relation(mgr, space);
  SolverOptions options;
  options.num_workers = 2;
  options.subproblem_cache = std::make_shared<SubproblemCache>();
  EXPECT_THROW(ParallelEngine(r, options), std::invalid_argument);
}

TEST(ParallelEngineTest, RejectsIllDefinedRelation) {
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = fig1_relation(mgr, space);
  const BooleanRelation broken = r.constrain_with(
      !(mgr.literal(space.inputs[0], true) &
        mgr.literal(space.inputs[1], false)));
  SolverOptions options;
  options.num_workers = 2;
  EXPECT_THROW(ParallelEngine(broken, options), std::invalid_argument);
}

TEST(ParallelEngineTest, PropagatesCostFunctionFailures) {
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite().front(), inputs, outputs);
  SolverOptions options = deterministic_options(6);
  options.num_workers = 2;
  options.cost = [](const MultiFunction&) -> double {
    throw std::runtime_error("cost function exploded");
  };
  EXPECT_THROW((void)ParallelEngine(r, options).run(), std::runtime_error);
}

}  // namespace
}  // namespace brel
