// Tests for the solver-pool service layer (solver_pool.hpp) and the
// manager-independent cross-solve memo underneath it (global_memo.hpp).
//
// The load-bearing properties:
//   - canonical keys: the same relation produces byte-identical memo
//     keys in any manager at any variable offset;
//   - pool results are bit-identical (rank-mapped serialized outputs,
//     not just costs) to the serial engine in the schedule-independent
//     configuration, at 1, 2 and 4 workers;
//   - a warm re-solve of an identical relation is served by the memo at
//     zero exploration while returning the cold run's cost;
//   - concurrent submission from many threads is safe (this file is part
//     of the TSan CI job);
//   - memo capacity drops new keys but still lands improvements to
//     present keys, and mismatched fingerprint reuse is rejected;
//   - the memo holds whole answers: one entry per distinct relation,
//     one publish per root miss, however long the pool runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/paper_relations.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/search.hpp"
#include "brel/solver_pool.hpp"
#include "relation/relation_io.hpp"

namespace brel {
namespace {

/// The schedule-independent configuration (cf. test_parallel_engine.cpp):
/// no cost bound plus a depth cap makes the explored set — and with the
/// deterministic serial engine, the returned function — a pure function
/// of the relation.
SolverOptions deterministic_options(std::size_t max_depth) {
  SolverOptions options;
  options.cost = sum_of_bdd_sizes();
  options.max_relations = static_cast<std::size_t>(-1);
  options.use_cost_bound = false;
  options.max_depth = max_depth;
  return options;
}

/// Serial reference: parse `text` into a fresh manager, run the serial
/// engine, and return the solution in the portable rank form the pool
/// reports — the comparison is then a plain struct equality.
PoolResult serial_reference(const std::string& text,
                            const SolverOptions& options) {
  BddManager mgr{0};
  const BooleanRelation r = read_relation(mgr, text);
  const SolveResult solved = SearchEngine(r, options).run();
  PoolResult out;
  out.solution =
      make_portable_solution(make_memo_space(r), solved.function, solved.cost);
  out.cost = solved.cost;
  out.stats = solved.stats;
  return out;
}

TEST(GlobalMemoTest, KeysAreManagerAndOffsetIndependent) {
  // The same relation materialized in two managers at different variable
  // offsets must produce identical canonical keys — that is the whole
  // point of rank remapping.
  BddManager mgr_a{0};
  RelationSpace space_a = make_space(mgr_a, 2, 2);
  const BooleanRelation a = fig1_relation(mgr_a, space_a);

  BddManager mgr_b{0};
  (void)mgr_b.add_vars(5);  // shift the block: offsets differ
  RelationSpace space_b = make_space(mgr_b, 2, 2);
  const BooleanRelation b = fig1_relation(mgr_b, space_b);

  const GlobalMemoKey key_a =
      make_memo_key(make_memo_space(a), a.characteristic());
  const GlobalMemoKey key_b =
      make_memo_key(make_memo_space(b), b.characteristic());
  EXPECT_EQ(key_a, key_b);

  // A different relation over the same spaces keys differently.
  const BooleanRelation c = fig10_relation(mgr_a, space_a);
  EXPECT_FALSE(key_a ==
               make_memo_key(make_memo_space(c), c.characteristic()));
}

TEST(GlobalMemoTest, KeysAreIdenticalFromAReorderedManager) {
  // The acceptance pin for dynamic reordering x the service layer: the
  // canonical key is the identity-order serialized characteristic, so a
  // manager whose variable order was sifted away from var == level still
  // produces byte-identical keys — warm memo entries written before a
  // reorder keep hitting after it, in any slot, at any order.
  BddManager plain{0};
  RelationSpace space_a = make_space(plain, 2, 2);
  const BooleanRelation a = fig10_relation(plain, space_a);
  const GlobalMemoKey key_plain =
      make_memo_key(make_memo_space(a), a.characteristic());

  BddManager sifted{0};
  RelationSpace space_b = make_space(sifted, 2, 2);
  const BooleanRelation b = fig10_relation(sifted, space_b);
  // A reversed-pair side function drags the relation's variables away
  // from var == level when sifted (the relation alone is too small to
  // guarantee the order actually moves).
  const std::uint32_t extra = sifted.add_vars(4);
  Bdd skew = sifted.zero();
  for (std::uint32_t i = 0; i < 4; ++i) {
    skew = skew | (sifted.var(i) & sifted.var(extra + 3 - i));
  }
  sifted.reorder();
  ASSERT_FALSE(sifted.has_identity_order());
  const GlobalMemoKey key_sifted =
      make_memo_key(make_memo_space(b), b.characteristic());
  EXPECT_EQ(key_plain, key_sifted);

  // And a solution memoized by an identity-order run materializes
  // correctly inside the reordered manager (the warm-hit import path).
  const SolveResult solved = SearchEngine(a, deterministic_options(6)).run();
  const PortableSolution portable = make_portable_solution(
      make_memo_space(a), solved.function, solved.cost);
  const MultiFunction imported =
      import_portable_solution(sifted, make_memo_space(b), portable);
  EXPECT_TRUE(b.is_compatible(imported));
  // Re-serializing from the reordered destination closes the loop.
  EXPECT_EQ(make_portable_solution(make_memo_space(b), imported, solved.cost),
            portable);
}

TEST(GlobalMemoTest, SameChiDifferentSpacesKeyDifferently) {
  // The constant-ONE characteristic describes both "2 in / 2 out" and
  // "3 in / 1 out" complete relations; the solutions differ, so the keys
  // must too (the spaces ride inside the key).
  BddManager mgr{4};
  const BooleanRelation r22 = BooleanRelation::full(mgr, {0, 1}, {2, 3});
  const BooleanRelation r31 = BooleanRelation::full(mgr, {0, 1, 2}, {3});
  EXPECT_FALSE(
      make_memo_key(make_memo_space(r22), r22.characteristic()) ==
      make_memo_key(make_memo_space(r31), r31.characteristic()));
}

TEST(GlobalMemoTest, SolutionsRoundTripAcrossManagers) {
  BddManager src{0};
  RelationSpace space = make_space(src, 2, 2);
  const BooleanRelation r = fig1_relation(src, space);
  const SolveResult solved =
      SearchEngine(r, deterministic_options(6)).run();
  const MemoSpace src_space = make_memo_space(r);
  const PortableSolution portable =
      make_portable_solution(src_space, solved.function, solved.cost);

  // Rebuild the relation (and the solution) in an offset manager.
  BddManager dst{0};
  (void)dst.add_vars(3);
  RelationSpace dst_rs = make_space(dst, 2, 2);
  const BooleanRelation r2 = fig1_relation(dst, dst_rs);
  const MultiFunction imported =
      import_portable_solution(dst, make_memo_space(r2), portable);
  EXPECT_TRUE(r2.is_compatible(imported));
  // Re-serializing from the destination gives the same canonical form.
  EXPECT_EQ(make_portable_solution(make_memo_space(r2), imported,
                                   solved.cost),
            portable);
}

TEST(GlobalMemoTest, CapacityEvictsLruButImprovesPresentKeysInPlace) {
  BddManager mgr{4};
  const BooleanRelation r22 = BooleanRelation::full(mgr, {0, 1}, {2, 3});
  const BooleanRelation r31 = BooleanRelation::full(mgr, {0, 1, 2}, {3});
  const auto key_a = std::make_shared<const GlobalMemoKey>(
      make_memo_key(make_memo_space(r22), r22.characteristic()));
  const auto key_b = std::make_shared<const GlobalMemoKey>(
      make_memo_key(make_memo_space(r31), r31.characteristic()));

  GlobalMemo memo{1};
  PortableSolution sol;
  sol.outputs.push_back(SerializedBdd{});  // constant ONE placeholder
  sol.cost = 10.0;
  memo.publish(*key_a, sol);
  EXPECT_EQ(memo.size(), 1u);

  // A published answer serves at once.
  ASSERT_TRUE(memo.lookup(*key_a).has_value());
  EXPECT_DOUBLE_EQ(memo.lookup(*key_a)->cost, 10.0);

  // A better solution for a present key lands in place: no eviction.
  sol.cost = 4.0;
  memo.publish(*key_a, sol);
  EXPECT_EQ(memo.evictions(), 0u);
  ASSERT_TRUE(memo.lookup(*key_a).has_value());
  EXPECT_DOUBLE_EQ(memo.lookup(*key_a)->cost, 4.0);

  // A worse one does not regress the entry.
  sol.cost = 7.0;
  memo.publish(*key_a, sol);
  EXPECT_DOUBLE_EQ(memo.lookup(*key_a)->cost, 4.0);

  // At capacity a brand-new key is ADMITTED and the least-recently-used
  // entry makes room for it (the old policy dropped the newcomer, which
  // froze a long-lived service's memo at its first working set).
  memo.publish(*key_b, sol);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.evictions(), 1u);
  EXPECT_FALSE(memo.lookup(*key_a).has_value());  // evicted
  ASSERT_TRUE(memo.lookup(*key_b).has_value());
}

TEST(GlobalMemoTest, HotKeySurvivesColdKeyFlood) {
  // The property LRU buys a long-lived service: a key that keeps being
  // probed stays resident while a stream of one-shot keys churns through
  // the capacity bound.
  BddManager mgr{6};
  // Structurally distinct characteristics (rank remapping would fold
  // same-shape relations over different variables into ONE key, so the
  // flood uses 32 distinct minterm cubes over the same space instead).
  const auto key_for = [&](std::uint32_t pattern) {
    Bdd chi = mgr.one();
    for (std::uint32_t b = 0; b < 5; ++b) {
      chi = chi & mgr.literal(b, ((pattern >> b) & 1u) != 0);
    }
    const std::vector<std::uint32_t> iranks{0, 1, 2, 3, 4};
    const std::vector<std::uint32_t> oranks{5};
    return GlobalMemoKey(serialize_bdd(chi), iranks, oranks);
  };
  const auto hot = std::make_shared<const GlobalMemoKey>(key_for(0));

  constexpr std::size_t kCapacity = 8;
  GlobalMemo memo{kCapacity};
  PortableSolution sol;
  sol.outputs.push_back(SerializedBdd{});
  sol.cost = 1.0;
  memo.publish(*hot, sol);
  ASSERT_TRUE(memo.lookup(*hot).has_value());

  // Flood with ~4x capacity distinct cold keys (the 31 remaining minterm
  // patterns), probing the hot key along the way (that is what "hot"
  // means).  Each cold key is published once and never touched again.
  constexpr std::uint32_t kFloods = 31;
  for (std::uint32_t i = 1; i <= kFloods; ++i) {
    memo.publish(key_for(i), sol);
    ASSERT_TRUE(memo.lookup(*hot).has_value())
        << "hot key evicted after " << i << " cold publishes";
  }
  EXPECT_EQ(memo.size(), kCapacity);
  EXPECT_GT(memo.evictions(), 0u);
  EXPECT_TRUE(memo.lookup(*hot).has_value());
  EXPECT_DOUBLE_EQ(memo.lookup(*hot)->cost, 1.0);
}

TEST(GlobalMemoTest, TruncatedRunsDoNotPoisonTheMemo) {
  // The service-layer hazard publish-once exists for: a run stopped by
  // its budget holds only a degraded result.  Served, it would answer
  // every later identical request at zero exploration — the degraded
  // result locked in forever, invisible to the caller (no
  // budget_exhausted flag on the warm path).  The truncated run
  // publishes nothing, the next solve re-explores, and only ITS drained
  // result becomes servable.
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = fig10_relation(mgr, space);
  SolverOptions truncated;
  truncated.cost = sum_of_bdd_sizes();
  truncated.use_cost_bound = false;
  truncated.max_relations = 1;  // stops right after the root expansion
  truncated.global_memo = std::make_shared<GlobalMemo>();
  const SolveResult degraded = SearchEngine(r, truncated).run();
  ASSERT_TRUE(degraded.stats.budget_exhausted);

  // Same fingerprint (cost + mode), full budget: must NOT be served the
  // truncated run's root entry — it must re-explore and do better.
  SolverOptions full = truncated;
  full.max_relations = static_cast<std::size_t>(-1);
  const SolveResult second = SearchEngine(r, full).run();
  EXPECT_EQ(second.stats.memo_hits, 0u)
      << "a truncated run's partial memos were served";
  EXPECT_GT(second.stats.relations_explored, 1u);
  EXPECT_FALSE(second.stats.budget_exhausted);
  // Never worse than the truncated result (on fig10 the QuickSolver net
  // happens to tie the optimum, so equality is possible — the property
  // under test is the re-exploration above, not strict improvement).
  EXPECT_LE(second.cost, degraded.cost);

  // The drained run's results ARE servable: third solve is pure warm.
  const SolveResult warm = SearchEngine(r, full).run();
  EXPECT_EQ(warm.stats.relations_explored, 0u);
  EXPECT_EQ(warm.stats.memo_hits, 1u);
  EXPECT_DOUBLE_EQ(warm.cost, second.cost);
  EXPECT_TRUE(r.is_compatible(warm.function));
}

TEST(GlobalMemoTest, RejectsMismatchedFingerprintReuse) {
  GlobalMemo memo;
  memo.bind(MemoFingerprint{"size", false});
  memo.bind(MemoFingerprint{"size", false});  // idempotent
  EXPECT_THROW(memo.bind(MemoFingerprint{"size2", false}),
               std::invalid_argument);
  EXPECT_THROW(memo.bind(MemoFingerprint{"size", true}),
               std::invalid_argument);
}

TEST(SolverPoolTest, ResultsAreBitIdenticalToSerialAcrossWorkerCounts) {
  // The acceptance bar: in the schedule-independent configuration the
  // pool returns the SAME portable solution (serialized node lists, not
  // just costs) as the serial engine, for every benchmark instance, at
  // 1, 2 and 4 workers.  The memo stays off here: with it on, requests
  // of *overlapping* relations may legally exchange partial results.
  const SolverOptions options = deterministic_options(6);
  std::vector<std::string> texts;
  std::vector<PoolResult> expected;
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    texts.push_back(write_relation_bdd(r));
    expected.push_back(serial_reference(texts.back(), options));
  }
  for (const std::size_t workers : {1u, 2u, 4u}) {
    PoolOptions pool_options;
    pool_options.workers = workers;
    pool_options.solver = options;
    pool_options.share_memo = false;
    SolverPool pool(pool_options);
    std::vector<std::future<PoolResult>> futures;
    for (const std::string& text : texts) {
      futures.push_back(pool.submit(text));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const PoolResult result = futures[i].get();
      EXPECT_EQ(result.solution, expected[i].solution)
          << relation_suite()[i].name << " at " << workers << " workers";
      EXPECT_DOUBLE_EQ(result.cost, expected[i].cost)
          << relation_suite()[i].name;
      EXPECT_EQ(result.stats.relations_explored,
                expected[i].stats.relations_explored)
          << relation_suite()[i].name;
      EXPECT_LT(result.worker_id, workers);
    }
    EXPECT_EQ(pool.requests_served(), texts.size());
  }
}

TEST(SolverPoolTest, WarmMemoResolveExploresNothingAtEqualCost) {
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r = make_benchmark_relation(
      mgr, relation_suite().front(), inputs, outputs);
  const std::string text = write_relation_bdd(r);

  PoolOptions pool_options;
  pool_options.workers = 2;
  pool_options.solver = deterministic_options(4);
  SolverPool pool(pool_options);

  // Sequential: the cold solve fully publishes before the warm probe.
  const PoolResult cold = pool.submit(text).get();
  EXPECT_GT(cold.stats.relations_explored, 0u);
  EXPECT_EQ(cold.stats.memo_hits, 0u);

  const PoolResult warm = pool.submit(text).get();
  EXPECT_EQ(warm.stats.relations_explored, 0u);
  EXPECT_EQ(warm.stats.memo_hits, 1u);
  EXPECT_DOUBLE_EQ(warm.cost, cold.cost);
  EXPECT_EQ(warm.solution, cold.solution);

  // The memoized solution satisfies the relation when materialized.
  BddManager check{0};
  const BooleanRelation r2 = read_relation(check, text);
  EXPECT_TRUE(r2.is_compatible(import_pool_solution(check, r2, warm)));
  EXPECT_GT(pool.memo()->hits(), 0u);
}

TEST(SolverPoolTest, ConcurrentSubmissionFromManyThreadsIsSafe) {
  // Many submitter threads, a mix of identical and distinct relations,
  // shared memo ON — the configuration with maximal cross-thread
  // traffic (queue, memo probes/publishes from every slot).  Every
  // result must be compatible with its relation; identical relations
  // must agree on cost with the serial engine's schedule-independent
  // result whenever they were served cold OR warm (the memo only ever
  // offers equal-or-better entries for the *same* canonical key, and
  // entries improve monotonically toward the drained optimum).
  std::vector<std::string> texts;
  {
    BddManager mgr{0};
    RelationSpace space = make_space(mgr, 2, 2);
    texts.push_back(write_relation_bdd(fig1_relation(mgr, space)));
    texts.push_back(write_relation_bdd(fig10_relation(mgr, space)));
    texts.push_back(write_relation_bdd(fig8_relation(mgr, space)));
  }

  PoolOptions pool_options;
  pool_options.workers = 4;
  pool_options.solver = deterministic_options(static_cast<std::size_t>(-1));
  SolverPool pool(pool_options);

  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerThread = 6;
  std::vector<std::future<PoolResult>> futures(kSubmitters * kPerThread);
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t k = 0; k < kPerThread; ++k) {
        futures[t * kPerThread + k] =
            pool.submit(texts[(t + k) % texts.size()]);
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const PoolResult result = futures[i].get();
    const std::string& text =
        texts[(i / kPerThread + i % kPerThread) % texts.size()];
    BddManager check{0};
    const BooleanRelation r = read_relation(check, text);
    EXPECT_TRUE(r.is_compatible(import_pool_solution(check, r, result)));
  }
  EXPECT_EQ(pool.requests_served(), futures.size());
}

TEST(SolverPoolTest, RecycledSlotsKeepNumVarsBounded) {
  // ROADMAP follow-up pinned here: a slot manager reclaims its whole
  // variable block between requests (reset_variables), so a long-lived
  // pool's num_vars equals the width of ONE request — the 100th recycled
  // request sees exactly the same variable count as the first, instead
  // of the old fresh-block-per-request linear growth.
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const std::string text = write_relation_bdd(fig1_relation(mgr, space));

  PoolOptions pool_options;
  pool_options.workers = 1;  // every request lands on the same slot
  pool_options.solver = deterministic_options(4);
  SolverPool pool(pool_options);

  std::uint32_t width = 0;
  for (int i = 0; i < 100; ++i) {
    const PoolResult result = pool.submit(text).get();
    if (i == 0) {
      width = result.manager_num_vars;
      EXPECT_GT(width, 0u);
    }
    ASSERT_EQ(result.manager_num_vars, width)
        << "slot num_vars grew on request " << i;
  }
  EXPECT_EQ(pool.requests_served(), 100u);
}

TEST(SolverPoolTest, MemoHoldsOneEntryPerDistinctRelation) {
  // The bounded-memory contract at entry granularity: the memo caches
  // whole answers, so a memo-on pool serving ~200 distinct suite-shaped
  // relations plus repeats holds exactly one entry per distinct relation
  // and publishes exactly once per root miss, while every slot manager
  // stays at the width of one request.
  std::vector<std::string> texts;
  std::set<std::string> seen;
  std::size_t max_width = 0;
  for (std::uint32_t i = 0; i < 204; ++i) {
    const RelationBenchmark& shape =
        relation_suite()[i % relation_suite().size()];
    const RelationBenchmark spec{"plateau", shape.num_inputs,
                                 shape.num_outputs,
                                 shape.seed ^ (0x9E3779B9u * (i + 1))};
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    std::string text = write_relation_bdd(
        make_benchmark_relation(mgr, spec, inputs, outputs));
    if (seen.insert(text).second) {
      texts.push_back(std::move(text));
      max_width = std::max(max_width, inputs.size() + outputs.size());
    }
  }
  ASSERT_GE(texts.size(), 200u);

  PoolOptions pool_options;
  pool_options.workers = 2;
  pool_options.solver = deterministic_options(4);
  SolverPool pool(pool_options);

  std::size_t misses = 0;
  const auto serve = [&](std::size_t count, bool expect_hit) {
    std::vector<std::future<PoolResult>> futures;
    for (std::size_t i = 0; i < count; ++i) {
      futures.push_back(pool.submit(texts[i]));
    }
    for (std::future<PoolResult>& future : futures) {
      const PoolResult result = future.get();
      ASSERT_FALSE(result.stats.budget_exhausted);
      ASSERT_LE(result.manager_num_vars, max_width);
      if (result.stats.memo_hits == 0) {
        ++misses;
      }
      EXPECT_EQ(result.stats.memo_hits, expect_hit ? 1u : 0u);
    }
  };
  serve(texts.size(), false);  // every relation once, cold
  serve(texts.size() / 4, true);  // repeats: served at the root

  EXPECT_EQ(pool.memo()->size(), texts.size());
  EXPECT_EQ(pool.memo()->publishes(), misses);
  EXPECT_EQ(misses, texts.size());
}

TEST(SolverPoolTest, ParseAndValidationErrorsFlowThroughTheFuture) {
  SolverPool pool(PoolOptions{});
  // Malformed text.
  EXPECT_THROW(pool.submit(std::string(".i 1\n.o 1\n.r\nxx 1\n.e\n")).get(),
               std::invalid_argument);
  // Well-formed but not well-defined (vertex 1 has an empty image).
  EXPECT_THROW(pool.submit(std::string(".i 1\n.o 1\n.r\n0 1\n.e\n")).get(),
               std::invalid_argument);
  // The pool survives failed requests and keeps serving.
  const PoolResult ok =
      pool.submit(std::string(".i 1\n.o 1\n.r\n0 1\n1 0\n.e\n")).get();
  EXPECT_EQ(ok.solution.outputs.size(), 1u);
}

TEST(SolverPoolTest, SubmitAfterShutdownThrows) {
  SolverPool pool(PoolOptions{});
  const PoolResult first =
      pool.submit(std::string(".i 1\n.o 1\n.r\n0 1\n1 0\n.e\n")).get();
  EXPECT_DOUBLE_EQ(first.cost, first.solution.cost);
  pool.shutdown();
  pool.shutdown();  // idempotent
  EXPECT_THROW((void)pool.submit(std::string(".i 1\n.o 1\n.r\n0 1\n.e\n")),
               std::runtime_error);
}

/// int3 (6 inputs, 4 outputs) serialized — large enough that an
/// unbounded exploration cannot drain within a short deadline.
std::string large_instance_text() {
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r =
      make_benchmark_relation(mgr, relation_suite()[2], inputs, outputs);
  return write_relation_bdd(r);
}

/// Pool whose requests explore without budget or depth caps — only a
/// deadline (or the pool-wide timeout) can stop them on int3.
PoolOptions unbounded_pool(std::size_t workers) {
  PoolOptions options;
  options.workers = workers;
  options.solver.cost = sum_of_bdd_sizes();
  options.solver.max_relations = static_cast<std::size_t>(-1);
  options.solver.use_cost_bound = false;
  return options;
}

/// The satellite pin: a request whose deadline expires mid-solve must
/// still RESOLVE its future (flagged, best-so-far solution) rather than
/// leave the caller blocked forever — at 1 worker and at 4.
TEST(SolverPoolDeadlineTest, ShortDeadlineResolvesEveryFuture) {
  const std::string text = large_instance_text();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SolverPool pool(unbounded_pool(workers));
    RequestOptions request;
    request.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
    std::vector<std::future<PoolResult>> futures;
    for (std::size_t i = 0; i < workers + 1; ++i) {
      futures.push_back(pool.submit(text, request));
    }
    for (auto& future : futures) {
      // A hang here IS the regression; give a generous hard bound so a
      // failure reports instead of wedging the suite.
      ASSERT_EQ(future.wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << workers << " workers";
      const PoolResult result = future.get();
      EXPECT_TRUE(result.stats.budget_exhausted) << workers << " workers";
      EXPECT_TRUE(result.deadline_expired) << workers << " workers";
      // The engine seeds its incumbent before exploring, so a request
      // that got ANY solve time reports a usable best-so-far solution.
      if (!result.solution.outputs.empty()) {
        BddManager mgr{0};
        const BooleanRelation r = read_relation(mgr, text);
        const MultiFunction f = import_pool_solution(mgr, r, result);
        EXPECT_TRUE(r.is_compatible(f)) << workers << " workers";
      }
    }
  }
}

TEST(SolverPoolDeadlineTest, AlreadyExpiredDeadlineResolvesEmpty) {
  SolverPool pool(unbounded_pool(1));
  RequestOptions request;
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(10);
  const PoolResult result = pool.submit(large_instance_text(), request).get();
  EXPECT_TRUE(result.deadline_expired);
  EXPECT_TRUE(result.stats.budget_exhausted);
  EXPECT_TRUE(result.solution.outputs.empty());
  EXPECT_TRUE(std::isinf(result.cost));
}

TEST(SolverPoolDeadlineTest, NoDeadlineRequestsAreUnflagged) {
  SolverPool pool(PoolOptions{});
  const PoolResult result =
      pool.submit(std::string(".i 1\n.o 1\n.r\n0 1\n1 0\n.e\n")).get();
  EXPECT_FALSE(result.deadline_expired);
}

TEST(SolverPoolPriorityTest, InteractiveOvertakesQueuedBatch) {
  // One worker, blocked on a slow request; a Batch job queued FIRST must
  // lose its mailbox to an Interactive job queued after it.
  const std::string slow = large_instance_text();
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const std::string fast = write_relation_bdd(fig1_relation(mgr, space));

  PoolOptions options = unbounded_pool(1);
  options.solver.timeout = std::chrono::milliseconds(300);
  SolverPool pool(options);

  auto blocker = pool.submit(slow);
  // The blocker must be IN a slot (not queued) before the contenders
  // arrive, or the pop order under test never happens.
  while (pool.queue_depth() != 0) {
    std::this_thread::yield();
  }
  RequestOptions batch;
  batch.priority = RequestPriority::Batch;
  auto batch_future = pool.submit(slow, batch);
  auto interactive_future = pool.submit(fast);  // default = Interactive

  ASSERT_EQ(interactive_future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  // The interactive answer arrived while the batch job was still queued
  // or (at worst) just picked up — it cannot have been SERVED first, or
  // its 300ms-timeout solve would have delayed the interactive answer
  // past it.
  EXPECT_NE(batch_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  (void)blocker.get();
  (void)batch_future.get();
  (void)interactive_future.get();
}

TEST(SolverPoolTest, PoolRejectsMemoWarmedUnderAnotherObjective) {
  // A caller-supplied memo that served "size" cannot back a "size2"
  // pool: the fingerprint clash surfaces at construction, not as silent
  // wrong pruning requests later.
  auto memo = std::make_shared<GlobalMemo>();
  memo->bind(MemoFingerprint{"size", false});
  PoolOptions pool_options;
  pool_options.solver.cost = sum_of_squared_bdd_sizes();
  pool_options.solver.global_memo = memo;
  EXPECT_THROW(SolverPool{pool_options}, std::invalid_argument);
}

TEST(SolverPoolTest, OrderMemorySkipsSiftingRampOnRepeatTraffic) {
  // An incremental slot remembers the variable order its previous
  // same-signature solve sifted into and seeds the next parse with it,
  // so repeat traffic skips the sifting ramp entirely.
  //
  // The chained-equality relation y_i == x_i is the classic order
  // pathology: with the text order x0..x{n-1} y0..y{n-1} its
  // characteristic needs ~2^n nodes, interleaved ~3n — so the cold
  // parse lands far above the Auto trigger and the solve sifts, while
  // a warm parse seeded with the sifted order stays far below it.
  constexpr std::uint32_t kPairs = 8;
  BddManager author{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const std::uint32_t x0 = author.add_vars(kPairs);
  const std::uint32_t y0 = author.add_vars(kPairs);
  Bdd chi = author.one();
  for (std::uint32_t i = 0; i < kPairs; ++i) {
    inputs.push_back(x0 + i);
    outputs.push_back(y0 + i);
    chi = chi & !(author.var(x0 + i) ^ author.var(y0 + i));
  }
  const BooleanRelation r(author, inputs, outputs, chi);
  // Identity order in the authoring manager: the text carries no
  // `.order` sidecar, so any good order must come from the slot's memory.
  ASSERT_TRUE(author.has_identity_order());
  const std::string text = write_relation_bdd(r);

  PoolOptions options;
  options.workers = 1;         // both requests hit the same slot
  options.share_memo = false;  // a root memo hit would skip the solve
  options.incremental = true;  // arms the slot's order memory
  options.solver = deterministic_options(2);
  options.solver.reorder = ReorderMode::Auto;
  options.solver.reorder_trigger = 600;  // under the ~2^9-node cold parse
  SolverPool pool(options);

  const PoolResult cold = pool.submit(text).get();
  const PoolResult warm = pool.submit(text).get();
  EXPECT_GT(cold.stats.reorder_swaps, 0u);
  EXPECT_EQ(warm.stats.reorder_swaps, 0u);
  // Order memory changes where variables sit, never what is computed.
  EXPECT_EQ(cold.solution, warm.solution);
}

}  // namespace
}  // namespace brel
