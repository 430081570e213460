// Differential tests for the dedicated kernels introduced by the hot-path
// overhaul (and_rec / xor_rec / cofactor_rec / leq_rec / balanced big_and
// and big_or): every kernel is cross-checked against an independent
// formulation of the same function — truth-table evaluation, De Morgan /
// Shannon identities routed through *different* kernels, and the untouched
// generalized-cofactor (constrain) recursion — on randomized function
// suites and on the BR benchmark relations.  Canonicity turns each check
// into a single edge comparison.
//
// The second half stresses the O(1) GC trigger: the incremental
// external-root counter must exactly track handle lifetimes through op
// churn, forced collections and solver runs, and declining
// garbage_collect_if_needed must not scan the node table (asserted by
// running a quarter-million declining checks against a large live table
// within a wall-clock budget no O(live)-per-check implementation could
// meet).
//
// Then the ISF-minimization kernels: the memoized function-only ISOP must
// return the cover path's edge across GC, sifting and variable resets —
// on truth tables at every width up to BddManager::kIsopTableVars, by the
// BDD recursion above it, and exhaustively over 3 variables — the cover
// path keeps its pinned cubes, and the node-free essential-variable test
// must agree with its quantified definition.
//
// The last part pins the traversals that run on the manager's reusable
// scratch (size, support, sat_count, serialize_bdd) against reference
// walks kept here, across GC index reuse, variable-block resets and
// reordering, and counts allocations through a replaced operator new:
// a warm traversal allocates nothing beyond its own result.
//
// Last, the computed table's sizing: it grows with the node store up to
// its cap and keeps its entries when it does, keeps its size through GC,
// returns to its start size on every variable reset, and no result
// depends on its size — including a conjunction that grows it while the
// root's probe is pending.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <new>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/bdd_transfer.hpp"
#include "bdd/truth_table.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/solver.hpp"

// Process-wide allocation counter behind a replaced global operator new
// (the array and aligned-free forms route through these by default).
// Tests read DELTAS around the calls they pin.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Kept out of line: once inlined, gcc pairs the malloc/free inside with
// the new/delete expressions at the call sites and warns about
// mismatched allocation functions.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace brel {
namespace {

Bdd random_function(BddManager& mgr, std::mt19937& rng, std::uint32_t vars,
                    int depth) {
  if (depth == 0) {
    return mgr.literal(rng() % vars, rng() % 2 == 0);
  }
  const Bdd lhs = random_function(mgr, rng, vars, depth - 1);
  const Bdd rhs = random_function(mgr, rng, vars, depth - 1);
  switch (rng() % 3) {
    case 0:
      return lhs & rhs;
    case 1:
      return lhs | rhs;
    default:
      return lhs ^ rhs;
  }
}

/// All 2^vars assignments of f, as a bit-per-minterm truth table.
std::vector<bool> truth_table(const Bdd& f, std::uint32_t vars) {
  std::vector<bool> table;
  table.reserve(std::size_t{1} << vars);
  std::vector<bool> point(vars, false);
  for (std::size_t m = 0; m < (std::size_t{1} << vars); ++m) {
    for (std::uint32_t v = 0; v < vars; ++v) {
      point[v] = ((m >> v) & 1u) != 0;
    }
    table.push_back(f.eval(point));
  }
  return table;
}

TEST(BddKernelDiffTest, AndXorAgainstTruthTablesAndCrossIdentities) {
  constexpr std::uint32_t kVars = 6;
  BddManager mgr{kVars};
  std::mt19937 rng{101};
  for (int trial = 0; trial < 200; ++trial) {
    const Bdd f = random_function(mgr, rng, kVars, 3);
    const Bdd g = random_function(mgr, rng, kVars, 3);
    const Bdd conj = f & g;
    const Bdd disj = f | g;
    const Bdd parity = f ^ g;
    // Ground truth: pointwise over every assignment.
    const auto tf = truth_table(f, kVars);
    const auto tg = truth_table(g, kVars);
    const auto tconj = truth_table(conj, kVars);
    const auto tdisj = truth_table(disj, kVars);
    const auto tparity = truth_table(parity, kVars);
    for (std::size_t m = 0; m < tf.size(); ++m) {
      ASSERT_EQ(tconj[m], tf[m] && tg[m]);
      ASSERT_EQ(tdisj[m], tf[m] || tg[m]);
      ASSERT_EQ(tparity[m], tf[m] != tg[m]);
    }
    // Cross-kernel identities (canonicity makes these edge equalities):
    // the ITE universal connective must reproduce every dedicated kernel.
    EXPECT_TRUE(conj == mgr.ite(f, g, mgr.zero()));
    EXPECT_TRUE(disj == mgr.ite(f, mgr.one(), g));
    EXPECT_TRUE(parity == mgr.ite(f, !g, g));
    // De Morgan / complement absorption.
    EXPECT_TRUE(conj == !((!f) | (!g)));
    EXPECT_TRUE(parity == ((f & (!g)) | ((!f) & g)));
    EXPECT_TRUE(parity == !(f.iff(g)));
    // Commutativity must hold structurally (one cache entry per pair).
    EXPECT_TRUE(conj == (g & f));
    EXPECT_TRUE(parity == (g ^ f));
  }
}

TEST(BddKernelDiffTest, CofactorAgainstConstrainAndEvaluation) {
  constexpr std::uint32_t kVars = 6;
  BddManager mgr{kVars};
  std::mt19937 rng{202};
  for (int trial = 0; trial < 100; ++trial) {
    const Bdd f = random_function(mgr, rng, kVars, 4);
    for (std::uint32_t v = 0; v < kVars; ++v) {
      for (const bool phase : {false, true}) {
        const Bdd cof = f.cofactor(v, phase);
        // The untouched generalized-cofactor recursion over the literal
        // (the pre-overhaul formulation) must produce the same function.
        EXPECT_TRUE(cof == mgr.constrain(f, mgr.literal(v, phase)));
        // Pointwise: cof agrees with f at v := phase and ignores v.
        std::vector<bool> point(kVars, false);
        for (std::size_t m = 0; m < (std::size_t{1} << kVars); ++m) {
          for (std::uint32_t i = 0; i < kVars; ++i) {
            point[i] = ((m >> i) & 1u) != 0;
          }
          const bool at_cof = cof.eval(point);
          point[v] = phase;
          ASSERT_EQ(at_cof, f.eval(point));
        }
        // Shannon expansion stitches the cofactors back together.
        const Bdd x = mgr.var(v);
        EXPECT_TRUE(f == ((x & f.cofactor(v, true)) |
                          ((!x) & f.cofactor(v, false))));
      }
    }
  }
}

TEST(BddKernelDiffTest, LeqAgainstMaterializedDifference) {
  constexpr std::uint32_t kVars = 7;
  BddManager mgr{kVars};
  std::mt19937 rng{303};
  int positives = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Bdd f = random_function(mgr, rng, kVars, 3);
    const Bdd g = random_function(mgr, rng, kVars, 3);
    // The pre-overhaul formulation materialized f & !g and tested it.
    EXPECT_EQ(f.subset_of(g), (f & (!g)).is_zero());
    // Constructed positive cases, so the test is not all-negative.
    EXPECT_TRUE((f & g).subset_of(f));
    EXPECT_TRUE(f.subset_of(f | g));
    EXPECT_TRUE(mgr.zero().subset_of(f));
    EXPECT_TRUE(f.subset_of(mgr.one()));
    if (f.subset_of(g)) {
      ++positives;
      EXPECT_TRUE((f | g) == g);
    }
  }
  EXPECT_GT(positives, 0);  // the random suite produced some containments
}

TEST(BddKernelDiffTest, BalancedBigOpsMatchSequentialFold) {
  constexpr std::uint32_t kVars = 16;
  BddManager mgr{kVars};
  std::mt19937 rng{404};
  for (const std::size_t width : {0u, 1u, 2u, 3u, 7u, 24u, 65u}) {
    std::vector<Bdd> fs;
    for (std::size_t i = 0; i < width; ++i) {
      fs.push_back(random_function(mgr, rng, kVars, 3));
    }
    Bdd fold_and = mgr.one();
    Bdd fold_or = mgr.zero();
    for (const Bdd& f : fs) {  // the pre-overhaul left fold
      fold_and = fold_and & f;
      fold_or = fold_or | f;
    }
    EXPECT_TRUE(mgr.big_and(fs) == fold_and);
    EXPECT_TRUE(mgr.big_or(fs) == fold_or);
  }
}

TEST(BddKernelDiffTest, KernelsAgreeOnBenchmarkRelationSuite) {
  // The randomized-relation pass: every new kernel against an independent
  // formulation, on the characteristic functions and projections the
  // solver actually manipulates.
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation r =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    const Bdd chi = r.characteristic();
    const Bdd misf_chi = r.misf().characteristic();
    EXPECT_EQ(chi.subset_of(misf_chi), (chi & (!misf_chi)).is_zero());
    EXPECT_TRUE(chi.subset_of(misf_chi));  // Property 4.9: R ⊆ MISF(R)
    for (const std::uint32_t y : outputs) {
      const Bdd c1 = chi.cofactor(y, true);
      const Bdd c0 = chi.cofactor(y, false);
      EXPECT_TRUE(c1 == mgr.constrain(chi, mgr.literal(y, true)));
      EXPECT_TRUE(c0 == mgr.constrain(chi, mgr.literal(y, false)));
      const Bdd yv = mgr.var(y);
      EXPECT_TRUE(chi == ((yv & c1) | ((!yv) & c0)));
      EXPECT_TRUE((chi ^ misf_chi) == mgr.ite(chi, !misf_chi, misf_chi));
    }
  }
}

// ---------------------------------------------------------------------------
// GC-churn stress: the incremental root counter and the O(1) trigger.
// ---------------------------------------------------------------------------

TEST(BddGcChurnTest, ExternalRootCounterTracksHandleLifetimes) {
  BddManager mgr{8};
  EXPECT_EQ(mgr.external_root_count(), 0u);
  {
    const Bdd a = mgr.var(0);
    EXPECT_EQ(mgr.external_root_count(), 1u);
    const Bdd b = mgr.var(1);
    EXPECT_EQ(mgr.external_root_count(), 2u);
    const Bdd c = a;  // same node: refcount 2, still one root
    EXPECT_EQ(mgr.external_root_count(), 2u);
    const Bdd d = !a;  // complement edge, same node
    EXPECT_EQ(mgr.external_root_count(), 2u);
    {
      const Bdd e = a & b;
      EXPECT_EQ(mgr.external_root_count(), 3u);
    }
    EXPECT_EQ(mgr.external_root_count(), 2u);
    // Constants never count as roots.
    const Bdd one = mgr.one();
    const Bdd zero = mgr.zero();
    EXPECT_EQ(mgr.external_root_count(), 2u);
  }
  EXPECT_EQ(mgr.external_root_count(), 0u);
}

TEST(BddGcChurnTest, CounterConsistentThroughOpAndGcChurn) {
  BddManager mgr{12};
  std::mt19937 rng{55};
  std::vector<Bdd> pool;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 40; ++i) {
      pool.push_back(random_function(mgr, rng, 12, 3));
    }
    // Drop a random subset of handles.
    for (int i = 0; i < 20 && !pool.empty(); ++i) {
      pool.erase(pool.begin() + static_cast<long>(rng() % pool.size()));
    }
    if (round % 3 == 0) {
      mgr.garbage_collect();
    } else {
      mgr.garbage_collect_if_needed(/*dead_node_threshold=*/64);
    }
    // The counter equals the number of distinct non-constant root nodes
    // among the live handles (recomputed the slow way).
    std::vector<std::uint32_t> roots;
    for (const Bdd& f : pool) {
      if (!f.is_constant()) {
        roots.push_back(detail::edge_index(f.raw_edge()));
      }
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    ASSERT_EQ(mgr.external_root_count(), roots.size());
    // Roots can never outnumber live nodes.
    ASSERT_LE(mgr.external_root_count(), mgr.stats().live_nodes);
  }
}

TEST(BddGcChurnTest, SolvesInterleavedWithForcedCollections) {
  // Fig. 1 relation solved repeatedly with forced GCs and trigger churn in
  // between: solutions and stats invariants must be unaffected.
  BddManager mgr{4};
  const auto r = BooleanRelation::from_table(
      mgr, {0, 1}, {2, 3},
      {{"00", {"00"}}, {"01", {"01"}}, {"10", {"00", "11"}}, {"11", {"1-"}}});
  SolverOptions options;
  options.cost = sum_of_bdd_sizes();
  double first_cost = -1.0;
  for (int round = 0; round < 10; ++round) {
    const SolveResult result = BrelSolver(options).solve(r);
    EXPECT_TRUE(r.is_compatible(result.function));
    if (first_cost < 0.0) {
      first_cost = result.cost;
    } else {
      EXPECT_DOUBLE_EQ(result.cost, first_cost);
    }
    const std::uint64_t gc_runs_before = mgr.stats().gc_runs;
    mgr.garbage_collect();
    EXPECT_EQ(mgr.stats().gc_runs, gc_runs_before + 1);
    mgr.garbage_collect_if_needed();
    ASSERT_LE(mgr.external_root_count(), mgr.stats().live_nodes);
  }
}

TEST(BddGcChurnTest, DecliningTriggerIsConstantTime) {
  // Build a table whose live size exceeds the threshold but whose root
  // count forbids collection (live <= 4 * roots), i.e. the decline path
  // that the pre-overhaul implementation walked with an O(live) refcount
  // scan per call — from the solver loop, on every expansion step.
  BddManager mgr{160};
  std::mt19937 rng{77};
  std::vector<Bdd> roots;
  int safety = 0;
  while (mgr.stats().live_nodes < 12000) {
    // Depth-1 pairs: ~one fresh node per held root, so the table stays
    // within the live <= 4 * roots region where the trigger declines.
    // (Complement edges share OR/XNOR results with AND/XOR nodes, so the
    // distinct-node supply is ~5 per variable pair; 160 variables give
    // ~64k possible nodes, far above the 12k target.)
    roots.push_back(random_function(mgr, rng, 160, 1));
    ASSERT_LT(++safety, 2000000) << "node-supply saturated below target";
  }
  const std::size_t live = mgr.stats().live_nodes;
  const std::size_t root_count = mgr.external_root_count();
  ASSERT_GE(live, 1000u);
  ASSERT_LE(live, root_count * 4) << "workload must force the decline path";

  constexpr std::uint64_t kChecks = 400000;
  const std::uint64_t gc_runs_before = mgr.stats().gc_runs;
  const std::uint64_t gc_checks_before = mgr.stats().gc_checks;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kChecks; ++i) {
    mgr.garbage_collect_if_needed(/*dead_node_threshold=*/1000);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(mgr.stats().gc_runs, gc_runs_before);  // declined every time
  EXPECT_EQ(mgr.stats().gc_checks, gc_checks_before + kChecks);
  // 400k declining checks over a >=12k-node table: an O(live) scan per
  // check is >= 4.8e9 node visits (several seconds at best); O(1) is
  // milliseconds.  The bound leaves ~1000x headroom for slow CI.
  EXPECT_LT(elapsed, 2.0)
      << "garbage_collect_if_needed appears to scan on the decline path";
}

TEST(BddGcChurnTest, PerOpCacheStatsAreTracked) {
  BddManager mgr{10};
  std::mt19937 rng{88};
  const Bdd f = random_function(mgr, rng, 10, 4);
  const Bdd g = random_function(mgr, rng, 10, 4);
  const BddStats& stats = mgr.stats();
  const auto idx = [](BddOp op) { return static_cast<std::size_t>(op); };

  const std::uint64_t and_before = stats.op_lookups[idx(BddOp::And)];
  (void)(f & g);
  EXPECT_GT(stats.op_lookups[idx(BddOp::And)], and_before);

  const std::uint64_t xor_before = stats.op_lookups[idx(BddOp::Xor)];
  (void)(f ^ g);
  EXPECT_GT(stats.op_lookups[idx(BddOp::Xor)], xor_before);

  const std::uint64_t leq_before = stats.op_lookups[idx(BddOp::Leq)];
  (void)f.subset_of(g);
  EXPECT_GE(stats.op_lookups[idx(BddOp::Leq)], leq_before);

  const std::uint64_t cof_before = stats.op_lookups[idx(BddOp::Cofactor)];
  (void)f.cofactor(3, true);
  EXPECT_GE(stats.op_lookups[idx(BddOp::Cofactor)], cof_before);

  // Aggregate counters are folded from the per-op arrays on stats() read.
  const BddStats& folded = mgr.stats();
  std::uint64_t lookup_sum = 0;
  std::uint64_t hit_sum = 0;
  for (std::size_t op = 0; op < kBddOpCount; ++op) {
    lookup_sum += folded.op_lookups[op];
    hit_sum += folded.op_hits[op];
  }
  EXPECT_EQ(folded.cache_lookups, lookup_sum);
  EXPECT_EQ(folded.cache_hits, hit_sum);
  EXPECT_LE(folded.cache_hits, folded.cache_lookups);

  // A repeated identical op must hit (2-way replacement keeps it).
  const std::uint64_t and_hits_before = stats.op_hits[idx(BddOp::And)];
  (void)(f & g);
  EXPECT_GT(stats.op_hits[idx(BddOp::And)], and_hits_before);
}

// ---------------------------------------------------------------------------
// The ISF-minimization kernels: function-only ISOP (memoized under
// BddOp::Isop) against the cover path, and the node-free essential-
// variable test (leq_flipped) against its ∃/∀ definition.
// ---------------------------------------------------------------------------

/// Seeded random intervals [a ∧ b, a ∨ b] over the manager's variables.
std::vector<std::pair<Bdd, Bdd>> random_intervals(BddManager& mgr,
                                                  std::uint32_t seed,
                                                  std::size_t count) {
  std::mt19937 rng{seed};
  std::vector<std::pair<Bdd, Bdd>> intervals;
  for (std::size_t i = 0; i < count; ++i) {
    const Bdd a = random_function(mgr, rng, mgr.num_vars(), 3);
    const Bdd b = random_function(mgr, rng, mgr.num_vars(), 3);
    intervals.emplace_back(a & b, a | b);
  }
  return intervals;
}

std::uint64_t isop_hits(const BddManager& mgr) {
  return mgr.stats().op_hits[static_cast<std::size_t>(BddOp::Isop)];
}

/// isop_function on every interval, checked against the cover path under
/// the manager's current order; returns the functions.
std::vector<Bdd> expect_isop_function_matches_cover(
    BddManager& mgr, const std::vector<std::pair<Bdd, Bdd>>& intervals) {
  std::vector<Bdd> functions;
  for (const auto& [lower, upper] : intervals) {
    const Bdd f = mgr.isop_function(lower, upper);
    EXPECT_TRUE(f == mgr.isop(lower, upper).function);
    functions.push_back(f);
  }
  return functions;
}

TEST(IsopKernelTest, FunctionOnlyEqualsCoverAcrossGcReorderAndReset) {
  constexpr std::uint32_t kVars = 10;
  constexpr std::uint32_t kSeed = 1301;
  BddManager mgr{kVars};
  std::vector<std::vector<bool>> first_tables;
  {
    const auto intervals = random_intervals(mgr, kSeed, 60);
    const std::vector<Bdd> first =
        expect_isop_function_matches_cover(mgr, intervals);

    // Warm: root calls hit the memo and return the same edge.
    const std::uint64_t hits = isop_hits(mgr);
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      EXPECT_TRUE(mgr.isop_function(intervals[i].first,
                                    intervals[i].second) == first[i]);
    }
    EXPECT_GE(isop_hits(mgr), hits + intervals.size() / 2);

    mgr.garbage_collect();
    EXPECT_TRUE(expect_isop_function_matches_cover(mgr, intervals) == first);

    // Sifting keeps every live edge, so a surviving (old-order) entry
    // would be found under the same key; the ISOP of some intervals does
    // change with the order, which is what would expose it.
    Bdd pairs = mgr.zero();
    for (std::uint32_t i = 0; i < kVars / 2; ++i) {
      pairs = pairs | (mgr.var(i) & mgr.var(i + kVars / 2));
    }
    (void)expect_isop_function_matches_cover(mgr, intervals);  // warm memo
    const std::vector<std::uint32_t> order_before = mgr.variable_order();
    mgr.reorder();
    const std::vector<std::uint32_t> order_after = mgr.variable_order();
    ASSERT_FALSE(std::equal(order_before.begin(), order_before.begin() + 3,
                            order_after.begin()))
        << "the sift must change the top variables";
    const std::vector<Bdd> sifted =
        expect_isop_function_matches_cover(mgr, intervals);
    std::size_t changed = 0;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      changed += sifted[i] == first[i] ? 0 : 1;
      first_tables.push_back(truth_table(first[i], kVars));
    }
    EXPECT_GT(changed, 0u) << "no interval's ISOP depends on the order";
  }
  // The memo now holds sifted-order results.  A variable-block reset
  // restarts node indices, so rebuilding the same intervals in the
  // identity order reuses those entries' key edges.
  ASSERT_TRUE(mgr.reset_variables());
  (void)mgr.add_vars(kVars);
  const auto intervals = random_intervals(mgr, kSeed, 60);
  const std::vector<Bdd> rebuilt =
      expect_isop_function_matches_cover(mgr, intervals);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    EXPECT_EQ(truth_table(rebuilt[i], kVars), first_tables[i]);
  }
}

TEST(IsopKernelTest, FunctionOnlyChecksItsPrecondition) {
  BddManager mgr{4};
  EXPECT_THROW((void)mgr.isop_function(mgr.var(0), mgr.var(1)),
               std::invalid_argument);
  EXPECT_TRUE(mgr.isop_function(mgr.var(0), mgr.var(0)) == mgr.var(0));
  EXPECT_TRUE(mgr.isop_function(mgr.var(0) & mgr.var(1), mgr.var(0)) ==
              mgr.var(0));
}

// ---------------------------------------------------------------------------
// The truth-table ISOP: isop_function minimizes intervals over at most
// BddManager::kIsopTableVars variables on truth tables and wider ones by
// the BDD recursion.  Both must return the cover path's edge, edge for
// edge, under any variable order.
// ---------------------------------------------------------------------------

/// A random function over the variables in `vars` (random_function with
/// its literals drawn from a given set).
Bdd random_function_over(BddManager& mgr, std::mt19937& rng,
                         std::span<const std::uint32_t> vars, int depth) {
  if (depth == 0) {
    return mgr.literal(vars[rng() % vars.size()], rng() % 2 == 0);
  }
  const Bdd lhs = random_function_over(mgr, rng, vars, depth - 1);
  const Bdd rhs = random_function_over(mgr, rng, vars, depth - 1);
  switch (rng() % 3) {
    case 0:
      return lhs & rhs;
    case 1:
      return lhs | rhs;
    default:
      return lhs ^ rhs;
  }
}

/// `count` random intervals whose support supp(lower) ∪ supp(upper) is
/// exactly `vars` (rejection-sampled).
std::vector<std::pair<Bdd, Bdd>> intervals_of_width(
    BddManager& mgr, std::mt19937& rng, std::span<const std::uint32_t> vars,
    std::size_t count) {
  std::vector<std::pair<Bdd, Bdd>> intervals;
  int depth = 1;
  while ((std::size_t{1} << depth) < 2 * vars.size()) {
    ++depth;
  }
  for (int attempt = 0; intervals.size() < count; ++attempt) {
    if (vars.empty()) {
      const Bdd c = rng() % 2 == 0 ? mgr.zero() : mgr.one();
      intervals.emplace_back(c & mgr.zero(), c);
      continue;
    }
    if (attempt > 100000) {
      ADD_FAILURE() << "no interval of width " << vars.size();
      break;
    }
    const Bdd a = random_function_over(mgr, rng, vars, depth);
    const Bdd b = random_function_over(mgr, rng, vars, depth);
    const Bdd lower = a & b;
    const Bdd upper = a | b;
    std::set<std::uint32_t> support;
    for (const Bdd& f : {lower, upper}) {
      const std::vector<std::uint32_t> s = f.support();
      support.insert(s.begin(), s.end());
    }
    if (support.size() == vars.size()) {
      intervals.emplace_back(lower, upper);
    }
  }
  return intervals;
}

/// isop_function(lower, upper) == isop(lower, upper).function and ==
/// isop_function_recursive(lower, upper), each on an emptied computed
/// table.  Returns the number of Isop probes the isop_function call made.
std::uint64_t expect_table_isop_matches(BddManager& mgr, const Bdd& lower,
                                        const Bdd& upper) {
  mgr.garbage_collect();
  const std::uint64_t probes_before =
      mgr.stats().op_lookups[static_cast<std::size_t>(BddOp::Isop)];
  const Bdd f = mgr.isop_function(lower, upper);
  const std::uint64_t probes =
      mgr.stats().op_lookups[static_cast<std::size_t>(BddOp::Isop)] -
      probes_before;
  EXPECT_TRUE(f == mgr.isop(lower, upper).function);
  mgr.garbage_collect();
  EXPECT_TRUE(f == mgr.isop_function_recursive(lower, upper));
  EXPECT_TRUE(lower.subset_of(f) && f.subset_of(upper));
  return probes;
}

TEST(IsopTableTest, EveryWidthUpToTheBddFallback) {
  // Widths 0..K+1 over variables scattered through a larger manager, so
  // table positions never coincide with variable ids; K+1 takes the BDD
  // recursion, which probes the memo below the root.
  constexpr std::uint32_t kWidest = BddManager::kIsopTableVars + 1;
  constexpr std::uint32_t kVars = kWidest + 4;
  BddManager mgr{kVars, 12};
  std::mt19937 rng{1801};
  for (std::uint32_t width = 0; width <= kWidest; ++width) {
    std::vector<std::uint32_t> all(kVars);
    for (std::uint32_t v = 0; v < kVars; ++v) {
      all[v] = v;
    }
    std::shuffle(all.begin(), all.end(), rng);
    const std::vector<std::uint32_t> vars(all.begin(), all.begin() + width);
    const std::size_t count = width <= 12 ? 12 : 3;
    for (const auto& [lower, upper] :
         intervals_of_width(mgr, rng, vars, count)) {
      const std::uint64_t probes =
          expect_table_isop_matches(mgr, lower, upper);
      if (lower == upper || lower.is_zero() || upper.is_one()) {
        EXPECT_EQ(probes, 0u) << "width " << width << ": terminal";
      } else if (width <= BddManager::kIsopTableVars) {
        EXPECT_EQ(probes, 1u) << "width " << width << ": one root probe";
      } else {
        EXPECT_GT(probes, 1u) << "width " << width << ": BDD recursion";
      }
    }
  }
}

TEST(IsopTableTest, ComplementedOperandsAndPointIntervals) {
  constexpr std::uint32_t kVars = 12;
  BddManager mgr{kVars, 12};
  std::mt19937 rng{1802};
  std::vector<std::uint32_t> vars(kVars);
  for (std::uint32_t v = 0; v < kVars; ++v) {
    vars[v] = v;
  }
  std::size_t complemented = 0;
  for (std::uint32_t width : {3u, 6u, 7u, 9u, 12u}) {
    const std::span<const std::uint32_t> block(vars.data() + kVars - width,
                                               width);
    for (const auto& [lower, upper] : intervals_of_width(mgr, rng, block, 8)) {
      // [¬upper, ¬lower] is an interval too, reached through complement
      // edges; so is every point interval [f, f].
      (void)expect_table_isop_matches(mgr, !upper, !lower);
      (void)expect_table_isop_matches(mgr, lower, lower);
      (void)expect_table_isop_matches(mgr, !upper, !upper);
      EXPECT_TRUE(mgr.isop_function(upper, upper) == upper);
      complemented += detail::edge_complemented(upper.raw_edge()) ? 1 : 0;
      complemented += detail::edge_complemented((!lower).raw_edge()) ? 1 : 0;
    }
  }
  EXPECT_GT(complemented, 0u);
}

TEST(IsopTableTest, LevelsDifferFromVariableIds) {
  // A seeded scrambled order, then a sift of it: in both, table positions
  // follow levels, not ids, and the result is the cover path's edge.
  constexpr std::uint32_t kVars = 12;
  BddManager mgr{0, 12};
  (void)mgr.add_vars(kVars);
  const std::vector<std::uint32_t> ranks = {7, 2, 11, 0, 5, 9,
                                            3, 10, 1, 8, 4, 6};
  mgr.seed_block_order(0, ranks);
  ASSERT_FALSE(mgr.has_identity_order());
  std::mt19937 rng{1803};
  std::vector<std::uint32_t> vars(kVars);
  for (std::uint32_t v = 0; v < kVars; ++v) {
    vars[v] = v;
  }
  std::vector<std::pair<Bdd, Bdd>> intervals;
  for (std::uint32_t width : {4u, 8u, 12u}) {
    const auto some = intervals_of_width(
        mgr, rng, std::span<const std::uint32_t>(vars.data(), width), 10);
    intervals.insert(intervals.end(), some.begin(), some.end());
  }
  for (const auto& [lower, upper] : intervals) {
    (void)expect_table_isop_matches(mgr, lower, upper);
  }
  Bdd pairs = mgr.zero();
  for (std::uint32_t i = 0; i < kVars / 2; ++i) {
    pairs = pairs | (mgr.var(i) & mgr.var(i + kVars / 2));
  }
  const std::vector<std::uint32_t> seeded = mgr.variable_order();
  mgr.reorder();
  ASSERT_FALSE(mgr.variable_order() == seeded);
  ASSERT_FALSE(mgr.has_identity_order());
  for (const auto& [lower, upper] : intervals) {
    (void)expect_table_isop_matches(mgr, lower, upper);
  }
}

TEST(IsopTableTest, AfterGarbageCollectAndVariableReset) {
  constexpr std::uint32_t kVars = 10;
  BddManager mgr{kVars, 12};
  std::vector<std::uint32_t> vars(kVars);
  for (std::uint32_t v = 0; v < kVars; ++v) {
    vars[v] = v;
  }
  std::vector<std::vector<bool>> tables;
  {
    std::mt19937 rng{1804};
    const auto intervals = intervals_of_width(mgr, rng, vars, 20);
    for (const auto& [lower, upper] : intervals) {
      (void)expect_table_isop_matches(mgr, lower, upper);
      // Churn: dead nodes whose indices the next GC recycles.
      (void)(lower ^ mgr.var(0));
    }
    mgr.garbage_collect();
    for (const auto& [lower, upper] : intervals) {
      const Bdd f = mgr.isop_function(lower, upper);
      EXPECT_TRUE(f == mgr.isop(lower, upper).function);
      tables.push_back(truth_table(f, kVars));
    }
  }
  // A reset restarts node indices and the scratch layout of the last
  // call must not leak into the next manager state.
  ASSERT_TRUE(mgr.reset_variables());
  (void)mgr.add_vars(kVars);
  std::mt19937 rng{1804};
  const auto intervals = intervals_of_width(mgr, rng, vars, 20);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const Bdd f = mgr.isop_function(intervals[i].first, intervals[i].second);
    EXPECT_TRUE(f == mgr.isop(intervals[i].first, intervals[i].second)
                         .function);
    EXPECT_EQ(truth_table(f, kVars), tables[i]);
  }
}

TEST(IsopTableTest, ExhaustiveOverThreeVariables) {
  // All 3^8 = 6561 intervals on 3 variables (each minterm off, don't-care
  // or on), under the identity order and under a reversed one.
  for (const bool reversed : {false, true}) {
    BddManager mgr{0};
    (void)mgr.add_vars(3);
    if (reversed) {
      const std::vector<std::uint32_t> ranks = {2, 1, 0};
      mgr.seed_block_order(0, ranks);
    }
    std::vector<Bdd> minterms;
    for (std::uint32_t m = 0; m < 8; ++m) {
      Bdd cube = mgr.one();
      for (std::uint32_t v = 0; v < 3; ++v) {
        cube = cube & mgr.literal(v, ((m >> v) & 1u) != 0);
      }
      minterms.push_back(cube);
    }
    std::size_t checked = 0;
    for (std::uint32_t code = 0; code < 6561; ++code) {
      Bdd lower = mgr.zero();
      Bdd upper = mgr.zero();
      std::uint32_t rest = code;
      for (std::uint32_t m = 0; m < 8; ++m, rest /= 3) {
        if (rest % 3 == 2) {
          lower = lower | minterms[m];
        }
        if (rest % 3 != 0) {
          upper = upper | minterms[m];
        }
      }
      const Bdd f = mgr.isop_function(lower, upper);
      ASSERT_TRUE(f == mgr.isop(lower, upper).function)
          << "interval code " << code << (reversed ? " (reversed)" : "");
      ++checked;
    }
    EXPECT_EQ(checked, 6561u);
  }
}

TEST(IsopKernelTest, CoverPathKeepsItsCubes) {
  // Pinned covers of the test_bdd_algorithms ISOP cases and a digest of
  // 200 seeded random intervals' covers: any change to the cubes the
  // cover path emits, or to their order, shows here.
  BddManager mgr{8};
  const auto v = [&mgr](std::uint32_t i) { return mgr.var(i); };
  const Bdd f = (v(0) & v(1)) | ((!v(0)) & v(2)) | (v(1) & v(2));
  EXPECT_EQ(mgr.isop(f, f).cover.to_string(), "0-1-----\n11------\n");
  EXPECT_EQ(mgr.isop(v(0) & v(1), v(0)).cover.to_string(), "1-------\n");
  EXPECT_EQ(mgr.isop(mgr.zero(), mgr.zero()).cover.to_string(), "");
  EXPECT_EQ(mgr.isop(mgr.one(), mgr.one()).cover.to_string(), "--------\n");

  BddManager random_mgr{8};
  std::mt19937 rng{4242};
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a
  std::size_t cubes = 0;
  for (int i = 0; i < 200; ++i) {
    const Bdd a = random_function(random_mgr, rng, 8, 3);
    const Bdd b = random_function(random_mgr, rng, 8, 3);
    const IsopResult result = random_mgr.isop(a & b, a | b);
    cubes += result.cover.cube_count();
    for (const char c : result.cover.to_string() + "|") {
      digest = (digest ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  EXPECT_EQ(cubes, 634u);
  EXPECT_EQ(digest, 0x4fc4885a8ad19ad5ull);
}

/// leq_flipped(lower, upper, v) against both of its definitions, for every
/// variable of the manager: ∃v lower ⊆ ∀v upper (the elimination test it
/// replaces) and lower ⊆ upper[v := ¬v] (its own contract, built here by
/// compose).  Returns how many variables were non-essential.
std::size_t expect_leq_flipped_matches(
    BddManager& mgr, const std::vector<std::pair<Bdd, Bdd>>& intervals) {
  std::size_t passed = 0;
  for (const auto& [lower, upper] : intervals) {
    for (std::uint32_t var = 0; var < mgr.num_vars(); ++var) {
      const std::uint64_t created = mgr.stats().nodes_created;
      const bool fast = mgr.leq_flipped(lower, upper, var);
      EXPECT_EQ(mgr.stats().nodes_created, created) << "built a node";
      const std::span<const std::uint32_t> one_var(&var, 1);
      EXPECT_EQ(fast, mgr.exists(lower, one_var)
                          .subset_of(mgr.forall(upper, one_var)))
          << "var " << var;
      std::vector<Bdd> flip;
      for (std::uint32_t w = 0; w < mgr.num_vars(); ++w) {
        flip.push_back(w == var ? !mgr.var(w) : mgr.var(w));
      }
      EXPECT_EQ(fast, lower.subset_of(mgr.compose(upper, flip)));
      // The general contract holds off intervals too (upper ⊄ lower).
      EXPECT_EQ(mgr.leq_flipped(upper, lower, var),
                upper.subset_of(mgr.compose(lower, flip)));
      passed += fast ? 1 : 0;
    }
  }
  return passed;
}

TEST(EssentialVarKernelTest, AgreesWithQuantificationOnFreshAndSifted) {
  // Intervals over the middle block 2..7 of 10 variables, so the loop
  // over all variables covers ones above, inside and below the support.
  constexpr std::uint32_t kVars = 10;
  BddManager mgr{kVars};
  std::vector<Bdd> shift;
  for (std::uint32_t w = 0; w < kVars; ++w) {
    shift.push_back(mgr.var(w < 6 ? w + 2 : w));
  }
  std::vector<std::pair<Bdd, Bdd>> intervals;
  std::mt19937 rng{1402};
  for (int i = 0; i < 40; ++i) {
    const Bdd a = random_function(mgr, rng, 6, 3);
    const Bdd b = random_function(mgr, rng, 6, 3);
    intervals.emplace_back(mgr.compose(a & b, shift),
                           mgr.compose(a | b, shift));
  }
  // Variables 0, 1, 8 and 9 lie outside every support and always pass.
  const std::size_t fresh_passed = expect_leq_flipped_matches(mgr, intervals);
  EXPECT_GT(fresh_passed, 4 * intervals.size())
      << "no variable of the block was ever non-essential";
  EXPECT_LT(fresh_passed, kVars * intervals.size());

  Bdd pairs = mgr.zero();
  for (std::uint32_t i = 0; i < kVars / 2; ++i) {
    pairs = pairs | (mgr.var(i) & mgr.var(i + kVars / 2));
  }
  mgr.reorder();
  ASSERT_FALSE(mgr.has_identity_order());
  EXPECT_EQ(expect_leq_flipped_matches(mgr, intervals), fresh_passed);
}

TEST(EssentialVarKernelTest, WarmKernelsAllocateNothing) {
  BddManager mgr{10};
  const auto intervals = random_intervals(mgr, 1503, 40);
  for (const auto& [lower, upper] : intervals) {  // warm the memo
    (void)mgr.isop_function(lower, upper);
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t created = mgr.stats().nodes_created;
  std::size_t sink = 0;
  for (const auto& [lower, upper] : intervals) {
    sink += mgr.isop_function(lower, upper).is_zero() ? 1 : 0;
    for (std::uint32_t var = 0; var < mgr.num_vars(); ++var) {
      sink += mgr.leq_flipped(lower, upper, var) ? 1 : 0;
    }
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(mgr.stats().nodes_created, created);
  EXPECT_GT(sink, 0u);
}

// ---------------------------------------------------------------------------
// Traversals on the manager's scratch vs reference walks.
// ---------------------------------------------------------------------------

/// The top variable of a non-constant f: the first variable in level
/// order that f depends on.
std::uint32_t top_var(BddManager& mgr, const Bdd& f) {
  for (std::uint32_t level = 0; level < mgr.num_vars(); ++level) {
    const std::uint32_t v = mgr.var_at_level(level);
    if (!(f.cofactor(v, true) == f.cofactor(v, false))) {
      return v;
    }
  }
  throw std::logic_error("top_var: constant function");
}

/// Reference DAG walk that shares no code with the manager's traversals:
/// the node behind an edge is its index, its children are the Shannon
/// cofactors at its top variable, and the visited set is a plain
/// unordered_set — the shape of the pre-scratch size() and support().
struct ReferenceWalk {
  std::unordered_set<std::uint32_t> nodes;  ///< terminal included
  std::set<std::uint32_t> vars;
};

ReferenceWalk reference_walk(BddManager& mgr, const Bdd& f) {
  ReferenceWalk walk;
  std::vector<Bdd> stack{f};
  while (!stack.empty()) {
    const Bdd g = stack.back();
    stack.pop_back();
    if (!walk.nodes.insert(detail::edge_index(g.raw_edge())).second ||
        g.is_constant()) {
      continue;
    }
    const std::uint32_t v = top_var(mgr, g);
    walk.vars.insert(v);
    stack.push_back(g.cofactor(v, true));
    stack.push_back(g.cofactor(v, false));
  }
  return walk;
}

/// Reference identity-order serialization: lo-first post-order ids over
/// regular node functions, memoized in an unordered_map (the shape of the
/// pre-scratch serialize_bdd fast path).  Identity-order managers only.
SerializedBdd reference_serialize(BddManager& mgr, const Bdd& f) {
  SerializedBdd out;
  std::unordered_map<std::uint32_t, std::uint32_t> id{{0u, 0u}};
  const auto edge_of = [](const Bdd& g, std::uint32_t node_id) {
    return (node_id << 1) |
           (detail::edge_complemented(g.raw_edge()) ? 1u : 0u);
  };
  const auto rec = [&](const auto& self, const Bdd& g) -> std::uint32_t {
    const std::uint32_t idx = detail::edge_index(g.raw_edge());
    if (const auto it = id.find(idx); it != id.end()) {
      return it->second;
    }
    const Bdd regular =
        detail::edge_complemented(g.raw_edge()) ? !g : g;
    const std::uint32_t v = top_var(mgr, regular);
    const Bdd hi = regular.cofactor(v, true);
    const Bdd lo = regular.cofactor(v, false);
    const std::uint32_t lo_id = self(self, lo);
    const std::uint32_t hi_id = self(self, hi);
    out.nodes.push_back(
        SerializedBdd::Node{v, edge_of(hi, hi_id), edge_of(lo, lo_id)});
    out.num_vars = std::max(out.num_vars, v + 1);
    const auto node_id = static_cast<std::uint32_t>(out.nodes.size());
    id.emplace(idx, node_id);
    return node_id;
  };
  out.root = edge_of(f, rec(rec, f));
  return out;
}

/// Minterm count of f by evaluation over all 2^num_vars assignments.
double reference_sat_count(BddManager& mgr, const Bdd& f) {
  const std::uint32_t n = mgr.num_vars();
  std::vector<bool> point(n, false);
  double count = 0.0;
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
    for (std::uint32_t v = 0; v < n; ++v) {
      point[v] = ((m >> v) & 1u) != 0;
    }
    count += f.eval(point) ? 1.0 : 0.0;
  }
  return count;
}

void expect_same_serialized(const SerializedBdd& got,
                            const SerializedBdd& want) {
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t k = 0; k < got.nodes.size(); ++k) {
    EXPECT_EQ(got.nodes[k].var, want.nodes[k].var) << "node " << k;
    EXPECT_EQ(got.nodes[k].hi, want.nodes[k].hi) << "node " << k;
    EXPECT_EQ(got.nodes[k].lo, want.nodes[k].lo) << "node " << k;
  }
  EXPECT_EQ(got.root, want.root);
  EXPECT_EQ(got.num_vars, want.num_vars);
}

/// size, support and sat_count of every root against the references;
/// serialize_bdd too when the manager has the identity order.
void expect_traversals_match(BddManager& mgr, const std::vector<Bdd>& roots) {
  for (const Bdd& f : roots) {
    const ReferenceWalk walk = reference_walk(mgr, f);
    EXPECT_EQ(f.size(), walk.nodes.size());
    EXPECT_EQ(f.support(),
              std::vector<std::uint32_t>(walk.vars.begin(), walk.vars.end()));
    const double count = reference_sat_count(mgr, f);
    EXPECT_EQ(mgr.sat_count(f, mgr.num_vars()), count);
    EXPECT_EQ(mgr.sat_count(f, mgr.num_vars() + 3), count * 8.0);
    if (mgr.has_identity_order()) {
      expect_same_serialized(mgr.serialize_bdd(f), reference_serialize(mgr, f));
    }
  }
}

/// Random roots plus the corner cases: constants, a literal, and the
/// interleaving-sensitive pair function OR_i (x_i & x_{i+half}).
std::vector<Bdd> traversal_roots(BddManager& mgr, std::mt19937& rng,
                                 std::size_t count) {
  const std::uint32_t vars = mgr.num_vars();
  std::vector<Bdd> roots{mgr.one(), mgr.zero(), !mgr.var(vars - 1)};
  Bdd pairs = mgr.zero();
  for (std::uint32_t i = 0; i < vars / 2; ++i) {
    pairs = pairs | (mgr.var(i) & mgr.var(i + vars / 2));
  }
  roots.push_back(pairs);
  for (std::size_t i = 0; i < count; ++i) {
    roots.push_back(random_function(mgr, rng, vars, 4));
  }
  return roots;
}

TEST(BddTraversalTest, MatchesReferenceWalksAcrossGcResetAndReorder) {
  constexpr std::uint32_t kVars = 10;
  BddManager mgr{kVars};
  std::mt19937 rng{606};
  std::vector<Bdd> roots = traversal_roots(mgr, rng, 40);
  expect_traversals_match(mgr, roots);

  // GC index reuse: freed slots come back holding other functions, so
  // anything keyed on node indices across calls would now be wrong.
  roots.resize(roots.size() / 2);
  mgr.garbage_collect();
  for (Bdd& f : traversal_roots(mgr, rng, 20)) {
    roots.push_back(std::move(f));
  }
  expect_traversals_match(mgr, roots);

  // A variable-block reset restarts the node store from index 1.
  roots.clear();
  ASSERT_TRUE(mgr.reset_variables());
  (void)mgr.add_vars(kVars);
  roots = traversal_roots(mgr, rng, 40);
  expect_traversals_match(mgr, roots);

  // Reordered: the pair function forces sifting off the identity order.
  // serialize_bdd re-expresses in identity order, so it must match an
  // identity-order twin built from the same seed.
  BddManager twin{kVars};
  std::mt19937 twin_rng{707};
  const std::vector<Bdd> twin_roots = traversal_roots(twin, twin_rng, 40);
  std::mt19937 same_rng{707};
  const std::vector<Bdd> sifted_roots = traversal_roots(mgr, same_rng, 40);
  mgr.reorder();
  ASSERT_FALSE(mgr.has_identity_order());
  expect_traversals_match(mgr, sifted_roots);
  for (std::size_t i = 0; i < sifted_roots.size(); ++i) {
    expect_same_serialized(mgr.serialize_bdd(sifted_roots[i]),
                           reference_serialize(twin, twin_roots[i]));
  }
}

TEST(BddTraversalTest, WarmTraversalsAllocateOnlyTheirResults) {
  constexpr std::uint32_t kVars = 12;
  BddManager mgr{kVars};
  std::mt19937 rng{808};
  const std::vector<Bdd> roots = traversal_roots(mgr, rng, 64);
  std::size_t non_constant = 0;
  for (const Bdd& f : roots) {
    // Warm-up: the scratch grows to the largest DAG walked.
    (void)f.size();
    (void)f.support();
    (void)mgr.sat_count(f, kVars);
    (void)mgr.serialize_bdd(f);
    non_constant += f.is_constant() ? 0 : 1;
  }
  const auto allocs_during = [](const auto& body) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    body();
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  std::size_t total_size = 0;
  EXPECT_EQ(allocs_during([&] {
              for (const Bdd& f : roots) {
                total_size += f.size();
              }
            }),
            0u);
  EXPECT_GT(total_size, roots.size());
  double total_count = 0.0;
  EXPECT_EQ(allocs_during([&] {
              for (const Bdd& f : roots) {
                total_count += mgr.sat_count(f, kVars);
              }
            }),
            0u);
  EXPECT_GT(total_count, 0.0);
  // support() and serialize_bdd() allocate exactly one buffer each — the
  // result, sized exactly — and nothing at all for a constant.
  EXPECT_EQ(allocs_during([&] {
              for (const Bdd& f : roots) {
                (void)f.support();
              }
            }),
            non_constant);
  EXPECT_EQ(allocs_during([&] {
              for (const Bdd& f : roots) {
                (void)mgr.serialize_bdd(f);
              }
            }),
            non_constant);
}

// ---------------------------------------------------------------------------
// Tables over an explicit layout (BddManager::table_of / bdd_of_table): the
// conversions the truth-table ISOP and the relation tables share.
// ---------------------------------------------------------------------------

/// The layout of `vars` deepest level first.
std::vector<std::uint32_t> deepest_first(const BddManager& mgr,
                                         std::vector<std::uint32_t> vars) {
  std::sort(vars.begin(), vars.end(), [&mgr](std::uint32_t a, std::uint32_t b) {
    return mgr.level_of_var(a) > mgr.level_of_var(b);
  });
  return vars;
}

TEST(TableLayoutTest, RoundTripsOverLayoutsWiderThanTheSupport) {
  for (const bool scrambled : {false, true}) {
    BddManager mgr{0};
    (void)mgr.add_vars(12);
    if (scrambled) {
      const std::vector<std::uint32_t> ranks = {7, 2, 11, 0, 5, 9,
                                                1, 10, 4, 6, 3, 8};
      mgr.seed_block_order(0, ranks);
    }
    std::mt19937 rng{scrambled ? 77u : 78u};
    for (const std::uint32_t width : {3u, 6u, 9u, 12u}) {
      std::vector<std::uint32_t> all(12);
      for (std::uint32_t v = 0; v < 12; ++v) {
        all[v] = v;
      }
      std::shuffle(all.begin(), all.end(), rng);
      const std::vector<std::uint32_t> layout = deepest_first(
          mgr, std::vector<std::uint32_t>(all.begin(), all.begin() + width));
      std::vector<std::uint64_t> table(tt::table_words(width));
      for (int i = 0; i < 20; ++i) {
        // Over a subset of the layout: the table ignores the rest.
        const std::span<const std::uint32_t> support(
            layout.data(), 1 + rng() % width);
        const Bdd f = random_function_over(mgr, rng, support, 3);
        ASSERT_TRUE(mgr.table_of(f, layout, table.data()));
        EXPECT_TRUE(mgr.bdd_of_table(table.data(), layout) == f);
        std::vector<bool> x(12, false);
        for (std::uint64_t bit = 0; bit < (std::uint64_t{1} << width); ++bit) {
          for (std::uint32_t p = 0; p < width; ++p) {
            x[layout[p]] = ((bit >> p) & 1u) != 0;
          }
          ASSERT_EQ((table[bit >> 6] >> (bit & 63) & 1u) != 0, f.eval(x))
              << "width " << width << " bit " << bit;
        }
        if (width < 6) {  // a one-word table is replicated above 2^width
          EXPECT_EQ(tt::replicate(table[0], width), table[0]);
        }
      }
    }
  }
}

TEST(TableLayoutTest, DependenceOutsideTheLayoutIsReported) {
  BddManager mgr{8, 12};
  std::uint64_t table[2] = {};
  const std::vector<std::uint32_t> layout = {5, 3, 1};  // identity order
  // Below position 0, between positions, above the top position.
  for (const std::uint32_t outside : {7u, 4u, 2u, 0u}) {
    const Bdd f = mgr.var(3) & (mgr.var(outside) | mgr.var(1));
    EXPECT_FALSE(mgr.table_of(f, layout, table)) << outside;
  }
  const std::vector<std::uint32_t> wide = {7, 6, 5, 4, 3, 2, 1};
  EXPECT_FALSE(mgr.table_of(mgr.var(0) ^ mgr.var(6), wide, table));
  EXPECT_TRUE(mgr.table_of(mgr.var(1) ^ mgr.var(6), wide, table));
  EXPECT_TRUE(mgr.bdd_of_table(table, wide) == (mgr.var(1) ^ mgr.var(6)));
}

TEST(TableLayoutTest, RejectsInvalidLayoutsAndTables) {
  BddManager mgr{8, 12};
  std::uint64_t table[1] = {0x6};
  const std::vector<std::uint32_t> top_first = {1, 3};
  const std::vector<std::uint32_t> unknown = {9, 3};
  const std::vector<std::uint32_t> twice = {3, 3};
  for (const auto* layout : {&top_first, &unknown, &twice}) {
    EXPECT_FALSE(mgr.valid_table_layout(*layout));
    EXPECT_THROW((void)mgr.table_of(mgr.var(3), *layout, table),
                 std::invalid_argument);
    EXPECT_THROW((void)mgr.bdd_of_table(table, *layout),
                 std::invalid_argument);
  }
  // 0x6 is x0 xor x1 on its low 4 bits but not replicated above them.
  const std::vector<std::uint32_t> layout = {3, 1};
  EXPECT_THROW((void)mgr.bdd_of_table(table, layout), std::invalid_argument);
  table[0] = 0x6666666666666666ull;
  EXPECT_TRUE(mgr.bdd_of_table(table, layout) == (mgr.var(3) ^ mgr.var(1)));
}


// ---------------------------------------------------------------------------
// Computed-table sizing: the table starts at 2^12 entries, doubles while the
// node store outgrows it, never passes the constructor's cap, keeps its
// size through GC and returns to the start size on reset_variables.  Being
// a cache, its size must never show in a result.
// ---------------------------------------------------------------------------

constexpr std::size_t kCacheStartEntries = std::size_t{1} << 12;

std::size_t cache_entries(const BddManager& mgr) {
  return mgr.stats().cache_entries;
}

/// Keep building random functions over the manager's variables until the
/// node store has created `target` nodes in total.
void build_until(BddManager& mgr, std::mt19937& rng, std::vector<Bdd>& held,
                 std::uint64_t target) {
  while (mgr.stats().nodes_created < target) {
    const Bdd f = random_function(mgr, rng, mgr.num_vars(), 6);
    held.push_back(held.empty() ? f : (f ^ held[rng() % held.size()]));
  }
}

TEST(BddCacheSizingTest, GrowsWithTheNodeStoreUpToTheCapAndResetsToStart) {
  for (const std::uint32_t cap_log2 : {10u, 18u}) {
    SCOPED_TRACE(cap_log2);
    const std::size_t cap = std::size_t{1} << cap_log2;
    const std::size_t start = std::min(kCacheStartEntries, cap);
    BddManager mgr{20, cap_log2};
    std::mt19937 rng{cap_log2};
    EXPECT_EQ(cache_entries(mgr), start);

    // No node is freed before the first GC, so the node store holds the
    // terminal plus every node created: the table is that count rounded
    // up to a power of two, clamped to [start, cap].
    std::vector<Bdd> held;
    std::size_t last = cache_entries(mgr);
    while (mgr.stats().nodes_created < cap + cap / 2) {
      build_until(mgr, rng, held, mgr.stats().nodes_created + 1);
      const std::size_t store = 1 + mgr.stats().nodes_created;
      const std::size_t entries = cache_entries(mgr);
      ASSERT_EQ(entries, std::min(cap, std::max(start, std::bit_ceil(store))))
          << "node store " << store;
      ASSERT_GE(entries, last);
      last = entries;
    }
    EXPECT_EQ(last, cap);

    // GC empties the table but keeps its size.
    held.resize(held.size() / 2);
    mgr.garbage_collect();
    EXPECT_EQ(cache_entries(mgr), cap);
    build_until(mgr, rng, held, mgr.stats().nodes_created + 4096);
    EXPECT_EQ(cache_entries(mgr), cap);

    // A pool slot's lifecycle: every build regrows the table past the
    // start size (when the cap allows), every reset returns it there.
    for (int cycle = 0; cycle < 50; ++cycle) {
      held.clear();
      ASSERT_TRUE(mgr.reset_variables());
      ASSERT_EQ(cache_entries(mgr), start) << "cycle " << cycle;
      (void)mgr.add_vars(20);
      const std::uint64_t created = mgr.stats().nodes_created;
      build_until(mgr, rng, held, created + 3 * start);
      const std::size_t store = 1 + mgr.stats().nodes_created - created;
      ASSERT_EQ(cache_entries(mgr),
                std::min(cap, std::max(start, std::bit_ceil(store))))
          << "cycle " << cycle;
      ASSERT_GT(cache_entries(mgr), std::min(start, cap / 2));
    }
  }
}

TEST(BddCacheSizingTest, GrowthKeepsEveryEntry) {
  BddManager mgr{8};
  std::mt19937 rng{404};
  std::vector<std::pair<Bdd, Bdd>> pairs;
  for (int i = 0; i < 24; ++i) {
    pairs.emplace_back(random_function(mgr, rng, 8, 3),
                       random_function(mgr, rng, 8, 3));
  }
  const auto op = static_cast<std::size_t>(BddOp::And);
  // Every conjunction that is a root hit now must stay one once the
  // table has doubled.
  const auto root_hits = [&] {
    std::size_t hits = 0;
    for (const auto& [f, g] : pairs) {
      const std::uint64_t lookups_before = mgr.stats().op_lookups[op];
      const std::uint64_t hits_before = mgr.stats().op_hits[op];
      (void)mgr.bdd_and(f, g);
      hits += mgr.stats().op_lookups[op] == lookups_before + 1 &&
              mgr.stats().op_hits[op] == hits_before + 1;
    }
    return hits;
  };
  for (const auto& [f, g] : pairs) {
    (void)mgr.bdd_and(f, g);
  }
  const std::size_t hits = root_hits();
  EXPECT_GT(hits, pairs.size() / 2);
  ASSERT_EQ(cache_entries(mgr), kCacheStartEntries);

  // Projection nodes of fresh variables probe no cache: they only grow
  // the node store, and with it the table.
  const std::uint32_t first = mgr.add_vars(kCacheStartEntries);
  for (std::uint32_t v = first; v < mgr.num_vars(); ++v) {
    (void)mgr.var(v);
  }
  ASSERT_EQ(cache_entries(mgr), 2 * kCacheStartEntries);
  EXPECT_EQ(root_hits(), hits);
}

/// Every result of a mixed kernel workload over 24 variables, serialized,
/// plus what the workload saw of the table's growth.
struct CacheWorkloadRun {
  std::vector<SerializedBdd> results;
  std::size_t growing_ands = 0;  ///< bdd_and calls that grew the table
  std::size_t root_hits = 0;     ///< ... whose repeat was one root hit
  std::set<std::size_t> sizes;   ///< table sizes seen between calls
};

CacheWorkloadRun run_cache_workload(BddManager& mgr) {
  constexpr std::uint32_t kVars = 24;
  std::mt19937 rng{2311};
  CacheWorkloadRun run;
  const auto and_probes = [&mgr] {
    const BddStats& stats = mgr.stats();
    const auto op = static_cast<std::size_t>(BddOp::And);
    return std::pair{stats.op_lookups[op], stats.op_hits[op]};
  };
  // Every bdd_and goes through here: one that grows the table does so
  // while the root's probe is pending, and its insert must land where a
  // probe under the new size looks, so the repeat hits at the root.
  const auto conjoin = [&](const Bdd& f, const Bdd& g) {
    const std::size_t before = cache_entries(mgr);
    Bdd result = mgr.bdd_and(f, g);
    run.sizes.insert(cache_entries(mgr));
    if (cache_entries(mgr) != before) {
      ++run.growing_ands;
      const auto [lookups, hits] = and_probes();
      EXPECT_TRUE(mgr.bdd_and(f, g) == result);
      const auto [lookups_after, hits_after] = and_probes();
      run.root_hits += lookups_after == lookups + 1 && hits_after == hits + 1;
    }
    return result;
  };
  // NOT of OR_{i<12} (x_i & x_{i+12}): about 2^13 nodes in this order,
  // each conjunction adding as many nodes as the store already holds, so
  // some conjunction crosses the start size.
  Bdd chain = mgr.one();
  for (std::uint32_t i = 0; i < kVars / 2; ++i) {
    chain = conjoin(chain, !(mgr.var(i) & mgr.var(i + kVars / 2)));
  }
  run.results.push_back(mgr.serialize_bdd(chain));
  std::vector<Bdd> pool;
  for (int i = 0; i < 24; ++i) {
    pool.push_back(random_function(mgr, rng, kVars, 4));
  }
  for (int round = 0; round < 30; ++round) {
    const Bdd& a = pool[rng() % pool.size()];
    const Bdd& b = pool[rng() % pool.size()];
    const Bdd& c = pool[rng() % pool.size()];
    const Bdd conj = conjoin(a, b);
    const Bdd sum = mgr.bdd_xor(conj, c);
    const Bdd choice = mgr.ite(a, sum, c);
    const auto first = static_cast<std::uint32_t>(rng() % (kVars - 2));
    const std::vector<std::uint32_t> quantified = {first, first + 2};
    const Bdd projected = mgr.exists(choice, quantified);
    std::vector<Bdd> substitution;
    for (std::uint32_t v = 0; v < kVars; ++v) {
      substitution.push_back(mgr.var(v));
    }
    substitution[rng() % kVars] = !mgr.var(rng() % kVars);
    substitution[rng() % kVars] =
        mgr.bdd_or(mgr.var(rng() % kVars), mgr.var(rng() % kVars));
    const Bdd composed = mgr.compose(projected, substitution);
    const Bdd cof = mgr.cofactor(composed, rng() % kVars, rng() % 2 == 0);
    // A wide interval (BDD recursion) and one narrowed to at most 14
    // variables (the truth-table path).
    const Bdd upper = a | c;
    const Bdd wide = mgr.isop_function(conj, upper);
    const std::vector<std::uint32_t> ten = {0, 2, 5, 8, 9, 13, 15, 17, 20, 23};
    const Bdd narrow =
        mgr.isop_function(mgr.exists(conj, ten), mgr.exists(upper, ten));
    for (const Bdd* f :
         {&conj, &sum, &choice, &projected, &composed, &cof, &wide, &narrow}) {
      run.results.push_back(mgr.serialize_bdd(*f));
    }
    if (round % 10 == 9) {
      mgr.garbage_collect();
    }
  }
  return run;
}

TEST(BddCacheSizingTest, ResultsDoNotDependOnTheTableSize) {
  BddManager fixed{24, 12};  // capped at the start size: never grows
  BddManager grown{24, 18};
  const CacheWorkloadRun small = run_cache_workload(fixed);
  const CacheWorkloadRun large = run_cache_workload(grown);
  EXPECT_EQ(small.sizes, std::set<std::size_t>{kCacheStartEntries});
  EXPECT_EQ(small.growing_ands, 0u);
  EXPECT_GT(large.sizes.size(), 2u) << "the workload must grow the table";
  ASSERT_GE(large.growing_ands, 1u)
      << "no single bdd_and grew the table mid-recursion";
  EXPECT_EQ(large.root_hits, large.growing_ands);
  ASSERT_EQ(small.results.size(), large.results.size());
  for (std::size_t i = 0; i < small.results.size(); ++i) {
    ASSERT_TRUE(small.results[i] == large.results[i]) << "result " << i;
  }
}

}  // namespace
}  // namespace brel
