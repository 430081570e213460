// Differential tests for the relation tables (relation_table.hpp): at
// every shape |X| = 1..10, |Y| = 1..8 — sub-word images (|Y| < 6) and
// one-word input tables (|X| < 6) included — the table path returns the
// same edges as the BDD path for every MISF output, quick_solve and the
// conflict inputs, and the same Split guard at every vertex.  A split
// half's quick solve started from its parent's quick solution returns the
// same edges as a fresh one, and a sift in between refuses the start.  A
// relation whose order interleaves outputs with inputs falls back to
// BDDs; tables stay right across garbage collection and reset_variables;
// and a 4-worker search on 10 x 8 relations reproduces the serial one bit
// for bit.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bdd/bdd_transfer.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/parallel_engine.hpp"
#include "brel/quick_solver.hpp"
#include "brel/search.hpp"
#include "relation/relation_table.hpp"

namespace brel {
namespace {

/// A suite-style relation (cube, singleton and complement-pair images).
BooleanRelation suite_relation(BddManager& mgr, std::size_t n, std::size_t m,
                               std::uint32_t seed) {
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  return make_benchmark_relation(
      mgr, RelationBenchmark{"table", n, m, seed}, inputs, outputs);
}

/// A relation whose every input vertex gets 1-3 random output vertices:
/// conflicts everywhere and little cube structure.
BooleanRelation random_relation(BddManager& mgr, std::size_t n,
                                std::size_t m, std::uint32_t seed) {
  std::mt19937 rng{seed};
  const std::uint32_t first = mgr.add_vars(static_cast<std::uint32_t>(n + m));
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(first + static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < m; ++i) {
    outputs.push_back(first + static_cast<std::uint32_t>(n + i));
  }
  const auto point = [&mgr](const std::vector<std::uint32_t>& vars,
                            std::uint64_t code) {
    Bdd cube = mgr.one();
    for (std::size_t i = 0; i < vars.size(); ++i) {
      cube = cube & mgr.literal(vars[i], ((code >> i) & 1u) != 0);
    }
    return cube;
  };
  Bdd chi = mgr.zero();
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << n); ++x) {
    Bdd image = mgr.zero();
    for (std::uint32_t k = 1 + rng() % 3; k > 0; --k) {
      image = image | point(outputs, rng() % (std::uint64_t{1} << m));
    }
    chi = chi | (point(inputs, x) & image);
  }
  return BooleanRelation(mgr, inputs, outputs, chi);
}

/// The input vertex with code `code` (bit j = inputs[j]) as a full
/// assignment of the manager's variables.
std::vector<bool> vertex(const BooleanRelation& r, std::uint64_t code) {
  std::vector<bool> x(r.manager().num_vars(), false);
  for (std::size_t j = 0; j < r.num_inputs(); ++j) {
    x[r.inputs()[j]] = ((code >> j) & 1u) != 0;
  }
  return x;
}

/// Every table kernel against its BDD counterpart on r, which must load.
void expect_table_matches_bdd(const BooleanRelation& r,
                              const std::string& what) {
  BddManager& mgr = r.manager();
  RelationTable table;
  ASSERT_TRUE(table.load(r)) << what;
  ASSERT_TRUE(table.well_defined()) << what;
  const MultiFunction misf = table.misf_candidate();
  for (std::size_t i = 0; i < r.num_outputs(); ++i) {
    EXPECT_TRUE(misf.outputs[i] ==
                IsfMinimizer{}.minimize(r.project_output(i)))
        << what << ": MISF output " << i;
  }
  const MultiFunction quick = table.quick_solve();
  const MultiFunction reference = quick_solve_bdd(r);
  for (std::size_t i = 0; i < r.num_outputs(); ++i) {
    EXPECT_TRUE(quick.outputs[i] == reference.outputs[i])
        << what << ": quick_solve output " << i;
  }
  // A candidate with conflicts (the MISF one, usually), a compatible one
  // (the quick solution) and one with conflicts almost everywhere.
  MultiFunction crossed;
  for (std::size_t i = 0; i < r.num_outputs(); ++i) {
    crossed.outputs.push_back(
        mgr.var(r.inputs()[i % r.num_inputs()]) ^ misf.outputs[i]);
  }
  for (const MultiFunction& f : {misf, quick, crossed}) {
    const std::optional<Bdd> conflicts = table.conflict_inputs(f);
    ASSERT_TRUE(conflicts.has_value()) << what;
    EXPECT_TRUE(*conflicts == mgr.exists(r.incompatibilities(f), r.outputs()))
        << what << ": conflict inputs";
  }
  EXPECT_TRUE(table.conflict_inputs(quick)->is_zero()) << what;
  const std::uint64_t vertices = std::uint64_t{1} << r.num_inputs();
  const std::uint64_t step = vertices <= 256 ? 1 : 37;  // sampled above 8
  std::size_t splits = 0;
  for (std::uint64_t code = 0; code < vertices; code += step) {
    const std::vector<bool> x = vertex(r, code);
    for (std::size_t i = 0; i < r.num_outputs(); ++i) {
      const bool can_split = table.can_split(x, i);
      EXPECT_EQ(can_split, r.can_split(x, i))
          << what << ": vertex " << code << " output " << i;
      if (!can_split || splits++ >= 4) {
        continue;
      }
      // Both halves of the split, quick-solved from the held table.
      const auto [first, second] = r.split(x, i);
      for (const bool value : {false, true}) {
        const MultiFunction half = table.quick_solve_split(x, i, value);
        const MultiFunction expected = quick_solve_bdd(value ? second : first);
        for (std::size_t k = 0; k < r.num_outputs(); ++k) {
          EXPECT_TRUE(half.outputs[k] == expected.outputs[k])
              << what << ": split at vertex " << code << " output " << i
              << " half " << value << " output " << k;
        }
      }
      EXPECT_TRUE(table.holds(r)) << what;
    }
  }
}

TEST(RelationTableTest, EveryShapeMatchesTheBddPath) {
  for (std::size_t n = 1; n <= 10; ++n) {
    for (std::size_t m = 1; m <= 8; ++m) {
      const std::string shape = std::to_string(n) + "x" + std::to_string(m);
      {
        BddManager mgr{0};
        expect_table_matches_bdd(
            suite_relation(mgr, n, m, static_cast<std::uint32_t>(7 * n + m)),
            "suite " + shape);
      }
      {
        BddManager mgr{0};
        expect_table_matches_bdd(
            random_relation(mgr, n, m, static_cast<std::uint32_t>(n + 31 * m)),
            "random " + shape);
      }
    }
  }
}

/// The first step of r's Fig. 4 chain along `chain` (r's quick solution)
/// whose projection at x differs from the same step on `child` constrained
/// by the same functions: the step where a child's chain can leave its
/// parent's.  nullopt when every step agrees.  BDDs only.
std::optional<std::size_t> first_differing_step(const BooleanRelation& r,
                                                const BooleanRelation& child,
                                                const MultiFunction& chain,
                                                const std::vector<bool>& x) {
  BddManager& mgr = r.manager();
  BooleanRelation parent_k = r;
  BooleanRelation child_k = child;
  for (std::size_t k = 0; k < r.num_outputs(); ++k) {
    const Isf p = parent_k.project_output(k);
    const Isf c = child_k.project_output(k);
    if (p.max().eval(x) != c.max().eval(x) ||
        p.on().eval(x) != c.on().eval(x)) {
      return k;
    }
    const Bdd pinned = mgr.var(r.outputs()[k]).iff(chain.outputs[k]);
    parent_k = parent_k.constrain_with(pinned);
    child_k = child_k.constrain_with(pinned);
  }
  return std::nullopt;
}

bool same_edges(const MultiFunction& a, const MultiFunction& b) {
  return a.outputs == b.outputs;
}

TEST(RelationTableTest, ChildQuickSolveReusesTheParentChain) {
  // Both halves of several splits per relation, on every output, against
  // a fresh BDD quick solve of the half; the BDD walk classifies how the
  // half's chain relates to its parent's.
  std::size_t kept_whole = 0;      // the parent's functions came back
  std::size_t new_at_step = 0;     // a new function at the differing step
  std::size_t kept_at_step = 0;    // a differing step kept the parent's
  std::size_t step_after_first = 0;  // the differing step is not output 0
  for (std::size_t n = 1; n <= 10; ++n) {
    for (std::size_t m = 1; m <= 8; ++m) {
      for (const bool suite : {true, false}) {
        BddManager mgr{0};
        const BooleanRelation r =
            suite ? suite_relation(mgr, n, m,
                                   static_cast<std::uint32_t>(7 * n + m))
                  : random_relation(mgr, n, m,
                                    static_cast<std::uint32_t>(n + 31 * m));
        const std::string what = (suite ? "suite " : "random ") +
                                 std::to_string(n) + "x" + std::to_string(m);
        RelationTable table;
        ASSERT_TRUE(table.load(r)) << what;
        const QuickSolution parent{table.quick_solve(), mgr.stats().reorders};
        const std::uint64_t vertices = std::uint64_t{1} << n;
        // One split per output: the first splittable vertex from a
        // per-output offset.
        for (std::size_t i = 0; i < m; ++i) {
          for (std::uint64_t step = 0; step < vertices; ++step) {
            const std::uint64_t code = (step + 37 * i) % vertices;
            const std::vector<bool> x = vertex(r, code);
            if (!table.can_split(x, i)) {
              continue;
            }
            const auto [first, second] = r.split(x, i);
            for (const bool value : {false, true}) {
              const BooleanRelation& half = value ? second : first;
              const MultiFunction got =
                  table.quick_solve_split(x, i, value, &parent);
              const MultiFunction expected = quick_solve_bdd(half);
              ASSERT_TRUE(same_edges(got, expected))
                  << what << ": split at vertex " << code << " output " << i
                  << " half " << value;
              const std::optional<std::size_t> differs =
                  first_differing_step(r, half, parent.function, x);
              if (!differs.has_value()) {
                EXPECT_TRUE(same_edges(got, parent.function)) << what;
              } else if (got.outputs[*differs] ==
                         parent.function.outputs[*differs]) {
                ++kept_at_step;
              } else {
                ++new_at_step;
              }
              kept_whole += same_edges(got, parent.function) ? 1 : 0;
              step_after_first += differs.value_or(0) > 0 ? 1 : 0;
            }
            EXPECT_TRUE(table.holds(r)) << what;
            break;
          }
        }
      }
    }
  }
  EXPECT_GT(kept_whole, 0u);
  EXPECT_GT(new_at_step, 0u);
  EXPECT_GT(kept_at_step, 0u);
  EXPECT_GT(step_after_first, 0u);
}

TEST(RelationTableTest, SiftAfterTheParentsQuickSolveRefusesReuse) {
  // The parent's quick solution was computed under the order before a
  // sift; a fresh chain follows the new order, so the walk must not start
  // from the stale solution.
  std::size_t stale = 0;  // sifts that changed the parent's quick solution
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    BddManager mgr{0};
    const BooleanRelation r = seed % 2 == 0 ? suite_relation(mgr, 7, 5, seed)
                                            : random_relation(mgr, 6, 3, seed);
    RelationTable table;
    ASSERT_TRUE(table.load(r));
    const QuickSolution parent{table.quick_solve(), mgr.stats().reorders};
    mgr.reorder();
    if (!table.load(r)) {
      continue;  // the sift moved an output above an input
    }
    stale += same_edges(parent.function, quick_solve_bdd(r)) ? 0 : 1;
    for (std::uint64_t code = 0; code < (std::uint64_t{1} << 6); ++code) {
      const std::vector<bool> x = vertex(r, code);
      for (std::size_t i = 0; i < r.num_outputs(); ++i) {
        if (!table.can_split(x, i)) {
          continue;
        }
        const auto [first, second] = r.split(x, i);
        for (const bool value : {false, true}) {
          EXPECT_TRUE(same_edges(table.quick_solve_split(x, i, value, &parent),
                                 quick_solve_bdd(value ? second : first)))
              << "seed " << seed << " vertex " << code << " output " << i;
        }
      }
    }
  }
  EXPECT_GT(stale, 0u);
}

TEST(RelationTableTest, CanSplitReadsTheProjectionDefinition) {
  // Theorem 5.2's guard, (R↓y_i)(x) = {0, 1}, read off the projection
  // interval: x in the upper bound (1 allowed) and not in the lower one
  // (0 allowed too).  can_split reads the image of x instead.
  for (const std::uint32_t seed : {3u, 4u, 5u}) {
    BddManager mgr{0};
    const BooleanRelation r = suite_relation(mgr, 6, 4, seed);
    const BooleanRelation q = random_relation(mgr, 5, 3, seed);
    for (const BooleanRelation* rel : {&r, &q}) {
      for (std::size_t i = 0; i < rel->num_outputs(); ++i) {
        const Isf isf = rel->project_output(i);
        for (std::uint64_t code = 0;
             code < (std::uint64_t{1} << rel->num_inputs()); ++code) {
          const std::vector<bool> x = vertex(*rel, code);
          EXPECT_EQ(rel->can_split(x, i),
                    isf.max().eval(x) && !isf.on().eval(x))
              << "seed " << seed << " vertex " << code << " output " << i;
        }
      }
    }
  }
}

/// r rebuilt in `dst` (a fresh manager) with the order given top to
/// bottom by `order` (a permutation of r's manager variables).
BooleanRelation in_order(BddManager& dst, const BooleanRelation& r,
                         const std::vector<std::uint32_t>& order) {
  (void)dst.add_vars(r.manager().num_vars());
  dst.seed_block_order(0, order);
  return BooleanRelation(dst, r.inputs(), r.outputs(),
                         transfer_bdd(r.characteristic(), dst));
}

TEST(RelationTableTest, InterleavedOrderFallsBackToBdds) {
  BddManager src{0};
  const BooleanRelation r = suite_relation(src, 6, 4, 11);
  // x0 y0 x1 y1 x2 y2 x3 y3 x4 x5, top to bottom.
  std::vector<std::uint32_t> interleaved;
  for (std::size_t j = 0; j < r.num_inputs(); ++j) {
    interleaved.push_back(r.inputs()[j]);
    if (j < r.num_outputs()) {
      interleaved.push_back(r.outputs()[j]);
    }
  }
  BddManager dst{0};
  const BooleanRelation s = in_order(dst, r, interleaved);
  RelationTable table;
  EXPECT_FALSE(table.load(s));
  // The public entry points take the BDD path and still agree with it.
  const MultiFunction quick = quick_solve(s);
  const MultiFunction reference = quick_solve_bdd(s);
  for (std::size_t i = 0; i < s.num_outputs(); ++i) {
    EXPECT_TRUE(quick.outputs[i] == reference.outputs[i]) << i;
  }
  // So does a search, whose every node now runs on BDDs.
  const SolveResult solved = BrelSolver().solve(s);
  EXPECT_TRUE(s.is_compatible(solved.function));

  // Outputs above every input: the mirror image of the table layout.
  std::vector<std::uint32_t> outputs_first = r.outputs();
  outputs_first.insert(outputs_first.end(), r.inputs().begin(),
                       r.inputs().end());
  BddManager top{0};
  EXPECT_FALSE(table.load(in_order(top, r, outputs_first)));
}

TEST(RelationTableTest, SiftedOrderLoadsExactlyWhenOutputsStayBelow) {
  // Sifting these relations moves some outputs above inputs and leaves
  // others below; the table loaded before the sift notices either way.
  std::size_t loaded = 0;
  std::size_t refused = 0;
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    BddManager mgr{0};
    const BooleanRelation r = seed % 2 == 0 ? suite_relation(mgr, 7, 5, seed)
                                            : random_relation(mgr, 6, 3, seed);
    RelationTable table;
    ASSERT_TRUE(table.load(r));
    mgr.reorder();
    std::uint32_t deepest_input = 0;
    std::uint32_t shallowest_output = mgr.num_vars();
    for (const std::uint32_t x : r.inputs()) {
      deepest_input = std::max(deepest_input, mgr.level_of_var(x));
    }
    for (const std::uint32_t y : r.outputs()) {
      shallowest_output = std::min(shallowest_output, mgr.level_of_var(y));
    }
    const bool below = shallowest_output > deepest_input;
    ASSERT_EQ(table.load(r), below) << "seed " << seed;
    ++(below ? loaded : refused);
    if (below) {
      expect_table_matches_bdd(r, "sifted seed " + std::to_string(seed));
    } else {
      const MultiFunction quick = quick_solve(r);
      const MultiFunction reference = quick_solve_bdd(r);
      for (std::size_t i = 0; i < r.num_outputs(); ++i) {
        EXPECT_TRUE(quick.outputs[i] == reference.outputs[i]) << seed;
      }
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(RelationTableTest, TablesSurviveGarbageCollection) {
  BddManager mgr{0};
  const BooleanRelation r = suite_relation(mgr, 9, 7, 21);
  RelationTable table;
  ASSERT_TRUE(table.load(r));
  const MultiFunction first = table.misf_candidate();
  mgr.garbage_collect();  // the table holds χ; rebuilt edges stay valid
  ASSERT_TRUE(table.load(r));
  const MultiFunction misf = table.misf_candidate();
  for (std::size_t i = 0; i < r.num_outputs(); ++i) {
    EXPECT_TRUE(misf.outputs[i] == first.outputs[i]) << i;
  }
  mgr.garbage_collect();
  const MultiFunction quick = table.quick_solve();
  mgr.garbage_collect();
  EXPECT_TRUE(*table.conflict_inputs(misf) ==
              mgr.exists(r.incompatibilities(misf), r.outputs()));
  mgr.garbage_collect();
  expect_table_matches_bdd(r, "after garbage collection");
  const MultiFunction reference = quick_solve_bdd(r);
  for (std::size_t i = 0; i < r.num_outputs(); ++i) {
    EXPECT_TRUE(quick.outputs[i] == reference.outputs[i]) << i;
  }
}

TEST(RelationTableTest, TablesStayRightAcrossResetVariables) {
  // A pool slot's life: solve, drop every handle, reset, parse the next
  // request into the same variable ids — narrower, then wider.
  BddManager mgr{0};
  for (const auto& [n, m] : {std::pair{8u, 6u}, std::pair{3u, 2u},
                             std::pair{10u, 8u}, std::pair{6u, 7u}}) {
    {
      const BooleanRelation r = suite_relation(mgr, n, m, n * m);
      const SolveResult solved = BrelSolver().solve(r);
      EXPECT_TRUE(r.is_compatible(solved.function));
      expect_table_matches_bdd(r, "after reset " + std::to_string(n) + "x" +
                                      std::to_string(m));
    }
    ASSERT_TRUE(mgr.reset_variables());
  }
}

/// The schedule-independent configuration: no bound, depth cap.
SolverOptions deterministic_options(std::size_t max_depth) {
  SolverOptions options;
  options.cost = sum_of_bdd_sizes();
  options.max_relations = static_cast<std::size_t>(-1);
  options.use_cost_bound = false;
  options.max_depth = max_depth;
  options.reorder = ReorderMode::Off;
  return options;
}

TEST(RelationTableTest, FourWorkersReproduceSerialOnTenByEight) {
  for (const std::uint32_t seed : {101u, 202u}) {
    BddManager mgr{0};
    const BooleanRelation r = suite_relation(mgr, 10, 8, seed);
    SolverOptions options = deterministic_options(5);
    const SolveResult serial = SearchEngine(r, options).run();
    options.num_workers = 4;
    const SolveResult parallel = ParallelEngine(r, options).run();
    EXPECT_DOUBLE_EQ(parallel.cost, serial.cost) << seed;
    EXPECT_EQ(parallel.stats.relations_explored,
              serial.stats.relations_explored)
        << seed;
    ASSERT_EQ(parallel.function.outputs.size(), r.num_outputs());
    for (std::size_t i = 0; i < r.num_outputs(); ++i) {
      EXPECT_TRUE(parallel.function.outputs[i] == serial.function.outputs[i])
          << "seed " << seed << " output " << i;
    }
    EXPECT_TRUE(r.is_compatible(serial.function));
  }
}

}  // namespace
}  // namespace brel
