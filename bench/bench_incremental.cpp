// Incremental re-solve harness: cold vs warm traffic over the BR suite.
//
// Three regimes per suite instance, all under the schedule-independent
// configuration (no cost bound, depth cap 6, unlimited budget) with the
// delta-localization partition layer (partition_inputs = 5):
//
//   cold            — memo-less solve of the edited relation
//   warm-identical  — re-solve of the unchanged base against a memo the
//                     base's own run populated (every block root-hits)
//   warm-delta      — solve of a 1-minterm edit against the same memo
//
// The ISSUE bar, asserted here and enforced by CI bench-smoke: a
// 1-minterm-flip re-solve is bit-identical to the cold solve and the
// SUITE-AGGREGATE warm-delta exploration is at most 1/10 of cold.  The
// gate is aggregate by design — a point edit that lands in a block
// covering most of a small relation's interesting region legitimately
// re-searches a large fraction of that one instance (int1/she1/she4 sit
// near 1/8) while the suite as a whole stays near 1/30.
//
// `--json <path>` records every row plus the aggregate machine-readably:
// BENCH_incremental.json at the repo root is this harness's trajectory.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/delta_context.hpp"
#include "brel/global_memo.hpp"

int main(int argc, char** argv) {
  using namespace brel;
  const std::string json_path = bench::json_path_from_args(argc, argv);

  bench::JsonWriter json;
  json.begin_object();
  json.field_str("bench", "bench_incremental");
  bench::write_authoring_host(json);

  std::printf("Incremental re-solve over the BR suite "
              "(partition_inputs=5, depth cap 6, 1-minterm edits)\n\n");
  std::printf("%-8s %10s %10s %10s %10s %10s %10s %6s\n", "name", "cold",
              "warm-id", "warm-dlt", "cold[s]", "dlt[s]", "cost", "bit");

  std::uint64_t cold_total = 0;
  std::uint64_t warm_delta_total = 0;
  bool all_bit_identical = true;
  json.begin_array("instances");
  for (const RelationBenchmark& bench : relation_suite()) {
    BddManager mgr{0};
    std::vector<std::uint32_t> inputs;
    std::vector<std::uint32_t> outputs;
    const BooleanRelation base =
        make_benchmark_relation(mgr, bench, inputs, outputs);
    const BooleanRelation edited = flip_minterms(base, 1, bench.seed ^ 1u);

    SolverOptions options;
    options.cost = sum_of_bdd_sizes();
    options.max_relations = static_cast<std::size_t>(-1);
    options.use_cost_bound = false;
    options.max_depth = 6;
    options.partition_inputs = 5;

    // Cold: no memo, no registry — the baseline the ISSUE bar divides by.
    bench::Stopwatch cold_timer;
    const SolveResult cold = BrelSolver(options).solve(edited);
    const double cold_cpu = cold_timer.seconds();

    // Warm prep: the base's own solve populates memo + registry.
    const auto memo = std::make_shared<GlobalMemo>();
    DeltaRegistry registry;
    options.global_memo = memo;
    options.delta_registry = &registry;
    const BrelSolver warm_solver(options);
    (void)warm_solver.solve(base);

    // Warm-identical: the unchanged relation again — every block must be
    // served at the root, zero exploration.
    const SolveResult warm_identical = warm_solver.solve(base);

    // Warm-delta: the 1-minterm edit — one dirty block re-searches, the
    // clean blocks root-hit.
    bench::Stopwatch delta_timer;
    const SolveResult warm_delta = warm_solver.solve(edited);
    const double delta_cpu = delta_timer.seconds();

    const MemoSpace space = make_memo_space(edited);
    const bool bit_identical =
        make_portable_solution(space, warm_delta.function, warm_delta.cost) ==
        make_portable_solution(space, cold.function, cold.cost);
    all_bit_identical = all_bit_identical && bit_identical;
    cold_total += cold.stats.relations_explored;
    warm_delta_total += warm_delta.stats.relations_explored;

    std::printf("%-8s %10zu %10zu %10zu %10.3f %10.3f %10.0f %6s\n",
                bench.name.c_str(), cold.stats.relations_explored,
                warm_identical.stats.relations_explored,
                warm_delta.stats.relations_explored, cold_cpu, delta_cpu,
                warm_delta.cost, bit_identical ? "yes" : "NO");

    json.begin_element();
    json.field_str("name", bench.name);
    json.field_int("cold_explored", cold.stats.relations_explored);
    json.field_num("cold_cost", cold.cost);
    json.field_num("cold_cpu_seconds", cold_cpu);
    json.field_int("warm_identical_explored",
                   warm_identical.stats.relations_explored);
    json.field_int("warm_identical_memo_hits",
                   warm_identical.stats.memo_hits);
    json.field_int("warm_delta_explored",
                   warm_delta.stats.relations_explored);
    json.field_num("warm_delta_cost", warm_delta.cost);
    json.field_num("warm_delta_cpu_seconds", delta_cpu);
    json.field_int("delta_reused", warm_delta.stats.delta_reused);
    json.field_int("delta_researched", warm_delta.stats.delta_researched);
    json.field_int("bit_identical", bit_identical ? 1 : 0);
    json.end_element();
  }
  json.end_array();

  const double ratio =
      cold_total == 0
          ? 0.0
          : static_cast<double>(warm_delta_total) /
                static_cast<double>(cold_total);
  std::printf("\naggregate: cold %llu, warm-delta %llu (ratio %.3f, bar "
              "0.100)\n",
              static_cast<unsigned long long>(cold_total),
              static_cast<unsigned long long>(warm_delta_total), ratio);
  json.begin_object("aggregate");
  json.field_int("cold_explored_total", cold_total);
  json.field_int("warm_delta_explored_total", warm_delta_total);
  json.field_num("warm_over_cold_ratio", ratio);
  json.end_object();
  json.end_object();

  if (!json_path.empty() && !json.save(json_path)) {
    return 1;
  }
  if (!all_bit_identical) {
    std::fprintf(stderr,
                 "FAIL: a warm-delta re-solve diverged from its cold "
                 "solve\n");
    return 1;
  }
  if (warm_delta_total * 10 > cold_total) {
    std::fprintf(stderr,
                 "FAIL: aggregate warm-delta exploration %llu exceeds "
                 "cold/10 (%llu/10)\n",
                 static_cast<unsigned long long>(warm_delta_total),
                 static_cast<unsigned long long>(cold_total));
    return 1;
  }
  return 0;
}
