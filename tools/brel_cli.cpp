// brel_cli — command-line front end for the BREL solver.
//
// Reads a relation in the .br text format (see relation_io.hpp) from a
// file or stdin, solves it, and prints the solution as per-output SOP
// covers plus statistics.
//
//   brel_cli [options] [file.br]          (no file or "-" = stdin)
//     --cost=size|size2|cubes|lits|balance   objective (default size)
//     --max-relations=N                      explored relations (default 10)
//     --budget=N                             alias for --max-relations
//     --fifo=N                               pending-frontier bound
//     --max-depth=N                          truncate the tree below depth N
//                                            (schedule-independent partial
//                                            exploration)
//     --exact                                complete exploration
//     --order=bfs|dfs|best                   exploration order
//     --workers=N                            parallel exploration with N
//                                            worker threads, one private BDD
//                                            manager each (0 = one per
//                                            hardware thread; default 1)
//     --reorder=off|on|auto                  dynamic variable reordering of
//                                            the solving manager(s): off =
//                                            never (default, bit-identical
//                                            results), on = sift once before
//                                            exploring, auto = sift whenever
//                                            live nodes cross the GC-coupled
//                                            threshold; prints a reorder
//                                            stats line when sifting ran
//     --no-bound                             disable the line-6 cost bound
//     --symmetry                             enable the symmetry cache
//     --totalize                             repair partial relations
//     --solver=brel|quick|gyocro|herb        which solver to run
//     --serve                                batch service mode: treat every
//                                            positional argument as a relation
//                                            file (.br rows or .bdd compact
//                                            bodies) and solve them all over a
//                                            SolverPool of --workers slots
//                                            with a shared cross-solve memo;
//                                            prints one line per request plus
//                                            a throughput/memo summary
//     --no-memo                              disable the pool's cross-solve
//                                            memo in --serve mode
//     --incremental                          delta-driven re-solve: arms the
//                                            delta-localization partition
//                                            (first 4 inputs) and diffs each
//                                            request against the most recent
//                                            solved relation over the same
//                                            variable spaces, so a point edit
//                                            re-searches one block (single-
//                                            solve mode has no prior base;
//                                            --serve slots keep per-slot
//                                            order memory).  Requires the
//                                            memo; BREL_INCREMENTAL=0|1
//                                            overrides
//     --memo-shards=N                        lock shards of the pool memo
//                                            (--serve; 0 = auto: 16 for an
//                                            unbounded memo, 1 when capped)
//     --steal-batch=N                        subproblems a parallel-engine
//                                            victim donates per steal request
//                                            as one serialized batch
//                                            (default 8; 1 = old behaviour)
//     --dump-table                           print the relation table
//     --quiet                                covers only

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "brel/lock_stats.hpp"
#include "brel/solver.hpp"
#include "brel/solver_pool.hpp"
#include "gyocro/gyocro.hpp"
#include "relation/relation_io.hpp"

namespace {

struct CliOptions {
  std::string cost = "size";
  std::size_t budget = 10;
  std::size_t fifo = static_cast<std::size_t>(-1);
  std::size_t max_depth = static_cast<std::size_t>(-1);
  std::size_t workers = 1;
  brel::ReorderMode reorder = brel::ReorderMode::Off;
  bool no_bound = false;
  bool exact = false;
  brel::ExplorationOrder order = brel::ExplorationOrder::BreadthFirst;
  bool symmetry = false;
  bool totalize = false;
  bool dump_table = false;
  bool quiet = false;
  bool serve = false;
  bool no_memo = false;
  bool incremental = false;
  std::size_t memo_shards = 0;  ///< 0 = GlobalMemo auto policy
  std::size_t steal_batch = 8;
  std::string solver = "brel";
  std::vector<std::string> files;  ///< positionals; empty = stdin
};

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: brel_cli [--cost=size|size2|cubes|lits|balance]\n"
               "                [--max-relations=N] [--budget=N] [--fifo=N]\n"
               "                [--max-depth=N] [--exact] [--no-bound]\n"
               "                [--order=bfs|dfs|best] [--workers=N]\n"
               "                [--reorder=off|on|auto]\n"
               "                [--symmetry] [--totalize]\n"
               "                [--solver=brel|quick|gyocro|herb]\n"
               "                [--serve] [--no-memo] [--incremental]\n"
               "                [--memo-shards=N]\n"
               "                [--steal-batch=N]\n"
               "                [--dump-table] [--quiet] [file.br|-]...\n"
               "  --serve solves every listed file over a SolverPool of\n"
               "  --workers slots sharing one cross-solve memo\n");
  std::exit(code);
}

brel::ReorderMode reorder_by_name(const std::string& name) {
  if (name == "off") {
    return brel::ReorderMode::Off;
  }
  if (name == "on") {
    return brel::ReorderMode::On;
  }
  if (name == "auto") {
    return brel::ReorderMode::Auto;
  }
  std::fprintf(stderr, "unknown reorder mode '%s'\n", name.c_str());
  usage(2);
}

brel::ExplorationOrder order_by_name(const std::string& name) {
  if (name == "bfs") {
    return brel::ExplorationOrder::BreadthFirst;
  }
  if (name == "dfs") {
    return brel::ExplorationOrder::DepthFirst;
  }
  if (name == "best") {
    return brel::ExplorationOrder::BestFirst;
  }
  std::fprintf(stderr, "unknown order '%s'\n", name.c_str());
  usage(2);
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (const char* v = value_of("--cost=")) {
      options.cost = v;
    } else if (const char* v = value_of("--budget=")) {
      options.budget = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--max-relations=")) {
      options.budget = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--fifo=")) {
      options.fifo = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--max-depth=")) {
      options.max_depth =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--workers=")) {
      options.workers =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--no-bound") {
      options.no_bound = true;
    } else if (arg == "--exact") {
      options.exact = true;
    } else if (const char* v = value_of("--order=")) {
      options.order = order_by_name(v);  // validated before any input I/O
    } else if (const char* v = value_of("--reorder=")) {
      options.reorder = reorder_by_name(v);
    } else if (arg == "--symmetry") {
      options.symmetry = true;
    } else if (arg == "--serve") {
      options.serve = true;
    } else if (arg == "--no-memo") {
      options.no_memo = true;
    } else if (arg == "--incremental") {
      options.incremental = true;
    } else if (const char* v = value_of("--memo-shards=")) {
      options.memo_shards =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--steal-batch=")) {
      options.steal_batch =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--totalize") {
      options.totalize = true;
    } else if (const char* v = value_of("--solver=")) {
      options.solver = v;
    } else if (arg == "--dump-table") {
      options.dump_table = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(2);
    } else {
      options.files.push_back(arg);
    }
  }
  return options;
}

brel::CostFunction cost_by_name(const std::string& name) {
  if (name == "size") {
    return brel::sum_of_bdd_sizes();
  }
  if (name == "size2") {
    return brel::sum_of_squared_bdd_sizes();
  }
  if (name == "cubes") {
    return brel::cube_count_cost();
  }
  if (name == "lits") {
    return brel::literal_count_cost();
  }
  if (name == "balance") {
    return brel::support_balance_cost();
  }
  std::fprintf(stderr, "unknown cost '%s'\n", name.c_str());
  usage(2);
}

void print_covers(brel::BddManager& mgr, const brel::BooleanRelation& r,
                  const brel::MultiFunction& f) {
  for (std::size_t i = 0; i < f.outputs.size(); ++i) {
    const brel::IsopResult sop = mgr.isop(f.outputs[i], f.outputs[i]);
    std::printf("y%zu:\n", i);
    if (sop.cover.empty()) {
      std::printf("  0\n");
      continue;
    }
    for (const brel::Cube& cube : sop.cover.cubes()) {
      // Print only the input positions.
      std::string text;
      for (std::size_t k = 0; k < r.num_inputs(); ++k) {
        const brel::Lit lit = cube.lit(r.inputs()[k]);
        text.push_back(lit == brel::Lit::Zero
                           ? '0'
                           : (lit == brel::Lit::One ? '1' : '-'));
      }
      std::printf("  %s\n", text.c_str());
    }
  }
}

/// Non-fatal slurp for batch (--serve) mode: reads a path or "-"
/// (stdin) fully into `out`; returns false when the file cannot be
/// opened, so one bad path skips that request instead of killing the
/// whole batch.
bool try_slurp(const std::string& file, std::string& out) {
  std::ostringstream buffer;
  if (file == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in(file);
    if (!in) {
      return false;
    }
    buffer << in.rdbuf();
  }
  out = buffer.str();
  return true;
}

/// Read one input (a path or "-" for stdin) fully into a string; exits
/// with status 2 when the file cannot be opened.  Single-solve mode
/// only — there is exactly one input, so there is nothing else to keep
/// serving.
std::string slurp(const std::string& file) {
  std::string text;
  if (!try_slurp(file, text)) {
    std::fprintf(stderr, "cannot open '%s'\n", file.c_str());
    std::exit(2);
  }
  return text;
}

/// One `# locks:` line from the process-global registry: blocked-acquire
/// wait per named lock.  Silent when lock stats were compiled out or no
/// named lock was ever taken (e.g. serial single-solve, memo-less pool).
void print_lock_stats() {
  if (!brel::lock_stats_compiled()) {
    return;
  }
  bool any = false;
  std::string line = "# locks:";
  char item[128];
  for (const brel::LockSnapshot& s :
       brel::LockStatsRegistry::instance().snapshot()) {
    if (s.acquires == 0) {
      continue;
    }
    any = true;
    std::snprintf(item, sizeof(item),
                  " %s wait=%.3fms acquires=%llu contended=%llu",
                  s.name.c_str(), static_cast<double>(s.wait_ns) / 1e6,
                  static_cast<unsigned long long>(s.acquires),
                  static_cast<unsigned long long>(s.contended));
    line += item;
  }
  if (any) {
    std::printf("%s\n", line.c_str());
  }
}

brel::SolverOptions solver_options_from_cli(const CliOptions& cli) {
  brel::SolverOptions options;
  options.cost = cost_by_name(cli.cost);
  options.max_relations = cli.budget;
  options.fifo_capacity = cli.fifo;
  options.max_depth = cli.max_depth;
  options.use_cost_bound = !cli.no_bound;
  options.num_workers = cli.workers;
  options.exact = cli.exact;
  options.use_symmetry = cli.symmetry;
  options.order = cli.order;
  options.reorder = cli.reorder;
  options.steal_batch = cli.steal_batch;
  return options;
}

/// --serve: solve every listed file over a SolverPool.  The per-request
/// engine is serial; --workers sizes the POOL (concurrent solves), and
/// identical or overlapping relations are served from the shared
/// cross-solve memo after the first solve.
int run_serve(const CliOptions& cli) {
  if (cli.files.empty()) {
    std::fprintf(stderr, "--serve requires at least one relation file\n");
    return 2;
  }
  if (cli.solver != "brel") {
    std::fprintf(stderr, "--serve only supports --solver=brel\n");
    return 2;
  }
  if (cli.dump_table) {
    std::fprintf(stderr, "--dump-table is not supported with --serve\n");
    return 2;
  }
  // stdin is a stream: the first "-" drains it, so a second "-" would
  // silently submit an empty request.  Reject the duplicate up front.
  std::size_t stdin_mentions = 0;
  for (const std::string& file : cli.files) {
    if (file == "-") {
      ++stdin_mentions;
    }
  }
  if (stdin_mentions > 1) {
    std::fprintf(stderr,
                 "--serve: '-' (stdin) may be listed at most once (it is "
                 "drained by the first mention)\n");
    return 2;
  }

  // Slurp what is readable; an unreadable file fails ITS request (stderr
  // line, nonzero exit at the end) without aborting the batch.
  std::vector<std::string> texts;
  std::vector<std::string> names;  ///< cli.files entry per slurped text
  texts.reserve(cli.files.size());
  names.reserve(cli.files.size());
  int failures = 0;
  for (const std::string& file : cli.files) {
    std::string text;
    if (!try_slurp(file, text)) {
      std::fprintf(stderr, "%s: error: cannot open file\n", file.c_str());
      ++failures;
      continue;
    }
    texts.push_back(std::move(text));
    names.push_back(file);
  }

  brel::PoolOptions pool_options;
  pool_options.workers = cli.workers;
  pool_options.solver = solver_options_from_cli(cli);
  pool_options.share_memo = !cli.no_memo;
  pool_options.memo_shards = cli.memo_shards;
  pool_options.totalize = cli.totalize;
  pool_options.incremental = cli.incremental;
  if (brel::resolve_incremental(cli.incremental)) {
    // Delta localization (partition.hpp): cofactor on the first inputs
    // so a point edit dirties one block and the clean blocks root-hit.
    // Fig. 6 splits alone cannot localize point edits — they refine
    // output constraints, never the input space.
    pool_options.solver.partition_inputs = 4;
  }

  const auto start = std::chrono::steady_clock::now();
  brel::SolverPool pool(pool_options);
  std::vector<std::future<brel::PoolResult>> futures;
  futures.reserve(texts.size());
  for (const std::string& text : texts) {
    futures.push_back(pool.submit(text));
  }

  std::size_t total_reorders = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      const brel::PoolResult result = futures[i].get();
      total_reorders += result.stats.reorders;
      // Independent check in a fresh manager: re-parse the request and
      // materialize the portable solution against it.
      brel::BddManager check_mgr{0};
      brel::BooleanRelation relation =
          brel::read_relation(check_mgr, texts[i]);
      // The check relation must match what the worker solved: a
      // totalizing pool solves the repaired relation.
      if (cli.totalize) {
        relation = relation.totalized();
      }
      const brel::MultiFunction f =
          brel::import_pool_solution(check_mgr, relation, result);
      const bool ok = relation.is_compatible(f);
      // --quiet means "covers only", exactly like single-solve mode.
      if (!cli.quiet) {
        std::printf(
            "%s: cost=%.0f explored=%zu memo_hits=%zu worker=%zu%s\n",
            names[i].c_str(), result.cost,
            result.stats.relations_explored, result.stats.memo_hits,
            result.worker_id, ok ? "" : " INCOMPATIBLE");
      }
      if (!ok) {
        ++failures;
      }
      print_covers(check_mgr, relation, f);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: error: %s\n", names[i].c_str(),
                   error.what());
      ++failures;
    }
  }
  pool.shutdown();
  if (!cli.quiet) {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::printf("# served %llu request(s) on %zu worker(s) in %.3fs",
                static_cast<unsigned long long>(pool.requests_served()),
                pool.worker_count(), seconds);
    if (pool.memo() != nullptr) {
      const unsigned long long hits = pool.memo()->hits();
      const unsigned long long probes = pool.memo()->probes();
      // The hit RATE is the number that tells an operator whether the
      // memo is earning its memory: raw hit/probe counts alone scale
      // with traffic and say nothing.
      std::printf(
          " | memo: %zu entries (%zu shards), %llu/%llu probe hits (%.1f%%)",
          pool.memo()->size(), pool.memo()->shard_count(), hits, probes,
          probes == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(probes));
    }
    if (total_reorders > 0) {
      std::printf(" | reorders: %zu", total_reorders);
    }
    std::printf("\n");
    print_lock_stats();
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_args(argc, argv);
  if (cli.serve) {
    return run_serve(cli);
  }
  if (cli.files.size() > 1) {
    std::fprintf(stderr,
                 "multiple input files require --serve (single-solve mode "
                 "takes one file or stdin)\n");
    return 2;
  }
  const std::string text = slurp(cli.files.empty() ? "-" : cli.files.front());

  brel::BddManager mgr{0};
  brel::BooleanRelation relation = [&] {
    try {
      return brel::read_relation(mgr, text);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "%s\n", error.what());
      std::exit(2);
    }
  }();
  if (cli.totalize) {
    relation = relation.totalized();
  }
  if (!relation.is_well_defined()) {
    std::fprintf(stderr,
                 "relation is not well defined (some input vertex has an "
                 "empty image); rerun with --totalize to repair it\n");
    return 1;
  }
  if (cli.dump_table && !cli.quiet) {
    std::printf("%s\n", relation.to_table().c_str());
  }

  if (cli.solver == "quick") {
    const brel::MultiFunction f = brel::quick_solve(relation);
    print_covers(mgr, relation, f);
    return relation.is_compatible(f) ? 0 : 1;
  }
  if (cli.solver == "gyocro" || cli.solver == "herb") {
    brel::GyocroOptions options;
    options.multi_literal_expand = cli.solver == "gyocro";
    const brel::GyocroResult result =
        brel::GyocroSolver(options).solve(relation);
    if (!cli.quiet) {
      std::printf("# %s: %zu cubes, %zu literals, %zu iterations\n",
                  cli.solver.c_str(), result.cube_count,
                  result.literal_count, result.stats.iterations);
    }
    print_covers(mgr, relation, result.function);
    return relation.is_compatible(result.function) ? 0 : 1;
  }
  if (cli.solver != "brel") {
    std::fprintf(stderr, "unknown solver '%s'\n", cli.solver.c_str());
    return 2;
  }

  brel::SolverOptions options = solver_options_from_cli(cli);
  // Single-solve parity for --incremental: one process-lifetime registry
  // and memo.  The first (only) solve finds no base, so the flag is
  // inert here — it exists so scripted pipelines can pass one option set
  // to both modes; the delta machinery pays off under --serve, where
  // slots persist across requests.
  brel::DeltaRegistry registry;
  if (brel::resolve_incremental(cli.incremental)) {
    if (options.global_memo == nullptr) {
      options.global_memo = std::make_shared<brel::GlobalMemo>();
    }
    options.delta_registry = &registry;
    // Same delta-localization pre-split as --serve slots, so both modes
    // produce identical results for identical option sets.
    options.partition_inputs = 4;
  }
  const brel::SolveResult result = brel::BrelSolver(options).solve(relation);
  if (!cli.quiet) {
    std::printf("# cost(%s) = %.0f\n", cli.cost.c_str(), result.cost);
    std::printf(
        "# explored=%zu splits=%zu conflicts=%zu pruned(cost)=%zu "
        "pruned(sym)=%zu time=%.3fs%s\n",
        result.stats.relations_explored, result.stats.splits,
        result.stats.conflicts, result.stats.pruned_by_cost,
        result.stats.pruned_by_symmetry, result.stats.runtime_seconds,
        result.stats.budget_exhausted ? " (budget exhausted)" : "");
    if (result.stats.workers > 1) {
      std::printf("# workers=%zu steals=%zu batches=%zu\n",
                  result.stats.workers, result.stats.steals,
                  result.stats.steal_batches);
      print_lock_stats();
    }
    if (result.stats.delta_active) {
      const std::size_t classified =
          result.stats.delta_reused + result.stats.delta_researched;
      std::printf("# delta: reused=%zu re-searched=%zu (%.1f%% reuse)\n",
                  result.stats.delta_reused, result.stats.delta_researched,
                  classified == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(result.stats.delta_reused) /
                            static_cast<double>(classified));
    }
    if (result.stats.reorders > 0) {
      // Serial runs sift the manager above; parallel runs sift their
      // private worker managers, so the node detail lives there and only
      // the run and swap counts (summed over workers) are reported.
      const brel::BddStats& kernel = mgr.stats();
      if (kernel.reorders > 0) {
        std::printf("# reorder: runs=%zu swaps=%llu nodes %zu->%zu\n",
                    result.stats.reorders,
                    static_cast<unsigned long long>(kernel.reorder_swaps),
                    kernel.reorder_nodes_before, kernel.reorder_nodes_after);
      } else {
        std::printf("# reorder: runs=%zu swaps=%zu (in worker managers)\n",
                    result.stats.reorders, result.stats.reorder_swaps);
      }
    }
  }
  print_covers(mgr, relation, result.function);
  return relation.is_compatible(result.function) ? 0 : 1;
}
