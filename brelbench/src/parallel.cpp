#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench.hpp"
#include "brel/memo_backend.hpp"
#include "relation/relation_io.hpp"

namespace brelbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Parse the whole request list into a fresh solving manager, recycling
/// its variable block after each relation as a pool slot does.
std::unique_ptr<brel::BddManager> parse_request_list(const Stream& stream) {
  auto mgr = std::make_unique<brel::BddManager>(0);
  for (const std::string& text : stream.texts) {
    (void)brel::read_relation(*mgr, text);
    mgr->reset_variables();
  }
  return mgr;
}

/// One request: parse, solve, encode — what a caller waits for.
struct Solved {
  std::string body;
  double cost = 0.0;
  std::uint64_t explored = 0;
};

Solved solve_one(brel::BddManager& mgr, const brel::BrelSolver& solver,
                 const std::string& text) {
  const brel::BooleanRelation r = brel::read_relation(mgr, text);
  const brel::SolveResult solved = solver.solve(r);
  std::ostringstream body;
  brel::write_portable_solution(
      body, brel::make_portable_solution(brel::make_memo_space(r),
                                         solved.function, solved.cost));
  return {body.str(), solved.cost, solved.stats.relations_explored};
}

}  // namespace

int run_parallel(const Args& args, const Plan& plan) {
  const Stream stream = make_stream(args.workload, args.seed, plan);
  std::unique_ptr<brel::BddManager> mgr;
  std::vector<double> setup;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(plan.setup_reps, 1);
       ++rep) {
    const Clock::time_point start = Clock::now();
    mgr = parse_request_list(stream);
    setup.push_back(seconds_since(start));
  }

  brel::SolverOptions options = engine_options(args.workload);
  options.num_workers = kParallelWorkers;
  const brel::BrelSolver solver(options);
  // The first solves of a process run several times slower (worker
  // threads and their managers' memory are new); keep them out of the
  // timed phase, where they would be the tail.
  for (std::size_t i = 0; i < std::min<std::size_t>(2, stream.size()); ++i) {
    (void)solve_one(*mgr, solver, stream.texts[i]);
    mgr->reset_variables();
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<PendingCheck> pending;
  double prefix_rss_mb = 0.0;
  double cost_total = 0.0;
  std::uint64_t explored_total = 0;
  const Clock::time_point start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i >= plan.quality_prefix && seconds_since(start) >= args.seconds) {
      break;
    }
    ++attempted;
    const Clock::time_point sent = Clock::now();
    try {
      Solved solved = solve_one(*mgr, solver, stream.texts[i]);
      latency_ms.push_back(1000.0 * seconds_since(sent));
      if (i < plan.quality_prefix) {
        cost_total += solved.cost;
        explored_total += solved.explored;
      }
      if (i + 1 == plan.quality_prefix) {
        prefix_rss_mb = peak_rss_mb();
      }
      pending.push_back({&stream.texts[i], std::move(solved.body), solved.cost});
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "request %zu: %s\n", i, e.what());
    }
    if (!mgr->reset_variables()) {
      mgr->garbage_collect_if_needed();
    }
  }
  const double wall_s = seconds_since(start);
  const double cpu_s = process_cpu_seconds() - cpu_start;
  failed += check_all(pending);

  const std::size_t answered = latency_ms.size();
  std::sort(latency_ms.begin(), latency_ms.end());
  std::printf("# fingerprint workload=%s seed=%llu prefix=%zu cost_total=%.17g "
              "explored_total=%llu\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed),
              std::min(plan.quality_prefix, stream.size()), cost_total,
              static_cast<unsigned long long>(explored_total));
  std::printf("# answered=%zu wall_s=%.3f workers=%zu rss_at_exit_mb=%.1f\n",
              answered, wall_s, kParallelWorkers, peak_rss_mb());
  print_result(failed == 0 && answered > 0, attempted, failed,
               end_to_end_metrics(
                   answered, wall_s, cpu_s, latency_ms, cost_total,
                   prefix_rss_mb > 0.0 ? prefix_rss_mb : peak_rss_mb(),
                   median_of(setup)));
  return 0;
}

}  // namespace brelbench
