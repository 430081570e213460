// The traced run: per-layer attribution of a workload's time, measured
// from outside.  It replays the workload's seeded requests in-process,
// single caller, making the calls a pool slot makes in the order it
// makes them (read_relation, SearchEngine::run or BrelSolver::solve,
// encode, reset_variables), with a span around each call.  Probe spans
// (root memo lookup, quick_solve, ISF minimization, PING) time a layer
// in isolation and are kept out of the additivity sum.  A second,
// untraced replay of the same requests gives the tracing overhead; a
// short live-server phase gives the wire and queue figures.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "brel/lock_stats.hpp"
#include "brel/memo_backend.hpp"
#include "brel/memo_snapshot.hpp"
#include "brel/quick_solver.hpp"
#include "brel/search.hpp"
#include "brel/solver_pool.hpp"
#include "brel/subproblem_cache.hpp"
#include "relation/relation_io.hpp"

namespace brelbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = a request's root span
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool probe = false;
};

/// In-memory span store, written out once when the run ends.
class Tracer {
 public:
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint64_t request, bool probe = false) {
    Span span;
    span.name = name;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.request = request;
    span.probe = probe;
    span.start_ns = now_ns();
    spans_.push_back(span);
    return span.id;
  }
  void close(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of the spans called `name`, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) {
        ns += s.end_ns - s.start_ns;
      }
    }
    return 1e-9 * static_cast<double>(ns);
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"probe\": " << (s.probe ? "true" : "false") << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; does
/// nothing without a tracer (the untraced replay).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint32_t parent,
        std::uint64_t request, bool probe = false)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, parent, request, probe)
                              : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->close(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Counts and times every cost evaluation (thread-safe: the parallel
/// engine evaluates from every worker).
struct CostCounter {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
};

/// Σ BDD sizes, wrapped in a counter.  Its cost id differs from the
/// plain objective's, which is why the traced replay warms a private
/// memo instead of restoring the snapshot.
brel::CostFunction counted_cost(const std::shared_ptr<CostCounter>& counter) {
  return brel::CostFunction(
      "size.traced",
      [counter, size = brel::sum_of_bdd_sizes()](const brel::MultiFunction& f) {
        const Clock::time_point start = Clock::now();
        const double cost = size(f);
        counter->ns.fetch_add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 start)
                .count()));
        counter->calls.fetch_add(1);
        return cost;
      });
}

/// Kernel counters that probes must not be charged to the replay.
struct BddCounts {
  double lookups = 0;
  double hits = 0;
  double nodes = 0;
  double gcs = 0;

  static BddCounts of(const brel::BddManager& mgr) {
    const brel::BddStats& s = mgr.stats();
    return {static_cast<double>(s.cache_lookups),
            static_cast<double>(s.cache_hits),
            static_cast<double>(s.nodes_created),
            static_cast<double>(s.gc_runs)};
  }
  BddCounts operator-(const BddCounts& o) const {
    return {lookups - o.lookups, hits - o.hits, nodes - o.nodes, gcs - o.gcs};
  }
  BddCounts& operator+=(const BddCounts& o) {
    lookups += o.lookups;
    hits += o.hits;
    nodes += o.nodes;
    gcs += o.gcs;
    return *this;
  }
};

/// Memo counters, likewise.
struct MemoCounts {
  double probes = 0;
  double hits = 0;
  double publishes = 0;
  double key_build_ns = 0;

  static MemoCounts of(const brel::GlobalMemo* memo) {
    const brel::MemoKeyBuildStats keys = brel::memo_key_build_stats();
    if (memo == nullptr) {
      return {0, 0, 0, static_cast<double>(keys.ns)};
    }
    return {static_cast<double>(memo->probes()),
            static_cast<double>(memo->hits()),
            static_cast<double>(memo->publishes()),
            static_cast<double>(keys.ns)};
  }
  MemoCounts operator-(const MemoCounts& o) const {
    return {probes - o.probes, hits - o.hits, publishes - o.publishes,
            key_build_ns - o.key_build_ns};
  }
  MemoCounts& operator+=(const MemoCounts& o) {
    probes += o.probes;
    hits += o.hits;
    publishes += o.publishes;
    key_build_ns += o.key_build_ns;
    return *this;
  }
};

/// What one replay measured.
struct Replay {
  std::size_t requests = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;  ///< summed over steps
  double cpu_s = 0.0;   ///< replay thread (service) or process (parallel)
  double probe_cpu_s = 0.0;
  std::vector<double> solve_s;  ///< per request: the engine call alone
  brel::SolverStats totals;     ///< summed over requests
  double imbalance_sum = 0.0;   ///< Σ per-solve max/mean worker explored
  double inject_wait_ns = 0.0;
  std::uint64_t explored_nonzero = 0;
  BddCounts bdd;
  MemoCounts memo;
  std::size_t memo_entries = 0;
  std::uint64_t memo_collisions = 0;
  std::uint64_t cost_calls = 0;
  std::uint64_t cost_ns = 0;
};

/// Fill `options.global_memo` with the working set's entries, through a
/// pool of the workload's configuration (what the snapshot holds).
void warm_memo(const brel::SolverOptions& options, Workload w,
               const std::vector<std::string>& working_set) {
  brel::PoolOptions pool_options;
  pool_options.workers = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  pool_options.solver = options;
  pool_options.incremental = w == Workload::kWarmEdit;
  brel::SolverPool pool(pool_options);
  std::vector<std::future<brel::PoolResult>> futures;
  for (const std::string& text : working_set) {
    futures.push_back(pool.submit(text));
  }
  for (auto& f : futures) {
    (void)f.get();
  }
  pool.shutdown();
}

void sum_stats(brel::SolverStats& into, const brel::SolverStats& s) {
  into.relations_explored += s.relations_explored;
  into.splits += s.splits;
  into.quick_solutions += s.quick_solutions;
  into.misf_minimizations += s.misf_minimizations;
  into.conflicts += s.conflicts;
  into.steals += s.steals;
  into.steal_batches += s.steal_batches;
  into.delta_reused += s.delta_reused;
  into.delta_researched += s.delta_researched;
}

/// One replaying pool slot — its manager, slot cache, delta registry and
/// private memo.  step(i) serves request i with the calls a pool worker
/// makes; traced when constructed with a tracer.  The untraced and the
/// traced replayer step alternately, so neither runs on a warmer
/// process than the other.
class Replayer {
 public:
  Replayer(Workload w, const Stream& stream,
           const std::vector<std::string>& working_set, Tracer* tracer)
      : parallel_(w == Workload::kParallelLarge),
        stream_(stream),
        tracer_(tracer),
        options_(engine_options(w)),
        seen_body_(stream.texts.size()) {
    if (tracer_ != nullptr) {
      options_.cost = counted_cost(cost_counter_);
    }
    if (!parallel_) {
      memo_ = std::make_shared<brel::GlobalMemo>();
      options_.global_memo = memo_;
      slot_cache_ = std::make_shared<brel::SubproblemCache>();
    }
    if (is_warm(w)) {
      warm_memo(options_, w, working_set);
    }
    if (w == Workload::kWarmEdit) {
      registry_.emplace();
    }
    options_.num_workers = parallel_ ? kParallelWorkers : 1;
    cost_counter_->calls = 0;
    cost_counter_->ns = 0;
    bdd_start_ = BddCounts::of(mgr_);
    memo_start_ = MemoCounts::of(memo_.get());
  }

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Serve request `i`; its distinct answers go to `pending`.
  void step(std::size_t i, std::vector<PendingCheck>& pending) {
    const Clock::time_point start = Clock::now();
    const double cpu_start = cpu_now();
    {
      const Scope request(tracer_, "request", 0, i);
      serve(i, request.id(), pending);
      const Scope span(tracer_, "solver_pool.recycle", request.id(), i);
      if (slot_cache_ != nullptr) {
        slot_cache_->clear();
      }
      if (!mgr_.reset_variables()) {
        mgr_.garbage_collect_if_needed();
      }
    }
    out_.cpu_s += cpu_now() - cpu_start;
    out_.wall_s += seconds_since(start);
    ++out_.requests;
  }

  [[nodiscard]] Replay finish() {
    out_.bdd = BddCounts::of(mgr_) - bdd_start_ - bdd_probes_;
    out_.memo = MemoCounts::of(memo_.get()) - memo_start_ - memo_probes_;
    if (memo_ != nullptr) {
      out_.memo_entries = memo_->size();
      out_.memo_collisions = memo_->collisions();
    }
    out_.cost_calls = cost_counter_->calls.load();
    out_.cost_ns = cost_counter_->ns.load();
    return out_;
  }

 private:
  double cpu_now() const {
    return parallel_ ? process_cpu_seconds() : thread_cpu_seconds();
  }

  /// Everything of a request up to the slot recycle.
  void serve(std::size_t i, std::uint32_t parent,
             std::vector<PendingCheck>& pending) {
    try {
      std::optional<brel::BooleanRelation> r;
      {
        const Scope span(tracer_, "relation_io.read", parent, i);
        const std::vector<std::uint32_t>* order_hint = nullptr;
        if (registry_.has_value()) {
          if (const auto sig = brel::peek_relation_signature(stream_.text(i))) {
            order_hint =
                registry_->find_order(sig->input_ranks, sig->output_ranks);
          }
        }
        r.emplace(brel::read_relation(mgr_, stream_.text(i), order_hint));
      }
      if (tracer_ != nullptr && memo_ != nullptr) {
        const double cpu0 = thread_cpu_seconds();
        const BddCounts bdd0 = BddCounts::of(mgr_);
        const MemoCounts memo0 = MemoCounts::of(memo_.get());
        {
          const Scope span(tracer_, "global_memo.root_lookup", parent, i, true);
          const auto space = std::make_shared<const brel::MemoSpace>(
              brel::make_memo_space(*r));
          (void)memo_->lookup(brel::make_memo_handle(space, r->characteristic()));
        }
        bdd_probes_ += BddCounts::of(mgr_) - bdd0;
        memo_probes_ += MemoCounts::of(memo_.get()) - memo0;
        out_.probe_cpu_s += thread_cpu_seconds() - cpu0;
      }

      brel::SolverOptions solve_options = options_;
      if (slot_cache_ != nullptr) {
        slot_cache_->rebind_or_clear(brel::make_cache_fingerprint(
            *r, solve_options, solve_options.cost));
        solve_options.subproblem_cache = slot_cache_;
      }
      if (registry_.has_value()) {
        solve_options.delta_registry = &*registry_;
      }
      std::optional<brel::SolveResult> solved;
      {
        const Scope span(tracer_, parallel_ ? "brel.solve" : "search.run",
                         parent, i);
        const Clock::time_point t0 = Clock::now();
        const double inject0 = static_cast<double>(
            brel::LockStatsRegistry::instance().wait_ns(
                brel::lock_names::kInject));
        solved.emplace(parallel_
                           ? brel::BrelSolver(solve_options).solve(*r)
                           : brel::SearchEngine(*r, solve_options).run());
        out_.solve_s.push_back(seconds_since(t0));
        out_.inject_wait_ns +=
            static_cast<double>(brel::LockStatsRegistry::instance().wait_ns(
                brel::lock_names::kInject)) -
            inject0;
      }
      out_.imbalance_sum += imbalance(solved->worker_stats);
      sum_stats(out_.totals, solved->stats);
      out_.explored_nonzero += solved->stats.relations_explored != 0 ? 1 : 0;

      std::string body;
      {
        const Scope span(tracer_, "transfer.encode", parent, i);
        const brel::MemoSpace space = brel::make_memo_space(*r);
        if (registry_.has_value()) {
          registry_->remember_order(space.input_ranks, space.output_ranks,
                                    brel::relation_block_order(*r));
        }
        std::ostringstream os;
        brel::write_portable_solution(
            os, brel::make_portable_solution(space, solved->function,
                                             solved->cost));
        body = os.str();
      }
      const std::size_t key = stream_.key(i);
      if (seen_body_[key].empty()) {
        seen_body_[key] = body;
        pending.push_back({&stream_.texts[key], body, solved->cost});
      } else if (seen_body_[key] != body) {
        std::fprintf(stderr, "replay: relation %zu answered two ways\n", key);
        ++out_.failed;
      }

      if (tracer_ != nullptr) {
        const double cpu0 = thread_cpu_seconds();
        const BddCounts bdd0 = BddCounts::of(mgr_);
        {
          const Scope span(tracer_, "quick_solver.solve", parent, i, true);
          (void)brel::quick_solve(*r, options_.minimizer);
        }
        {
          const Scope span(tracer_, "isf_minimizer.minimize", parent, i, true);
          for (std::size_t o = 0; o < r->num_outputs(); ++o) {
            (void)options_.minimizer.minimize(r->project_output(o));
          }
        }
        bdd_probes_ += BddCounts::of(mgr_) - bdd0;
        out_.probe_cpu_s += thread_cpu_seconds() - cpu0;
      }
    } catch (const std::exception& e) {
      ++out_.failed;
      std::fprintf(stderr, "replay request %zu: %s\n", i, e.what());
    }
  }

  /// max ÷ mean of the workers' explored counts (1 for a serial run).
  static double imbalance(const std::vector<brel::SolverStats>& workers) {
    double max_explored = 0.0;
    double sum_explored = 0.0;
    for (const brel::SolverStats& s : workers) {
      max_explored =
          std::max(max_explored, static_cast<double>(s.relations_explored));
      sum_explored += static_cast<double>(s.relations_explored);
    }
    const double mean = workers.empty()
                            ? 0.0
                            : sum_explored / static_cast<double>(workers.size());
    return mean > 0.0 ? max_explored / mean : 1.0;
  }

  const bool parallel_;
  const Stream& stream_;
  Tracer* const tracer_;
  std::shared_ptr<CostCounter> cost_counter_ = std::make_shared<CostCounter>();
  brel::SolverOptions options_;
  std::shared_ptr<brel::GlobalMemo> memo_;
  brel::BddManager mgr_{0};
  std::shared_ptr<brel::SubproblemCache> slot_cache_;
  std::optional<brel::DeltaRegistry> registry_;
  std::vector<std::string> seen_body_;
  Replay out_;
  BddCounts bdd_start_;
  MemoCounts memo_start_;
  BddCounts bdd_probes_;
  MemoCounts memo_probes_;
};

}  // namespace

int run_traced(const Args& args, const Plan& plan) {
  const Workload w = args.workload;
  const bool parallel = w == Workload::kParallelLarge;
  if (is_warm(w) && args.snapshot.empty()) {
    std::fprintf(stderr, "%s needs --snapshot\n", workload_name(w));
    return 2;
  }
  const Stream stream = make_stream(w, args.seed, plan);
  const std::vector<std::string> working_set =
      is_warm(w) ? make_working_set(args.seed, plan.working_set)
                 : std::vector<std::string>{};
  const std::size_t count = std::min(plan.replay_requests, stream.size());

  std::vector<PendingCheck> pending;
  Tracer tracer;
  Replayer plain_replayer(w, stream, working_set, nullptr);
  Replayer traced_replayer(w, stream, working_set, &tracer);
  for (std::size_t i = 0; i < count; ++i) {
    plain_replayer.step(i, pending);
    traced_replayer.step(i, pending);
  }
  const Replay plain = plain_replayer.finish();
  const Replay traced = traced_replayer.finish();
  std::size_t failed = plain.failed + traced.failed + check_all(pending);
  std::size_t attempted = plain.requests + traced.requests;
  bool correct = true;
  if (w == Workload::kWarmRepeat &&
      (plain.explored_nonzero != 0 || traced.explored_nonzero != 0)) {
    std::fprintf(stderr, "warm replay explored nodes (want 0)\n");
    correct = false;
  }

  // parallel_large: the last replayed relations (past the process's slow
  // first solves) solved serially too, for the speedup.
  double speedup = 1.0;
  if (parallel) {
    double serial_s = 0.0;
    double parallel_s = 0.0;
    brel::SolverOptions serial = engine_options(w);
    serial.num_workers = 1;
    brel::BddManager mgr{0};
    const std::size_t solved = plain.solve_s.size();
    for (std::size_t i = solved - std::min(plan.serial_compare, solved);
         i < solved; ++i) {
      const brel::BooleanRelation r = brel::read_relation(mgr, stream.texts[i]);
      const Clock::time_point t0 = Clock::now();
      (void)brel::BrelSolver(serial).solve(r);
      serial_s += seconds_since(t0);
      parallel_s += plain.solve_s[i];
    }
    speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  }

  // Service workloads: a short live phase against a real server.
  double load_s = 0.0;
  std::uint64_t entries_loaded = 0;
  double queue_wait_us = 0.0;
  double ping_rtt_us = 0.0;
  brel::ServerMetrics server_metrics;
  if (!parallel) {
    if (is_warm(w)) {
      brel::GlobalMemo fresh;
      const Clock::time_point t0 = Clock::now();
      (void)brel::load_memo_snapshot(fresh, args.snapshot);
      load_s = seconds_since(t0);
    }
    StartedServer started = start_server(server_options(w, args.snapshot, ""), 1);
    const LoadResult live = drive_server(started.server->port(), stream, 0,
                                         plan.live_seconds, true);
    started.server->begin_drain();
    started.server->wait();
    server_metrics = started.server->metrics();
    entries_loaded = server_metrics.snapshot_entries_loaded;
    attempted += live.attempted;
    failed += live.failed;
    queue_wait_us = live.answered == 0
                        ? 0.0
                        : static_cast<double>(live.queue_us_total) /
                              static_cast<double>(live.answered);
    ping_rtt_us = median_of(live.ping_rtt_us);
    if (is_warm(w) && entries_loaded == 0) {
      std::fprintf(stderr, "the snapshot restored no entries\n");
      correct = false;
    }
  }

  const double n = static_cast<double>(std::max<std::size_t>(traced.requests, 1));
  double additive_s = 0.0;
  double probe_s = 0.0;
  for (const Span& s : tracer.spans()) {
    const double d = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    if (s.probe) {
      probe_s += d;
    } else if (s.parent != 0) {
      additive_s += d;
    }
  }
  const double replay_wall = traced.wall_s - probe_s;
  const double plain_cpu = plain.cpu_s / static_cast<double>(
                                             std::max<std::size_t>(plain.requests, 1));
  const double traced_cpu = (traced.cpu_s - traced.probe_cpu_s) / n;
  const double memo_probes = traced.memo.probes;
  const auto per_req = [n](double v) { return v / n; };
  const double solves = n;

  if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  }
  std::printf("# trace workload=%s seed=%llu replayed=%zu spans=%zu "
              "explored_total=%zu\n",
              workload_name(w), static_cast<unsigned long long>(args.seed),
              traced.requests, tracer.spans().size(),
              traced.totals.relations_explored);
  print_result(
      correct && failed == 0, attempted, failed,
      {
          {"bdd.cache_hit_rate",
           traced.bdd.lookups > 0 ? traced.bdd.hits / traced.bdd.lookups : 0.0,
           "ratio"},
          {"bdd.nodes_created_per_req", per_req(traced.bdd.nodes), "count"},
          {"bdd.gc_runs_per_req", per_req(traced.bdd.gcs), "count"},
          {"relation_io.read_us", 1e6 * per_req(tracer.total_s("relation_io.read")),
           "us"},
          {"search.run_ms",
           1e3 * per_req(tracer.total_s(parallel ? "brel.solve" : "search.run")),
           "ms"},
          {"search.explored_per_req",
           per_req(static_cast<double>(traced.totals.relations_explored)), "count"},
          {"search.splits_per_req", per_req(static_cast<double>(traced.totals.splits)),
           "count"},
          {"search.misf_minimizations_per_req",
           per_req(static_cast<double>(traced.totals.misf_minimizations)), "count"},
          {"search.quick_solutions_per_req",
           per_req(static_cast<double>(traced.totals.quick_solutions)), "count"},
          {"search.conflicts_per_req",
           per_req(static_cast<double>(traced.totals.conflicts)), "count"},
          {"isf_minimizer.minimize_us",
           1e6 * per_req(tracer.total_s("isf_minimizer.minimize")), "us"},
          {"quick_solver.solve_us", 1e6 * per_req(tracer.total_s("quick_solver.solve")),
           "us"},
          {"cost.eval_us",
           traced.cost_calls == 0
               ? 0.0
               : 1e-3 * static_cast<double>(traced.cost_ns) /
                     static_cast<double>(traced.cost_calls),
           "us"},
          {"cost.calls_per_req", per_req(static_cast<double>(traced.cost_calls)),
           "count"},
          {"global_memo.probes_per_req", per_req(memo_probes), "count"},
          {"global_memo.hit_rate",
           memo_probes > 0 ? traced.memo.hits / memo_probes : 0.0, "ratio"},
          {"global_memo.publishes_per_req", per_req(traced.memo.publishes), "count"},
          {"global_memo.entries", static_cast<double>(traced.memo_entries), "count"},
          {"global_memo.collisions", static_cast<double>(traced.memo_collisions),
           "count"},
          {"global_memo.key_build_ms", 1e-6 * per_req(traced.memo.key_build_ns),
           "ms"},
          {"global_memo.root_lookup_us",
           1e6 * per_req(tracer.total_s("global_memo.root_lookup")), "us"},
          {"memo_snapshot.load_s", load_s, "s"},
          {"memo_snapshot.entries_loaded", static_cast<double>(entries_loaded),
           "count"},
          {"transfer.encode_us", 1e6 * per_req(tracer.total_s("transfer.encode")),
           "us"},
          {"solver_pool.queue_wait_us", queue_wait_us, "us"},
          {"solver_pool.recycle_us",
           1e6 * per_req(tracer.total_s("solver_pool.recycle")), "us"},
          {"delta_context.reused_per_req",
           per_req(static_cast<double>(traced.totals.delta_reused)), "count"},
          {"delta_context.researched_per_req",
           per_req(static_cast<double>(traced.totals.delta_researched)), "count"},
          {"parallel_engine.steals_per_solve",
           static_cast<double>(traced.totals.steals) / solves, "count"},
          {"parallel_engine.steal_batches_per_solve",
           static_cast<double>(traced.totals.steal_batches) / solves, "count"},
          {"parallel_engine.lock_wait_inject_ms",
           1e-6 * traced.inject_wait_ns / solves, "ms"},
          {"parallel_engine.worker_imbalance", traced.imbalance_sum / solves,
           "ratio"},
          {"parallel_engine.speedup_vs_serial", speedup, "ratio"},
          {"server.residency_p50_us",
           static_cast<double>(server_metrics.latency_p50_us), "us"},
          {"server.ping_rtt_us", ping_rtt_us, "us"},
          {"server.rejected_busy", static_cast<double>(server_metrics.rejected_busy),
           "count"},
          {"server.protocol_errors",
           static_cast<double>(server_metrics.protocol_errors), "count"},
          {"trace.unattributed_frac",
           replay_wall > 0.0 ? 1.0 - additive_s / replay_wall : 0.0, "ratio"},
          {"trace.overhead_frac", plain_cpu > 0.0 ? traced_cpu / plain_cpu - 1.0 : 0.0,
           "ratio"},
          {"fail_frac",
           static_cast<double>(failed) /
               static_cast<double>(std::max<std::size_t>(attempted, 1)),
           "ratio"},
      });
  return 0;
}

}  // namespace brelbench
