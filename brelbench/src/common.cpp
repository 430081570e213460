#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "benchgen/relation_suite.hpp"
#include "relation/relation_io.hpp"

namespace brelbench {

namespace {

/// splitmix64 finalizer: the one source of per-request randomness.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Stream tags: every kind of seeded draw gets its own sub-stream.
constexpr std::uint64_t kTagCold = 1;
constexpr std::uint64_t kTagWorkingSet = 2;
constexpr std::uint64_t kTagDraw = 3;
constexpr std::uint64_t kTagEdit = 4;
constexpr std::uint64_t kTagLarge = 5;

/// Value `i` of sub-stream `tag` of the workload seed.
std::uint64_t draw(std::uint64_t seed, std::uint64_t tag, std::uint64_t i) {
  return mix(mix(mix(seed) ^ tag) + i);
}

/// Suite-shaped relation `i` of sub-stream `tag`.  Shapes are stratified:
/// each block of 17 consecutive relations uses every (inputs, outputs)
/// pair of the 17-instance suite once, in a seeded order, so the mix of
/// sizes — and with it cost and latency — varies little between seeds.
brel::RelationBenchmark suite_shaped(std::uint64_t seed, std::uint64_t tag,
                                     std::size_t i) {
  const std::vector<brel::RelationBenchmark>& suite = brel::relation_suite();
  const std::size_t n = suite.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::uint64_t s = draw(seed, tag ^ 0x5eedULL, i / n);
  for (std::size_t k = n - 1; k > 0; --k) {
    s = mix(s);
    std::swap(order[k], order[s % (k + 1)]);
  }
  const brel::RelationBenchmark& shape = suite[order[i % n]];
  return {shape.name, shape.num_inputs, shape.num_outputs,
          static_cast<std::uint32_t>(draw(seed, tag, i))};
}

/// `n` picks from 0..size-1 in seeded shuffled passes: every item once
/// per pass, so any prefix of whole passes weighs the items equally.
std::vector<std::uint32_t> shuffled_passes(std::uint64_t seed,
                                           std::uint64_t tag, std::size_t size,
                                           std::size_t n) {
  std::vector<std::uint32_t> picks;
  picks.reserve(n);
  std::vector<std::uint32_t> order(size);
  for (std::size_t pass = 0; picks.size() < n; ++pass) {
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::uint64_t s = draw(seed, tag, pass);
    for (std::size_t k = size - 1; k > 0; --k) {
      s = mix(s);
      std::swap(order[k], order[s % (k + 1)]);
    }
    for (std::size_t k = 0; k < size && picks.size() < n; ++k) {
      picks.push_back(order[k]);
    }
  }
  return picks;
}

std::string relation_text(brel::BddManager& mgr,
                          const brel::RelationBenchmark& bench) {
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const brel::BooleanRelation r =
      brel::make_benchmark_relation(mgr, bench, inputs, outputs);
  return brel::write_relation_bdd(r);
}

/// `count` texts from `make(mgr, i)`, built on a few threads, each with
/// its own manager recycled between texts.
template <typename Make>
std::vector<std::string> generate(std::size_t count, const Make& make) {
  std::vector<std::string> texts(count);
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      try {
        brel::BddManager mgr{0};
        for (std::size_t i = next++; i < count; i = next++) {
          texts[i] = make(mgr, i);
          if (!mgr.reset_variables()) {
            mgr.garbage_collect();
          }
        }
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        error = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
  return texts;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kColdUnique, Workload::kWarmRepeat,
                           Workload::kWarmEdit, Workload::kParallelLarge}) {
    if (name == workload_name(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kColdUnique:
      return "cold_unique";
    case Workload::kWarmRepeat:
      return "warm_repeat";
    case Workload::kWarmEdit:
      return "warm_edit";
    case Workload::kParallelLarge:
      return "parallel_large";
  }
  return "?";
}

Plan make_plan(const Args& args) {
  Plan plan;
  const Workload w = args.workload;
  if (args.smoke) {
    plan.working_set = 34;
    plan.quality_prefix = w == Workload::kParallelLarge ? 2
                          : w == Workload::kWarmRepeat  ? 68
                                                        : 34;
    plan.stream_cap = plan.quality_prefix;
    plan.setup_reps = 2;
    plan.replay_requests = w == Workload::kParallelLarge ? 1 : 17;
    plan.live_seconds = 0.3;
    plan.serial_compare = 1;
    return plan;
  }
  const double seconds = std::max(args.seconds, 1.0);
  plan.working_set = 510;  // 30 of each suite shape
  plan.setup_reps = w == Workload::kParallelLarge ? 5 : 9;
  plan.live_seconds = 3.0;
  plan.serial_compare = 3;
  switch (w) {
    case Workload::kColdUnique:
    case Workload::kWarmEdit:
      // 60 of each suite shape; ~600 requests/s of headroom after it.
      plan.quality_prefix = 1020;
      plan.stream_cap = static_cast<std::size_t>(600.0 * seconds) + 1020;
      plan.replay_requests = 170;
      break;
    case Workload::kWarmRepeat:
      // Two passes over the working set.
      plan.quality_prefix = 2 * plan.working_set;
      plan.stream_cap = static_cast<std::size_t>(20000.0 * seconds) + 1020;
      plan.replay_requests = 510;
      break;
    case Workload::kParallelLarge:
      plan.quality_prefix = 100;
      plan.stream_cap = static_cast<std::size_t>(30.0 * seconds) + 100;
      plan.replay_requests = 12;
      break;
  }
  return plan;
}

brel::SolverOptions engine_options(Workload w) {
  brel::SolverOptions options;
  options.cost = brel::sum_of_bdd_sizes();
  options.max_relations = static_cast<std::size_t>(-1);
  options.use_cost_bound = false;
  options.max_depth = 6;
  options.reorder = brel::ReorderMode::Off;
  if (w == Workload::kWarmEdit) {
    options.partition_inputs = 4;  // what `brel_server --incremental` sets
  }
  return options;
}

brel::ServerOptions server_options(Workload w, const std::string& load,
                                   const std::string& save) {
  brel::ServerOptions options;
  options.pool.workers = kPoolWorkers;
  options.pool.solver = engine_options(w);
  options.pool.share_memo = true;
  options.pool.incremental = w == Workload::kWarmEdit;
  options.pool.memo_load_path = load;
  options.pool.memo_save_path = save;
  return options;
}

std::vector<std::string> make_working_set(std::uint64_t seed,
                                          std::size_t count) {
  return generate(count, [seed](brel::BddManager& mgr, std::size_t i) {
    return relation_text(mgr, suite_shaped(seed, kTagWorkingSet, i));
  });
}

Stream make_stream(Workload w, std::uint64_t seed, const Plan& plan) {
  Stream stream;
  const std::size_t n = plan.stream_cap;
  switch (w) {
    case Workload::kColdUnique:
      stream.texts = generate(n, [seed](brel::BddManager& mgr, std::size_t i) {
        return relation_text(mgr, suite_shaped(seed, kTagCold, i));
      });
      break;
    case Workload::kWarmRepeat:
      stream.texts = make_working_set(seed, plan.working_set);
      stream.picks =
          shuffled_passes(seed, kTagDraw, stream.texts.size(), n);
      break;
    case Workload::kWarmEdit: {
      const std::vector<std::string> bases =
          make_working_set(seed, plan.working_set);
      const std::vector<std::uint32_t> base_of =
          shuffled_passes(seed, kTagDraw, bases.size(), n);
      stream.texts = generate(
          n, [seed, &bases, &base_of](brel::BddManager& mgr, std::size_t i) {
            const std::uint64_t d = draw(seed, kTagEdit, i);
            const brel::BooleanRelation base =
                brel::read_relation(mgr, bases[base_of[i]]);
            const std::size_t flips = 1 + d % 4;
            return brel::write_relation_bdd(brel::flip_minterms(
                base, flips, static_cast<std::uint32_t>(mix(d))));
          });
      break;
    }
    case Workload::kParallelLarge:
      // 10 inputs x 8 outputs: the first size-ladder rung past the suite,
      // where one solve is long enough for intra-solve parallelism to pay
      // and short enough (~0.15 s at 4 workers) that a run sees a hundred
      // relations.  At 12 inputs a run sees ~30 and its figures swing by
      // a third between seeds.
      stream.texts = generate(n, [seed](brel::BddManager& mgr, std::size_t i) {
        return relation_text(
            mgr, brel::RelationBenchmark{
                     "large", 10, 8,
                     static_cast<std::uint32_t>(draw(seed, kTagLarge, i))});
      });
      break;
  }
  return stream;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    char value[64];
    const double v = std::isfinite(metrics[k].value) ? metrics[k].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (k != 0) {
      line += ", ";
    }
    line += "\"" + metrics[k].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[k].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double median_of(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<Metric> end_to_end_metrics(std::size_t answered, double wall_s,
                                       double cpu_s,
                                       const std::vector<double>& latency_ms,
                                       double cost_total, double rss_mb,
                                       double setup_s) {
  const double n = static_cast<double>(std::max<std::size_t>(answered, 1));
  return {{"throughput_rps", wall_s > 0.0 ? static_cast<double>(answered) / wall_s
                                          : 0.0,
           "req/s"},
          {"latency_p50_ms", percentile(latency_ms, 0.50), "ms"},
          {"latency_p99_ms", percentile(latency_ms, 0.99), "ms"},
          {"cpu_ms_per_req", 1000.0 * cpu_s / n, "ms"},
          {"cost_total", cost_total, "nodes"},
          {"peak_rss_mb", rss_mb, "MB"},
          {"setup_s", setup_s, "s"}};
}

}  // namespace brelbench
