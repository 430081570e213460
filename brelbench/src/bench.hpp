#pragma once
/// \file bench.hpp
/// Shared pieces of the BREL service benchmark: workload plans, the
/// engine/server configuration every workload runs under, the seeded
/// request streams, the independent answer checker, the result line,
/// and the span recorder of the traced run.  NOTES.md describes the
/// workloads and metrics; everything here drives the library through
/// public calls and reads only public counters.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "brel/server.hpp"
#include "brel/solver.hpp"

namespace brelbench {

enum class Workload { kColdUnique, kWarmRepeat, kWarmEdit, kParallelLarge };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] inline bool is_warm(Workload w) {
  return w == Workload::kWarmRepeat || w == Workload::kWarmEdit;
}

/// Command line of the benchmark binary (see main.cpp for the grammar).
struct Args {
  std::string mode;  ///< "run" or "prepare"
  Workload workload = Workload::kColdUnique;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  bool smoke = false;    ///< tiny request counts, for the self-test
  std::string snapshot;  ///< warm_* snapshot path (written by prepare)
  std::string trace_out;  ///< where the traced run writes its spans
};

/// Sizes that shape one run; `--smoke` shrinks every one of them.
struct Plan {
  /// warm_* working set: relations restored from the snapshot.
  std::size_t working_set = 0;
  /// Requests (in stream order) whose costs and explored counts form the
  /// run's fingerprint.  The timed phase lasts until `--seconds` passed
  /// AND this prefix is answered, so `cost_total` is a pure function of
  /// the seed.
  std::size_t quality_prefix = 0;
  /// Pre-generated requests; the timed phase never sends more.
  std::size_t stream_cap = 0;
  std::size_t setup_reps = 0;
  /// Requests the traced run replays in-process (a fixed count, so the
  /// per-request counts of the trace repeat exactly for a seed).
  std::size_t replay_requests = 0;
  /// Length of the traced run's live-server phase (service workloads).
  double live_seconds = 0.0;
  /// parallel_large trace: relations also solved serially.
  std::size_t serial_compare = 0;
};

[[nodiscard]] Plan make_plan(const Args& args);

/// Closed-loop callers and pool slots of the service workloads, and the
/// intra-solve workers of parallel_large.  Together with the client
/// threads they stay within a 4-core budget.
inline constexpr std::size_t kConnections = 2;
inline constexpr std::size_t kPoolWorkers = 2;
inline constexpr std::size_t kParallelWorkers = 4;

/// The schedule-independent engine configuration: Σ BDD sizes, no cost
/// bound, depth cap 6, unlimited relations, reordering off.  Under it
/// every answer is a pure function of its relation.
[[nodiscard]] brel::SolverOptions engine_options(Workload w);

/// The server each service workload talks to.  `load`/`save` are the
/// tier-1 snapshot paths (empty = none).
[[nodiscard]] brel::ServerOptions server_options(Workload w,
                                                 const std::string& load,
                                                 const std::string& save);

// ------------------------------------------------------------- inputs

/// A seeded request stream.  Request i sends text(i); key(i) names the
/// distinct relation it carries (equal keys, equal texts).
struct Stream {
  std::vector<std::string> texts;
  std::vector<std::uint32_t> picks;  ///< empty: request i is texts[i]

  [[nodiscard]] std::size_t size() const {
    return picks.empty() ? texts.size() : picks.size();
  }
  [[nodiscard]] const std::string& text(std::size_t i) const {
    return picks.empty() ? texts[i] : texts[picks[i]];
  }
  [[nodiscard]] std::size_t key(std::size_t i) const {
    return picks.empty() ? i : picks[i];
  }
};

/// The warm_* working set: `count` suite-shaped relations (.bdd text).
[[nodiscard]] std::vector<std::string> make_working_set(std::uint64_t seed,
                                                        std::size_t count);

/// The workload's request stream, `plan.stream_cap` requests long.
[[nodiscard]] Stream make_stream(Workload w, std::uint64_t seed,
                                 const Plan& plan);

// ------------------------------------------------------------ checking

/// The fields of an `OK`/`TIMEOUT` reply frame that the benchmark reads.
struct Reply {
  bool ok = false;  ///< status line is `OK`
  double cost = 0.0;
  std::uint64_t explored = 0;
  std::uint64_t queue_us = 0;
  std::string body;  ///< write_portable_solution text
};

/// Parse a SOLVE reply frame; nullopt when it is not a solution reply.
[[nodiscard]] std::optional<Reply> parse_reply(const std::string& frame);

/// Check one answer without the solver's own code paths: import it into
/// a fresh manager, require ∧ₒ(yₒ ≡ fₒ) ∧ ¬χ = 0 with every fₒ over the
/// inputs only, and require the reported cost to equal Σ BDD sizes of the
/// imported functions.  Returns an empty string when the answer passes,
/// otherwise the reason.
[[nodiscard]] std::string check_answer(const std::string& relation_text,
                                       const std::string& body,
                                       double reported_cost);

/// One answer waiting for the independent check.
struct PendingCheck {
  const std::string* relation_text = nullptr;
  std::string body;
  double cost = 0.0;
};

/// Run check_answer over `pending` on a few threads; returns the number
/// of failures (each reason goes to stderr).
[[nodiscard]] std::size_t check_all(const std::vector<PendingCheck>& pending);

// ------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: one JSON object, the last line of stdout.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics);

/// Process user+sys CPU seconds so far, and the calling thread's.
[[nodiscard]] double process_cpu_seconds();
[[nodiscard]] double thread_cpu_seconds();
/// ru_maxrss of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank percentile of an ascending sample (0 when empty).
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);
[[nodiscard]] double median_of(std::vector<double> values);

[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The end-to-end metrics of a timed phase, in BENCHMARK.json order.
/// `latency_ms` must be ascending.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(
    std::size_t answered, double wall_s, double cpu_s,
    const std::vector<double>& latency_ms, double cost_total, double rss_mb,
    double setup_s);

// ------------------------------------------------------------- service

/// Construct + start() a Server and wait for its first PING reply, `reps`
/// times; every server but the last is drained and destroyed.  Returns
/// the live server and the median set-up time.
struct StartedServer {
  std::unique_ptr<brel::Server> server;
  double setup_s = 0.0;
};
[[nodiscard]] StartedServer start_server(const brel::ServerOptions& options,
                                         std::size_t reps);

/// What one closed-loop load phase against a live server observed.
struct LoadResult {
  std::size_t attempted = 0;  ///< SOLVE frames sent
  std::size_t failed = 0;     ///< transport errors, non-OK replies, checks
  std::size_t answered = 0;   ///< OK replies
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;  ///< ascending
  /// Peak RSS once the quality prefix was answered: memory for a fixed
  /// amount of work, which a faster server is not charged more for.
  double prefix_rss_mb = 0.0;
  double cost_total = 0.0;         ///< over the quality prefix
  std::uint64_t explored_total = 0;  ///< over the quality prefix
  std::uint64_t explored_nonzero = 0;  ///< replies with explored != 0
  std::uint64_t queue_us_total = 0;
  std::vector<double> ping_rtt_us;  ///< ascending; empty unless pinged
};

/// Drive `server` closed loop from kConnections callers over `stream`
/// until `seconds` passed and the first `quality_prefix` requests are
/// answered (or the stream ends), then check every distinct answer.
/// `ping` adds a caller that PINGs every 10 ms and records round trips.
[[nodiscard]] LoadResult drive_server(std::uint16_t port, const Stream& stream,
                                      std::size_t quality_prefix,
                                      double seconds, bool ping);

// ----------------------------------------------------------- workloads

int run_service(const Args& args, const Plan& plan);
int prepare_snapshot(const Args& args, const Plan& plan);
int run_parallel(const Args& args, const Plan& plan);
int run_traced(const Args& args, const Plan& plan);

}  // namespace brelbench
