#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace brelbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxReplyBytes = std::size_t{1} << 28;

/// One closed-loop caller's private record (merged after the phase).
struct Caller {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;
  std::uint64_t explored_nonzero = 0;
  std::uint64_t queue_us = 0;
  Clock::time_point last_answer{};
  /// (request index, cost, explored) of answers inside the quality prefix.
  std::vector<std::tuple<std::size_t, double, std::uint64_t>> prefix;
  /// Distinct (body, cost) answers per relation key: every reply is
  /// compared byte for byte against these, and each is checked once.
  std::map<std::size_t, std::vector<std::pair<std::string, double>>> bodies;
};

/// Read `key value` from a STATS block (0 when absent).
std::uint64_t stats_value(const std::string& stats, const std::string& key) {
  std::istringstream in(stats);
  std::string name;
  std::string value;
  while (in >> name >> value) {
    if (name == key) {
      return std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

StartedServer start_server(const brel::ServerOptions& options,
                           std::size_t reps) {
  StartedServer out;
  std::vector<double> samples;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(reps, 1); ++rep) {
    const Clock::time_point start = Clock::now();
    auto server = std::make_unique<brel::Server>(options);
    server->start();
    const int fd = brel::wire::connect_tcp("127.0.0.1", server->port());
    std::string reply;
    const bool ok = fd >= 0 && brel::wire::write_frame(fd, "PING") &&
                    brel::wire::read_frame(fd, reply, kMaxReplyBytes) ==
                        brel::wire::ReadStatus::Ok &&
                    reply == "OK ping";
    samples.push_back(seconds_since(start));
    if (fd >= 0) {
      ::close(fd);
    }
    if (!ok) {
      throw std::runtime_error("the server did not answer PING");
    }
    if (rep + 1 < reps) {
      server->begin_drain();
      server->wait();
    } else {
      out.server = std::move(server);
    }
  }
  out.setup_s = median_of(samples);
  return out;
}

LoadResult drive_server(std::uint16_t port, const Stream& stream,
                        std::size_t quality_prefix, double seconds,
                        bool ping) {
  std::vector<Caller> callers(kConnections);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> prefix_answered{0};
  std::atomic<bool> done{false};
  std::vector<double> ping_rtt_us;
  const std::size_t prefix_size = std::min(quality_prefix, stream.size());
  double prefix_rss_mb = 0.0;

  const Clock::time_point start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Caller& me = callers[c];
      const int fd = brel::wire::connect_tcp("127.0.0.1", port);
      if (fd < 0) {
        ++me.attempted;
        ++me.failed;
        std::fprintf(stderr, "caller %zu: connect failed\n", c);
        return;
      }
      while (true) {
        // Indices are taken in order and a caller stops only once time
        // is up past the prefix, so the answered set is a stream prefix.
        const std::size_t i = next.fetch_add(1);
        if (i >= stream.size() ||
            (i >= quality_prefix && seconds_since(start) >= seconds)) {
          break;
        }
        ++me.attempted;
        const Clock::time_point sent = Clock::now();
        std::string frame;
        if (!brel::wire::write_frame(fd, "SOLVE\n" + stream.text(i)) ||
            brel::wire::read_frame(fd, frame, kMaxReplyBytes) !=
                brel::wire::ReadStatus::Ok) {
          ++me.failed;
          std::fprintf(stderr, "caller %zu: transport error\n", c);
          break;
        }
        me.last_answer = Clock::now();
        std::optional<Reply> reply = parse_reply(frame);
        if (!reply || !reply->ok) {
          ++me.failed;
          std::fprintf(stderr, "request %zu: reply %s\n", i,
                       frame.substr(0, frame.find('\n')).c_str());
          continue;
        }
        me.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(me.last_answer - sent)
                .count());
        me.queue_us += reply->queue_us;
        me.explored_nonzero += reply->explored != 0 ? 1 : 0;
        if (i < quality_prefix) {
          me.prefix.emplace_back(i, reply->cost, reply->explored);
          if (prefix_answered.fetch_add(1) + 1 == prefix_size) {
            prefix_rss_mb = peak_rss_mb();  // one writer: the last one
          }
        }
        auto& seen = me.bodies[stream.key(i)];
        const bool known =
            std::any_of(seen.begin(), seen.end(), [&](const auto& a) {
              return a.first == reply->body && a.second == reply->cost;
            });
        if (!known) {
          seen.emplace_back(std::move(reply->body), reply->cost);
        }
      }
      ::close(fd);
    });
  }
  std::thread pinger;
  if (ping) {
    pinger = std::thread([&] {
      const int fd = brel::wire::connect_tcp("127.0.0.1", port);
      while (fd >= 0 && !done.load()) {
        const Clock::time_point sent = Clock::now();
        std::string reply;
        if (!brel::wire::write_frame(fd, "PING") ||
            brel::wire::read_frame(fd, reply, kMaxReplyBytes) !=
                brel::wire::ReadStatus::Ok) {
          break;
        }
        ping_rtt_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - sent)
                .count());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (fd >= 0) {
        ::close(fd);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double cpu_end = process_cpu_seconds();
  done.store(true);
  if (pinger.joinable()) {
    pinger.join();
  }

  LoadResult out;
  out.cpu_s = cpu_end - cpu_start;
  Clock::time_point end = start;
  std::vector<std::tuple<std::size_t, double, std::uint64_t>> prefix;
  std::map<std::size_t, std::vector<std::pair<std::string, double>>> bodies;
  for (Caller& c : callers) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    out.answered += c.latency_ms.size();
    out.latency_ms.insert(out.latency_ms.end(), c.latency_ms.begin(),
                          c.latency_ms.end());
    out.explored_nonzero += c.explored_nonzero;
    out.queue_us_total += c.queue_us;
    end = std::max(end, c.last_answer);
    prefix.insert(prefix.end(), c.prefix.begin(), c.prefix.end());
    for (auto& [key, list] : c.bodies) {
      auto& merged = bodies[key];
      for (auto& a : list) {
        if (std::find(merged.begin(), merged.end(), a) == merged.end()) {
          merged.push_back(std::move(a));
        }
      }
    }
  }
  out.wall_s = std::chrono::duration<double>(end - start).count();
  std::sort(out.latency_ms.begin(), out.latency_ms.end());
  std::sort(ping_rtt_us.begin(), ping_rtt_us.end());
  out.ping_rtt_us = std::move(ping_rtt_us);
  out.prefix_rss_mb = prefix_rss_mb > 0.0 ? prefix_rss_mb : peak_rss_mb();

  // A prefix request without an answer already counts as failed above.
  if (prefix.size() != prefix_size) {
    std::fprintf(stderr, "only %zu of the first %zu requests were answered\n",
                 prefix.size(), prefix_size);
  }
  for (const auto& [index, cost, explored] : prefix) {
    out.cost_total += cost;
    out.explored_total += explored;
  }

  std::vector<PendingCheck> pending;
  for (auto& [key, list] : bodies) {
    if (list.size() > 1) {
      std::fprintf(stderr, "relation %zu was answered %zu different ways\n",
                   key, list.size());
      out.failed += list.size() - 1;
    }
    for (auto& [body, cost] : list) {
      pending.push_back({&stream.texts[key], std::move(body), cost});
    }
  }
  out.failed += check_all(pending);
  return out;
}

int run_service(const Args& args, const Plan& plan) {
  const Workload w = args.workload;
  if (is_warm(w) && args.snapshot.empty()) {
    std::fprintf(stderr, "%s needs --snapshot\n", workload_name(w));
    return 2;
  }
  const Stream stream = make_stream(w, args.seed, plan);
  StartedServer started =
      start_server(server_options(w, args.snapshot, ""), plan.setup_reps);
  brel::Server& server = *started.server;

  bool correct = true;
  const std::uint64_t loaded = server.metrics().snapshot_entries_loaded;
  if (is_warm(w) && loaded == 0) {
    std::fprintf(stderr, "the snapshot restored no entries\n");
    correct = false;
  }

  LoadResult load = drive_server(server.port(), stream, plan.quality_prefix,
                                 args.seconds, false);
  const std::uint64_t memo_entries =
      stats_value(server.stats_text(), "memo_entries");
  server.begin_drain();
  server.wait();
  const brel::ServerMetrics m = server.metrics();
  if (m.accepted != m.answered || m.protocol_errors != 0 ||
      m.request_errors != 0) {
    std::fprintf(stderr, "server: accepted=%llu answered=%llu errors=%llu/%llu\n",
                 static_cast<unsigned long long>(m.accepted),
                 static_cast<unsigned long long>(m.answered),
                 static_cast<unsigned long long>(m.protocol_errors),
                 static_cast<unsigned long long>(m.request_errors));
    correct = false;
  }
  if (w == Workload::kWarmRepeat && load.explored_nonzero != 0) {
    std::fprintf(stderr, "%llu warm replies explored nodes (want 0)\n",
                 static_cast<unsigned long long>(load.explored_nonzero));
    load.failed += load.explored_nonzero;
  }

  std::printf("# fingerprint workload=%s seed=%llu prefix=%zu cost_total=%.17g "
              "explored_total=%llu\n",
              workload_name(w), static_cast<unsigned long long>(args.seed),
              std::min(plan.quality_prefix, stream.size()), load.cost_total,
              static_cast<unsigned long long>(load.explored_total));
  std::printf("# answered=%zu wall_s=%.3f memo_entries=%llu "
              "snapshot_entries_loaded=%llu rss_at_exit_mb=%.1f\n",
              load.answered, load.wall_s,
              static_cast<unsigned long long>(memo_entries),
              static_cast<unsigned long long>(loaded), peak_rss_mb());
  print_result(correct && load.failed == 0 && load.answered > 0,
               load.attempted, load.failed,
               end_to_end_metrics(load.answered, load.wall_s, load.cpu_s,
                                  load.latency_ms, load.cost_total,
                                  load.prefix_rss_mb, started.setup_s));
  return 0;
}

int prepare_snapshot(const Args& args, const Plan& plan) {
  const Workload w = args.workload;
  if (!is_warm(w) || args.snapshot.empty()) {
    std::fprintf(stderr, "prepare needs a warm_* workload and --snapshot\n");
    return 2;
  }
  Stream working_set;
  working_set.texts = make_working_set(args.seed, plan.working_set);
  StartedServer started = start_server(server_options(w, "", args.snapshot), 1);
  const LoadResult load = drive_server(started.server->port(), working_set,
                                       working_set.size(), 0.0, false);
  started.server->begin_drain();
  started.server->wait();
  const std::uint64_t saved = started.server->metrics().snapshot_entries_saved;
  std::printf("# prepared %s snapshot: %zu relations, %llu entries\n",
              workload_name(w), working_set.size(),
              static_cast<unsigned long long>(saved));
  return load.failed == 0 && saved > 0 ? 0 : 1;
}

}  // namespace brelbench
