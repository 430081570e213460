#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "brel/memo_backend.hpp"
#include "relation/relation_io.hpp"

namespace brelbench {

namespace {

/// Value of ` key=` in a status line, or nullopt.
std::optional<std::string> field(const std::string& line,
                                 const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) {
    return std::nullopt;
  }
  const std::size_t begin = at + key.size() + 2;
  const std::size_t end = line.find(' ', begin);
  return line.substr(begin, end == std::string::npos ? end : end - begin);
}

}  // namespace

std::optional<Reply> parse_reply(const std::string& frame) {
  const std::size_t nl = frame.find('\n');
  if (nl == std::string::npos) {
    return std::nullopt;
  }
  const std::string status = frame.substr(0, nl);
  const auto cost = field(status, "cost");
  const auto explored = field(status, "explored");
  const auto queue = field(status, "queue_us");
  if (!cost || !explored || !queue) {
    return std::nullopt;
  }
  Reply reply;
  reply.ok = status.rfind("OK ", 0) == 0;
  reply.cost = std::strtod(cost->c_str(), nullptr);
  reply.explored = std::strtoull(explored->c_str(), nullptr, 10);
  reply.queue_us = std::strtoull(queue->c_str(), nullptr, 10);
  reply.body = frame.substr(nl + 1);
  return reply;
}

std::string check_answer(const std::string& relation_text,
                         const std::string& body, double reported_cost) {
  try {
    // A small computed table: the check is a handful of ANDs.
    brel::BddManager mgr{0, 14};
    const brel::BooleanRelation r = brel::read_relation(mgr, relation_text);
    std::istringstream in(body);
    const brel::PortableSolution solution = brel::read_portable_solution(in);
    if (solution.outputs.size() != r.num_outputs()) {
      return "answer has " + std::to_string(solution.outputs.size()) +
             " outputs, relation has " + std::to_string(r.num_outputs());
    }
    const brel::MultiFunction f = brel::import_portable_solution(
        mgr, brel::make_memo_space(r), solution);
    brel::Bdd graph = mgr.one();
    for (std::size_t o = 0; o < r.num_outputs(); ++o) {
      for (const std::uint32_t v : f.outputs[o].support()) {
        if (std::find(r.inputs().begin(), r.inputs().end(), v) ==
            r.inputs().end()) {
          return "output " + std::to_string(o) + " depends on a non-input";
        }
      }
      graph = graph & mgr.var(r.outputs()[o]).iff(f.outputs[o]);
    }
    if (!(graph & !r.characteristic()).is_zero()) {
      return "answer is not compatible with the relation";
    }
    const double size = brel::sum_of_bdd_sizes()(f);
    if (size != solution.cost || size != reported_cost) {
      return "cost " + std::to_string(reported_cost) + " (body " +
             std::to_string(solution.cost) + ") but the answer's BDDs have " +
             std::to_string(size) + " nodes";
    }
    return {};
  } catch (const std::exception& e) {
    return std::string("unreadable answer: ") + e.what();
  }
}

std::size_t check_all(const std::vector<PendingCheck>& pending) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  std::mutex report_mutex;
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < pending.size(); i = next++) {
        const std::string why = check_answer(
            *pending[i].relation_text, pending[i].body, pending[i].cost);
        if (!why.empty()) {
          failures.fetch_add(1);
          const std::scoped_lock lock(report_mutex);
          std::fprintf(stderr, "check failed: %s\n", why.c_str());
        }
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return failures.load();
}

}  // namespace brelbench
