#include "brel/memo_exchange.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "brel/memo_snapshot.hpp"
#include "brel/server.hpp"  // wire::{connect_tcp, write_frame}

namespace brel {

namespace {

/// 64-bit FNV-1a over a string (ring-point hashing).
std::uint64_t fnv_string(const std::string& s) {
  std::uint64_t state = 14695981039346656037ull;
  for (const char c : s) {
    state ^= static_cast<unsigned char>(c);
    state *= 1099511628211ull;
  }
  return state;
}

/// Reply-frame ceiling on the PULL client side (a single entry; far
/// beyond any legitimate one, just bounding a lying peer).
constexpr std::size_t kMaxReplyBytes = 256u << 20;

struct Member {
  std::string name;  ///< as configured ("host:port")
  std::string host;
  std::uint16_t port = 0;
};

Member parse_member(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    throw std::invalid_argument("MemoExchange: member '" + spec +
                                "' is not host:port");
  }
  const std::string port_text = spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || port == 0 ||
      port > 65535) {
    throw std::invalid_argument("MemoExchange: bad port in member '" +
                                spec + "'");
  }
  Member m;
  m.name = spec;
  m.host = spec.substr(0, colon);
  m.port = static_cast<std::uint16_t>(port);
  return m;
}

/// Receive exactly `len` bytes before `deadline`; false on timeout,
/// error, or peer close.
bool recv_exact_deadline(int fd, char* dst, std::size_t len,
                         std::chrono::steady_clock::time_point deadline) {
  std::size_t got = 0;
  while (got < len) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return false;
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              now)
            .count();
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(std::max<long long>(
                                       1, static_cast<long long>(left))));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) {
      return false;  // deadline expired while idle
    }
    const ssize_t n = ::recv(fd, dst + got, len - got, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read one length-prefixed frame before `deadline`; false on any
/// failure (the pull is then simply a miss).
bool read_frame_deadline(int fd, std::string& payload,
                         std::chrono::steady_clock::time_point deadline) {
  char header[4];
  if (!recv_exact_deadline(fd, header, sizeof header, deadline)) {
    return false;
  }
  const std::uint32_t len =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[0]))
       << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[1]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[2]))
       << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(header[3]));
  if (len > kMaxReplyBytes) {
    return false;
  }
  payload.resize(len);
  return len == 0 ||
         recv_exact_deadline(fd, payload.data(), len, deadline);
}

}  // namespace

struct MemoExchange::Impl {
  GlobalMemo& local;
  PeerExchangeOptions options;
  std::vector<Member> members;  ///< [0] = self
  /// Sorted virtual-node points: (point hash, member index).
  std::vector<std::pair<std::uint64_t, std::size_t>> ring;

  std::atomic<std::uint64_t> pulls{0};
  std::atomic<std::uint64_t> pull_hits{0};
  std::atomic<std::uint64_t> pull_failures{0};
  std::atomic<std::uint64_t> pushes{0};
  std::atomic<std::uint64_t> push_failures{0};
  std::atomic<std::uint64_t> push_dropped{0};

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<GlobalMemoKey> push_queue;
  std::thread push_thread;
  std::atomic<bool> stopping{false};
  bool started = false;  ///< under queue_mutex

  Impl(GlobalMemo& local_in, PeerExchangeOptions options_in)
      : local(local_in), options(std::move(options_in)) {
    if (options.self.empty()) {
      throw std::invalid_argument("MemoExchange: empty self identity");
    }
    members.push_back(parse_member(options.self));
    for (const std::string& peer : options.peers) {
      members.push_back(parse_member(peer));
    }
    const std::size_t replicas = std::max<std::size_t>(1, options.replicas);
    ring.reserve(members.size() * replicas);
    for (std::size_t m = 0; m < members.size(); ++m) {
      for (std::size_t r = 0; r < replicas; ++r) {
        ring.emplace_back(
            fnv_string(members[m].name + '#' + std::to_string(r)), m);
      }
    }
    std::sort(ring.begin(), ring.end());
  }

  [[nodiscard]] std::size_t owner_of_hash(std::uint64_t hash) const {
    if (members.size() == 1) {
      return 0;
    }
    auto it = std::lower_bound(
        ring.begin(), ring.end(), hash,
        [](const std::pair<std::uint64_t, std::size_t>& point,
           std::uint64_t h) { return point.first < h; });
    if (it == ring.end()) {
      it = ring.begin();  // wrap
    }
    return it->second;
  }

  [[nodiscard]] std::chrono::steady_clock::time_point pull_deadline()
      const {
    return std::chrono::steady_clock::now() +
           std::chrono::milliseconds(std::max(1, options.pull_timeout_ms));
  }

  /// One request/reply round trip to `member`; empty optional with
  /// `*wire_ok = false` on any transport/parse failure.
  std::optional<std::string> round_trip(const Member& member,
                                        const std::string& request,
                                        bool* wire_ok) {
    *wire_ok = false;
    const int fd = wire::connect_tcp(member.host, member.port);
    if (fd < 0) {
      return std::nullopt;
    }
    std::string reply;
    const bool ok = wire::write_frame(fd, request) &&
                    read_frame_deadline(fd, reply, pull_deadline());
    ::close(fd);
    if (!ok) {
      return std::nullopt;
    }
    *wire_ok = true;
    return reply;
  }

  /// The PULL round trip: nullopt is a miss (failed wire counts in
  /// pull_failures; a clean MISS does not).
  std::optional<MemoExportEntry> pull(const Member& member,
                                      const GlobalMemoKey& key) {
    const std::optional<MemoFingerprint> fp = local.fingerprint();
    if (!fp.has_value()) {
      return std::nullopt;  // unbound memo: nothing is comparable yet
    }
    std::ostringstream request;
    request << "MEMO_PULL\n";
    write_memo_fingerprint(request, *fp);
    write_memo_key(request, key);
    bool wire_ok = false;
    const std::optional<std::string> reply =
        round_trip(member, request.str(), &wire_ok);
    if (!reply.has_value()) {
      pull_failures.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    if (reply->rfind("MISS", 0) == 0) {
      return std::nullopt;
    }
    const std::size_t nl = reply->find('\n');
    if (reply->rfind("OK", 0) != 0 || nl == std::string::npos) {
      pull_failures.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    try {
      std::istringstream body(reply->substr(nl + 1));
      MemoExportEntry entry = read_memo_entry(body);
      if (entry.key != key) {
        // A confused peer answering for a different key must not
        // install under ours.
        pull_failures.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      return entry;
    } catch (const std::invalid_argument&) {
      pull_failures.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
  }

  /// Deliver one record to its owner; true when the peer acknowledged.
  bool push(const Member& member, const MemoExportEntry& record) {
    const std::optional<MemoFingerprint> fp = local.fingerprint();
    if (!fp.has_value()) {
      return false;
    }
    std::ostringstream request;
    request << "MEMO_PUSH\n";
    write_memo_fingerprint(request, *fp);
    write_memo_entry(request, record);
    bool wire_ok = false;
    const std::optional<std::string> reply =
        round_trip(member, request.str(), &wire_ok);
    return reply.has_value() && reply->rfind("OK", 0) == 0;
  }

  void push_loop() {
    while (true) {
      GlobalMemoKey key;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [this] {
          return stopping.load(std::memory_order_acquire) ||
                 !push_queue.empty();
        });
        if (stopping.load(std::memory_order_acquire)) {
          // Drop the backlog rather than racing a drain against dead
          // peers — gossip is an optimization, never a shutdown blocker.
          push_dropped.fetch_add(push_queue.size(),
                                 std::memory_order_relaxed);
          push_queue.clear();
          return;
        }
        key = std::move(push_queue.front());
        push_queue.pop_front();
      }
      const std::size_t owner = owner_of_hash(memo_key_hash(key));
      if (owner == 0) {
        continue;  // raced a ring the enqueue already checked; harmless
      }
      // Export NOW, not at enqueue: the entry may have been improved or
      // evicted since.
      const std::optional<MemoExportEntry> record = local.export_entry(key);
      if (!record.has_value()) {
        continue;
      }
      if (push(members[owner], *record)) {
        pushes.fetch_add(1, std::memory_order_relaxed);
      } else {
        push_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
};

MemoExchange::MemoExchange(GlobalMemo& local, PeerExchangeOptions options)
    : impl_(std::make_unique<Impl>(local, std::move(options))) {}

MemoExchange::~MemoExchange() { stop(); }

void MemoExchange::start() {
  std::unique_lock<std::mutex> lock(impl_->queue_mutex);
  if (impl_->started) {
    return;
  }
  impl_->started = true;
  lock.unlock();
  impl_->push_thread = std::thread([this] { impl_->push_loop(); });
}

void MemoExchange::stop() {
  impl_->stopping.store(true, std::memory_order_release);
  {
    const std::scoped_lock lock(impl_->queue_mutex);
    impl_->queue_cv.notify_all();
  }
  if (impl_->push_thread.joinable()) {
    impl_->push_thread.join();
  }
}

std::size_t MemoExchange::owner_of(const GlobalMemoKey& key) const {
  return impl_->owner_of_hash(memo_key_hash(key));
}

void MemoExchange::enqueue_push(const GlobalMemoKey& key) {
  if (impl_->members.size() == 1 ||
      impl_->stopping.load(std::memory_order_acquire)) {
    return;
  }
  if (impl_->owner_of_hash(memo_key_hash(key)) == 0) {
    return;  // self-owned: peers pull it from us when they need it
  }
  {
    const std::scoped_lock lock(impl_->queue_mutex);
    if (!impl_->started ||
        impl_->push_queue.size() >= impl_->options.push_queue_limit) {
      impl_->push_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    impl_->push_queue.push_back(key);
  }
  impl_->queue_cv.notify_one();
}

PeerExchangeStats MemoExchange::stats() const {
  PeerExchangeStats s;
  s.pulls = impl_->pulls.load(std::memory_order_relaxed);
  s.pull_hits = impl_->pull_hits.load(std::memory_order_relaxed);
  s.pull_failures = impl_->pull_failures.load(std::memory_order_relaxed);
  s.pushes = impl_->pushes.load(std::memory_order_relaxed);
  s.push_failures = impl_->push_failures.load(std::memory_order_relaxed);
  s.push_dropped = impl_->push_dropped.load(std::memory_order_relaxed);
  return s;
}

std::optional<MemoExportEntry> MemoExchange::pull(const GlobalMemoKey& key) {
  if (impl_->members.size() == 1 ||
      impl_->stopping.load(std::memory_order_acquire)) {
    return std::nullopt;
  }
  const std::size_t owner = impl_->owner_of_hash(memo_key_hash(key));
  if (owner == 0) {
    return std::nullopt;  // we own it; the local miss is authoritative
  }
  impl_->pulls.fetch_add(1, std::memory_order_relaxed);
  std::optional<MemoExportEntry> entry =
      impl_->pull(impl_->members[owner], key);
  if (entry.has_value()) {
    impl_->pull_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

}  // namespace brel
