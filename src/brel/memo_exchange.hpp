#pragma once
/// \file memo_exchange.hpp
/// Peer exchange of memo entries between brel_server processes, over the
/// same framed-TCP wire the solve traffic uses (server.hpp) — the
/// `MEMO_PULL` / `MEMO_PUSH` verbs.
///
/// Ownership is CONSISTENT HASHING over the canonical key hash
/// (memo_key_hash): every member — self plus each `--memo-peers` entry
/// — contributes `replicas` virtual points FNV-hashed from
/// "member#index" to one shared ring, and a key belongs to the member
/// owning the first point at or after the key's hash (wrapping).  All
/// members compute the same ring from the same member list, so "who
/// owns this key" needs no coordination, and adding a member remaps
/// only the slice of keyspace it takes over.
///
/// The server wires the exchange into its memo once, with
/// GlobalMemo::set_peer.  Two flows, both carrying
/// `MemoExportEntry` records — every memo entry is a drained solve's
/// answer, so a partial result cannot cross the wire:
///
///   - PULL: a root lookup() that misses the local memo calls pull();
///     for a key owned by a peer it sends `MEMO_PULL` with the canonical
///     key to the owner, and a returned record is installed locally and
///     served.  The owner answers from its LOCAL memo only (Server's
///     handler uses export_entry, not lookup), so two peers can never
///     recurse into each other;
///   - PUSH: a publish that inserts a new key calls enqueue_push(); a
///     background thread exports each queued record and sends
///     `MEMO_PUSH` to its owner, so the owner accumulates its keyspace
///     slice without waiting to be asked.  An improvement to a present
///     entry is not pushed.  Keys this member owns itself are skipped at
///     enqueue; a full queue drops (counted) rather than blocks — gossip
///     is an optimization, never backpressure on a drain.
///
/// Failure model: peers are an accelerator tier, not a dependency.
/// Every wire failure — connect refusal, pull timeout (`SO_RCVTIMEO`-
/// style poll deadline), malformed or fingerprint-mismatched reply — is
/// a MISS or a dropped push, never an error surfaced to a solve.
///
/// This header deliberately does not include server.hpp (the server
/// includes this one to dispatch the verbs); only the .cpp reaches for
/// the wire helpers.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "brel/global_memo.hpp"

namespace brel {

struct PeerExchangeOptions {
  /// This member's own "host:port" identity — must match the string the
  /// OTHER members list in their `--memo-peers` for ownership to agree.
  std::string self;
  /// The other members, "host:port" each.
  std::vector<std::string> peers;
  /// Poll deadline of one MEMO_PULL round trip; an expired pull is a
  /// miss (the solve proceeds cold).
  int pull_timeout_ms = 250;
  /// Virtual ring points per member (evens out ownership slices).
  std::size_t replicas = 16;
  /// Bound of the push queue; beyond it fresh inserts are dropped
  /// (counted in stats().push_dropped), never blocked on.
  std::size_t push_queue_limit = 1024;
};

/// Point-in-time exchange counters (STATS surface).
struct PeerExchangeStats {
  std::uint64_t pulls = 0;          ///< MEMO_PULL round trips attempted
  std::uint64_t pull_hits = 0;      ///< ... that installed an entry
  std::uint64_t pull_failures = 0;  ///< connect/timeout/malformed replies
  std::uint64_t pushes = 0;         ///< MEMO_PUSH frames delivered
  std::uint64_t push_failures = 0;  ///< sends that failed or were refused
  std::uint64_t push_dropped = 0;   ///< inserts dropped (queue full)
};

/// The exchange.  Construct over the local memo, start(), then wire it
/// in with GlobalMemo::set_peer.  pull() and enqueue_push() are
/// thread-safe.  stop() (idempotent, also run by the destructor) joins
/// the push thread; DISCONNECT the memo's peer before destroying the
/// exchange.
class MemoExchange {
 public:
  MemoExchange(GlobalMemo& local, PeerExchangeOptions options);
  ~MemoExchange();

  MemoExchange(const MemoExchange&) = delete;
  MemoExchange& operator=(const MemoExchange&) = delete;

  void start();
  void stop();

  /// Ring member (index into {self} ∪ peers, 0 = self) owning `key`.
  [[nodiscard]] std::size_t owner_of(const GlobalMemoKey& key) const;
  /// Does this member own `key` (no pull/push will ever leave for it)?
  [[nodiscard]] bool owns(const GlobalMemoKey& key) const {
    return owner_of(key) == 0;
  }

  /// The PULL path: fetch `key`'s record from its owning peer.  nullopt
  /// when this member owns the key (the local miss is authoritative),
  /// after stop(), or on any wire failure or MISS.  The caller
  /// (GlobalMemo::lookup) installs a returned record.
  [[nodiscard]] std::optional<MemoExportEntry> pull(const GlobalMemoKey& key);

  /// The PUSH path: queue `key` for a MEMO_PUSH to its owner (skipped
  /// immediately when self-owned).
  void enqueue_push(const GlobalMemoKey& key);

  [[nodiscard]] PeerExchangeStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace brel
