#pragma once
/// \file memo_exchange.hpp
/// Tier 2 of the tiered memo store: peer exchange of complete memo
/// entries between brel_server processes, over the same framed-TCP wire
/// the solve traffic uses (server.hpp) — the `MEMO_PULL` / `MEMO_PUSH`
/// verbs.
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
/// Two flows, both carrying only export-policy records (see
/// memo_backend.hpp — naturally-complete entries and root-exact
/// records; a partial or tainted result cannot cross the wire):
///
///   - PULL (the fault path): a ROOT-position lookup that misses the
///     local memo and whose key is owned by a peer sends `MEMO_PULL`
///     with the canonical key to the owner; a hit installs the pulled
///     record (with its original mark) into the local memo and serves
///     it.  Only GlobalMemo::lookup's depth-0 path faults; lookup_at
///     never pulls.  The owner answers from its LOCAL memo only
///     (Server's handler uses export_entry, not lookup), so two peers
///     can never recurse into each other;
///   - PUSH (the gossip path): GlobalMemo's completion listener feeds
///     every freshly export-eligible key into a bounded queue; a
///     background thread exports each record and sends `MEMO_PUSH` to
///     its owner, so the owner accumulates its keyspace slice without
///     waiting to be asked.  Keys this member owns itself are skipped
///     at enqueue; a full queue drops (counted) rather than blocks —
///     gossip is an optimization, never backpressure on a drain.
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
  /// Bound of the push queue; beyond it fresh completions are dropped
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
  std::uint64_t push_dropped = 0;   ///< completions dropped (queue full)
};

/// The exchange tier.  Construct over the local (tier-0) memo, start(),
/// then wire it in: set_fault_tier(this) routes root misses through
/// probe(), set_complete_listener(… enqueue_push …) feeds the gossip.
/// stop() (idempotent, also run by the destructor) joins the push
/// thread; DISCONNECT the memo's hooks before destroying the exchange.
class MemoExchange : public MemoBackend {
 public:
  MemoExchange(GlobalMemo& local, PeerExchangeOptions options);
  ~MemoExchange() override;

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

  /// Feed of the local memo's completion listener: queue `key` for a
  /// MEMO_PUSH to its owner (skipped immediately when self-owned).
  void enqueue_push(const GlobalMemoKey& key);

  [[nodiscard]] PeerExchangeStats stats() const;

  // MemoBackend --------------------------------------------------------
  /// The PULL fault path.  Only acts for depth == 0 (the root position)
  /// on peer-owned keys; a hit has ALREADY been installed into the
  /// local memo (original mark, MemoOrigin::kPeer) when this returns.
  [[nodiscard]] std::optional<MemoHit> probe(const GlobalMemoKey& key,
                                             std::uint64_t depth) override;
  /// Delegates to the local memo (records arriving out of band).
  bool install(const MemoExportEntry& entry, MemoOrigin origin) override;
  /// Delegates to the local memo.
  void export_complete(const std::function<void(const MemoExportEntry&)>&
                           sink) const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace brel
