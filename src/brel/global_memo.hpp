#pragma once
/// \file global_memo.hpp
/// The cross-solve memo: a sharded in-memory cache of whole answers,
/// keyed by the *manager-independent* canonical form (memo_backend.hpp).
///
/// Service traffic repeats whole requests, and every node of one search
/// tree is a distinct subrelation (Property 5.4), so the only answer a
/// memo can serve is a root answer.  SearchEngine and ParallelEngine
/// build the root's canonical key once (make_memo_key), probe with it
/// once, and — after a drained run — publish their returned result under
/// that same key once; a miss searches with no memo traffic at all.  One
/// entry per distinct solved relation, one probe and at most one publish
/// per solve.  Every entry serves: an interrupted run publishes nothing,
/// so the memo never holds a partial answer.
///
/// Keys are the canonical portable form (GlobalMemoKey): the
/// rank-remapped characteristic plus the input/output rank split, so a
/// relation first solved by worker A (in A's manager, at A's variable
/// offsets) is recognized when worker B parses it into B's manager.
/// Solutions are stored in the same rank-mapped serialized form and
/// materialized into the prober's manager with `deserialize_bdd` —
/// never a cross-manager handle.
///
/// Lifetime/GC contract: entries are PLAIN DATA — no `Bdd` handles, no
/// pinned edges, no reference counts.  Any manager may garbage-collect or
/// sift at any time without invalidating the memo, which is what lets
/// managers outlive individual solves in the pool.
///
/// Concurrency: the table is SHARDED into independently locked shards
/// (per-shard mutex, map, LRU list), picked by the top bits of
/// memo_key_hash — the same frozen 64-bit hash the snapshot checksum and
/// the peer ring use; each shard's map hashes with it too and compares
/// whole keys, so two distinct keys can never share an entry.  A probe
/// or publish takes exactly one shard lock and touches no BDD manager.
/// Counters (probes/hits/publishes/evictions) are per-shard relaxed
/// atomics folded lazily on read, off the locked path entirely — the
/// `BddStats` idiom.
///
/// Comparability: memos are only sound between runs minimizing the same
/// objective in the same mode.  bind() stamps the memo with a
/// `MemoFingerprint` and mismatched reuse throws.  An entry reflects how
/// deeply its producing run explored, so share a memo among runs of one
/// configuration (the pool enforces this by fixing one SolverOptions for
/// all requests).
///
/// Beyond the process: install() / export_entries() / export_entry()
/// translate between entries and the `MemoExportEntry` record form the
/// snapshot (memo_snapshot.hpp) and the peer exchange
/// (memo_exchange.hpp) carry, and an optional peer hook (set_peer)
/// connects the memo to the exchange: a root miss pulls from the key's
/// owning peer, and a publish that inserts a new key queues a push to it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "brel/lock_stats.hpp"
#include "brel/memo_backend.hpp"

namespace brel {

class MemoExchange;  // memo_exchange.hpp

/// The cross-solve memo.  Thread-safe; entries are plain data.
class GlobalMemo {
 public:
  /// Default (auto) shard policy when `shards == 0`: an UNLIMITED memo
  /// shards kDefaultShards ways — the long-lived service configuration,
  /// where contention matters and the capacity bound never fires.  A
  /// FINITE capacity resolves to ONE shard, preserving exact global-LRU
  /// semantics (per-shard LRU cannot promise a global recency order).
  /// Explicit shard counts are rounded up to a power of two and clamped
  /// to [1, kMaxShards]; a finite capacity is then split as
  /// ceil(capacity / shards) per shard, enforced per shard.
  explicit GlobalMemo(std::size_t capacity = static_cast<std::size_t>(-1),
                      std::size_t shards = 0);

  static constexpr std::size_t kDefaultShards = 16;
  static constexpr std::size_t kMaxShards = 256;

  /// Stamp with the run configuration; mismatched reuse throws
  /// std::invalid_argument (cf. SubproblemCache::bind).
  void bind(const MemoFingerprint& fp);

  /// The bound fingerprint (nullopt before the first bind) — the
  /// snapshot and exchange stamp/validate their records with it.
  [[nodiscard]] std::optional<MemoFingerprint> fingerprint() const;

  /// Probe for `key`: the stored answer, or nullopt.  Counts a hit only
  /// when it serves; by-value so the record is immune to a concurrent
  /// publish().  On a local miss with a peer exchange wired (set_peer),
  /// the key's record is pulled from its owning peer, installed locally
  /// as MemoOrigin::kPeer and served; the next identical probe is a plain
  /// local hit.
  [[nodiscard]] std::optional<PortableSolution> lookup(
      const GlobalMemoKey& key);

  /// Insert-or-improve: record `solution` for `key` when the key is new
  /// or when the cost beats the stored entry (cost ties fall through to
  /// canonically_before, so the kept answer is independent of publish
  /// order).  A new entry serves at once and exports as a root record.
  /// At capacity a brand-new key EVICTS the least-recently-touched entry
  /// of its shard (recency is refreshed by every lookup or publish that
  /// finds the key present), so a long-lived service retains its hot
  /// working set; improvements to present keys never evict anything.
  /// Only an insert queues a push to a wired exchange.
  void publish(const GlobalMemoKey& key, const PortableSolution& solution);

  /// Install a process-crossing record (snapshot load, peer pull/push),
  /// already fingerprint-validated by the caller.  A new key inserts with
  /// the record's mark stored as opaque data; a present key's solution
  /// improves under exactly the publish rules and its mark stays.  Never
  /// pushes to a peer.  Returns true when anything changed.
  bool install(const MemoExportEntry& record, MemoOrigin origin);

  /// Enumerate every entry in record form (the snapshot writer).  Entries
  /// are copied out shard by shard; the sink runs outside any shard lock.
  void export_entries(
      const std::function<void(const MemoExportEntry&)>& sink) const;

  /// Export one key (nullopt when absent) — the MEMO_PULL server path
  /// and the exchange's push loop.
  [[nodiscard]] std::optional<MemoExportEntry> export_entry(
      const GlobalMemoKey& key) const;

  /// Wire the peer exchange (nullptr disconnects): a root miss calls
  /// exchange->pull(), a publish that inserts calls enqueue_push().  The
  /// exchange must outlive the memo or be disconnected first; a probe
  /// racing the disconnect may still reach it, which a stopped exchange
  /// answers with a miss and a dropped push.
  void set_peer(MemoExchange* exchange);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Number of independently locked shards (≥ 1, power of two).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Shard index `key` hashes to (stable for the memo's lifetime).
  [[nodiscard]] std::size_t shard_of(const GlobalMemoKey& key) const;
  /// Entry count of one shard (for distribution diagnostics/tests).
  [[nodiscard]] std::size_t shard_size(std::size_t shard) const;
  /// Per-shard slice of the capacity bound (SIZE_MAX when unlimited).
  [[nodiscard]] std::size_t shard_capacity() const noexcept {
    return shard_capacity_;
  }

  // Lazily folded totals over the per-shard relaxed atomics — no shard
  // lock is taken, so polling stats never perturbs the hot path.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t probes() const;
  [[nodiscard]] std::uint64_t publishes() const;
  /// Entries removed by the capacity bound's LRU policy so far.
  [[nodiscard]] std::uint64_t evictions() const;
  /// Always 0: the maps compare whole keys, so distinct keys never
  /// collide.  Kept for the brelbench `global_memo.collisions` field.
  [[nodiscard]] std::uint64_t collisions() const noexcept { return 0; }
  /// Hits broken down by the serving entry's origin (run / snapshot /
  /// peer) — the per-origin accounting the STATS surface reports.
  [[nodiscard]] std::uint64_t hits_from(MemoOrigin origin) const;

 private:
  /// The map hasher: the frozen 64-bit key hash (memo_key_hash).  Not
  /// noexcept: libstdc++ then caches each node's hash code, so bucket
  /// walks and rehashes never re-hash a stored key.
  struct KeyHasher {
    [[nodiscard]] std::size_t operator()(const GlobalMemoKey& key) const {
      return static_cast<std::size_t>(memo_key_hash(key));
    }
  };
  struct Entry {
    PortableSolution solution;
    /// The record mark, opaque to the memo: a run's publish is a root
    /// record; an installed record keeps the mark it arrived with.
    std::uint64_t complete_depth = 0;
    bool root_exact = true;
    MemoOrigin origin = MemoOrigin::kRun;  ///< who created the entry
    /// Position in the shard's lru (most-recently-touched at the
    /// front).  List iterators survive splices, so a const lookup can
    /// refresh recency without touching the entry itself.
    std::list<const GlobalMemoKey*>::iterator lru;
  };

  /// One independently locked slice of the table.  All shard mutexes
  /// share the "memo" lock-stats group, so contention reports aggregate
  /// across shards automatically.
  struct Shard {
    using Map = std::unordered_map<GlobalMemoKey, Entry, KeyHasher>;
    mutable TimedMutex mutex{lock_names::kMemo};
    Map map;
    /// Recency order over this shard's keys, pointing at the map's own
    /// key objects (node-based, so stable until erased); back() is the
    /// victim.
    mutable std::list<const GlobalMemoKey*> lru;
    // Folded lazily by the accessors; never read under the mutex.
    mutable std::atomic<std::uint64_t> hits{0};
    mutable std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> publishes{0};
    std::atomic<std::uint64_t> evictions{0};
    mutable std::atomic<std::uint64_t> hits_by_origin[kMemoOriginCount] = {};
  };

  /// Move `entry` to `shard`'s most-recently-touched position (call
  /// with the shard's mutex held).
  static void touch(const Shard& shard, const Entry& entry) {
    shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru);
  }

  /// Record form of an entry (mutex held).
  [[nodiscard]] static MemoExportEntry to_export(const GlobalMemoKey& key,
                                                 const Entry& entry) {
    return MemoExportEntry{key, entry.solution, entry.complete_depth,
                           entry.root_exact};
  }

  /// The shard `key` lives in.
  [[nodiscard]] Shard& shard_for(const GlobalMemoKey& key) const {
    return *shards_[shard_of(key)];
  }

  /// Pull `key` from `exchange` after a local miss; installs and serves a
  /// returned record (a kPeer hit).
  std::optional<PortableSolution> pull_from_peer(MemoExchange& exchange,
                                                 const GlobalMemoKey& key);

  /// Insert-or-improve shared by publish and install: a new key inserts
  /// with the given mark and origin, a present key's solution improves
  /// under the publish rules (its mark stays).
  enum class Upsert { kUnchanged, kImproved, kInserted };
  Upsert upsert(const GlobalMemoKey& key, const PortableSolution& solution,
                std::uint64_t complete_depth, bool root_exact,
                MemoOrigin origin);

  std::size_t capacity_;        ///< total bound across shards
  std::size_t shard_capacity_;  ///< per-shard slice of the bound
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex meta_mutex_;  ///< guards fingerprint_ only (cold)
  std::optional<MemoFingerprint> fingerprint_;

  /// The wired exchange; a plain atomic pointer because the server wires
  /// it before traffic and disconnects it after the drain.
  std::atomic<MemoExchange*> peer_{nullptr};
};

}  // namespace brel
