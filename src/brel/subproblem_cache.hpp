#pragma once
/// \file subproblem_cache.hpp
/// Memoizing deduplication of subrelations by canonical characteristic-BDD
/// edge.
///
/// Because the BDD package is canonical, two subrelations over the same
/// manager are equal iff their characteristic functions are the same edge,
/// so an unordered-map probe on the raw edge detects every re-encounter in
/// O(1) — no symmetry substitutions, no depth limit.  This generalizes the
/// *exact-duplicate* half of `SymmetryCache` (Sec. 7.7): the symmetry
/// cache also catches permuted images but pays a BDD compose per output
/// pair per probe, which is why the paper applies it only near the root;
/// the subproblem cache is cheap enough to run on every generated child.
///
/// A perhaps surprising corollary of Property 5.4 (Split partitions
/// IF(R)): within a SINGLE solve tree a hit is impossible.  The two halves
/// of Split(x, y_i) have disjoint, non-empty images at x — one allows only
/// y_i = 0 there, the other only y_i = 1 — and splitting only ever shrinks
/// images, so any two nodes of one tree differ at the vertex of their
/// lowest common ancestor's split.  Within one run the cache is therefore
/// a pure invariant guard: a hit means the engine generated the same
/// subrelation twice, i.e. a bug.  Its value materializes only when one
/// cache is SHARED across solve() calls (SolverOptions::subproblem_cache,
/// the one way to arm it):
/// re-solving the same or an overlapping relation re-generates identical
/// subrelations, which are pruned instead of re-consuming budget.
///
/// Dedup alone would trade solution quality for that saved budget, so
/// each entry MEMOIZES the best solution discovered anywhere in that
/// subrelation's subtree: the engine attributes every discovered solution
/// to the whole ancestor chain of the node that produced it (a solution
/// compatible with a subrelation is compatible with every relation above
/// it, Property 5.1), and a cache hit offers the memo to the incumbent.
/// Re-solving an identical relation with a warm cache thus returns
/// first-run quality while exploring a single node.  Solutions memoized
/// under one cost function are only comparable under the same one — share
/// a cache across runs with identical `SolverOptions::cost` only.  And a
/// memo only reflects how deeply ITS run explored: feeding a cache warmed
/// by budget-limited runs into an exact run would prune subtrees the
/// exact run still needed, so share among runs of the same mode.
///
/// Cached edges are pinned by `Bdd` handles so garbage collection cannot
/// recycle them (a recycled edge would alias a different function and turn
/// the dedup into wrong pruning).  The capacity bound caps that pinning;
/// once full the cache keeps probing but stops inserting — improve() on
/// entries that are already present still lands, so a better solution
/// discovered late always updates its memo even at capacity.
///
/// The comparability contract above (same cost function, same mode, same
/// input/output spaces) is ENFORCED, not just documented: the first
/// engine to use a cache stamps it with a `CacheFingerprint` via bind(),
/// and a later bind() with a different fingerprint throws — offering a
/// memo that minimized a different objective (or a solution over
/// different variables) to the incumbent would be wrong pruning, not a
/// cache miss.  Long-lived owners that intentionally recycle a cache
/// across configurations call rebind_or_clear() instead, which drops the
/// stale entries on mismatch.
///
/// Concurrency: the cache's own bookkeeping (map, keep-alive pins,
/// hit/probe counters) is serialized by an internal mutex, and probes
/// return the entry *by value* so no caller ever reads a record another
/// thread is improving.  The mutex is NOT a license to share the cache
/// across threads freely, though: keys and memoized solutions are
/// ref-counted handles of ONE BddManager, and every probe/snapshot
/// copies handles — which touches that manager's (single-threaded,
/// debug-asserted) refcounts.  Sharing a cache between threads is
/// therefore only sound when access to its manager is itself serialized
/// — e.g. handing a manager+cache pair across a pipeline stage with
/// BddManager::bind_to_current_thread at the boundary.  The parallel
/// engine takes no cache at all: edges do not transfer between its
/// workers' managers (parallel_engine.hpp's constructor rejects one).

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "relation/relation.hpp"

namespace brel {

/// What makes two runs' memoized solutions comparable: the objective
/// they minimized, the exploration mode (an exact run must not be pruned
/// by memos of budget-limited runs), and the variable spaces the
/// solutions are expressed over.  The input/output lists are RAW manager
/// variable indices on purpose: a cache is keyed by manager-local edges,
/// and the same edge means the same function only under the same
/// variable assignment (e.g. the constant-ONE characteristic of two
/// relations over different blocks is the same edge but needs different
/// solutions).
struct CacheFingerprint {
  std::string cost_id;
  bool exact = false;
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;

  [[nodiscard]] bool operator==(const CacheFingerprint&) const = default;
};

/// Best solution known for one cached subrelation.  `best.outputs` is
/// empty until the first improve() lands (e.g. a capacity-full insert).
struct CachedSolution {
  MultiFunction best;
  double cost = 0.0;

  [[nodiscard]] bool has_solution() const noexcept {
    return !best.outputs.empty();
  }
};

class SubproblemCache {
 public:
  explicit SubproblemCache(
      std::size_t capacity = static_cast<std::size_t>(-1));

  /// Stamp the cache with the run configuration it is about to serve.
  /// The first bind() records `fp`; subsequent binds with an equal
  /// fingerprint are no-ops; a mismatched bind throws
  /// std::invalid_argument (sharing memos across incomparable runs is
  /// wrong pruning, see the file comment).  Every engine binds before
  /// its first probe.
  void bind(const CacheFingerprint& fp);

  /// Like bind(), but a mismatched fingerprint clears the cache and
  /// re-stamps instead of throwing — for owners that deliberately
  /// recycle one cache across configurations (pool worker slots).
  void rebind_or_clear(const CacheFingerprint& fp);

  /// Drop every entry and pin (fingerprint included); counters survive.
  void clear();

  /// Probe for `chi`.  Returns the existing entry when `chi` was
  /// inserted before; otherwise inserts an empty entry (capacity
  /// permitting) and returns nullptr.  The pointer is stable until
  /// clear()/rebind_or_clear() (unordered_map references survive
  /// inserts) — no per-hit copy of the memoized MultiFunction.  Read it
  /// before the next improve() from another thread; under the
  /// manager-serialization rule in the file comment the prober and the
  /// improver are the same thread anyway.
  [[nodiscard]] const CachedSolution* seen_before_or_insert(const Bdd& chi);

  /// Record `f` (with its cost under the current run's cost function) as
  /// a solution for every subrelation edge in `chain` — the ancestor
  /// chain of the node that discovered it.  Entries not present in the
  /// cache (never inserted, or dropped by capacity) are skipped.
  void improve(std::span<const detail::Edge> chain, const MultiFunction& f,
               double cost);

  /// Non-inserting probe.
  [[nodiscard]] bool contains(const Bdd& chi) const {
    const std::scoped_lock lock(mutex_);
    return cache_.count(chi.raw_edge()) != 0;
  }

  [[nodiscard]] std::size_t size() const {
    const std::scoped_lock lock(mutex_);
    return cache_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const {
    const std::scoped_lock lock(mutex_);
    return hits_;
  }
  [[nodiscard]] std::uint64_t probes() const {
    const std::scoped_lock lock(mutex_);
    return probes_;
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;  ///< serializes map, keep-alives and counters
  std::optional<CacheFingerprint> fingerprint_;  ///< stamped at first bind
  std::unordered_map<detail::Edge, CachedSolution> cache_;
  std::vector<Bdd> keep_alive_;  ///< pins cached edges across GCs
  std::uint64_t hits_ = 0;
  std::uint64_t probes_ = 0;
};

}  // namespace brel
