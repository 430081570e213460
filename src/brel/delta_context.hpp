#pragma once
/// \file delta_context.hpp
/// Per-embedder memory of recently solved root relations, per variable
/// space.  It serves two consumers:
///
///   - PARTITION BASES (partition.hpp): solve_partitioned diffs a request
///     against the registry's most recent base over the same input/output
///     rank spaces (import_canonical_bdd materializes it in the solving
///     manager) and cofactors the XOR change region per input block.  A
///     zero block cofactor proves that block's relation byte-identical to
///     the base run's, whose block root entry in the GlobalMemo serves it
///     without re-search.  The delta never decides reuse — the content-
///     keyed root probes do — it classifies blocks for the `# delta:`
///     observability counters;
///   - ORDER MEMORY (solver_pool.hpp): the block order a pool slot's last
///     same-signature solve drained with, which seeds the next request's
///     variable order so repeat traffic skips the sifting ramp.
///
/// The plain engines (search.hpp, parallel_engine.hpp) never read it: the
/// memo holds whole answers keyed at the root, so there is no interior
/// subtree for a per-node delta to classify.
///
/// Threading: a DeltaRegistry belongs to ONE embedder thread (a pool
/// slot's worker_loop, or the CLI main thread).  It stores only plain
/// rank-form data — no Bdd handles — so it survives the pool's slot
/// recycling protocol (reset_variables between requests) untouched.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "brel/global_memo.hpp"

namespace brel {

/// Per-embedder memory of previously solved root relations in canonical
/// rank form, keyed by their input/output rank spaces.  Small: one base
/// per space signature, a handful of signatures (LRU beyond capacity).
class DeltaRegistry {
 public:
  static constexpr std::size_t kDefaultCapacity = 8;

  explicit DeltaRegistry(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// The most recent base characteristic solved over these rank spaces,
  /// or nullptr.  Takes the rank lists (they live in the MemoSpace).
  /// The pointer is owned by the registry and invalidated by the next
  /// remember().
  [[nodiscard]] const SerializedBdd* find_base(
      std::span<const std::uint32_t> input_ranks,
      std::span<const std::uint32_t> output_ranks) const;

  /// Record `key` (a solved root in canonical rank form) as the base
  /// for its spaces, replacing any previous base of the same spaces and
  /// evicting the least-recently refreshed signature beyond capacity.
  void remember(const GlobalMemoKey& key);

  /// The block order (relation_io's `.order` grammar: the rank at each
  /// level) the last same-signature solve drained with, or nullptr.
  /// Pool slots seed a recycled variable block with this via
  /// read_relation's order_hint, so a warm re-solve starts at the order
  /// the previous solve sifted into instead of re-discovering it.
  /// Invalidated by the next remember_order()/remember().
  [[nodiscard]] const std::vector<std::uint32_t>* find_order(
      const std::vector<std::uint32_t>& input_ranks,
      const std::vector<std::uint32_t>& output_ranks) const;

  /// Record the drained solve's block order for its signature (empty =
  /// identity; remembered too, so a solve that sifted AWAY from a
  /// previously remembered order clears the stale hint).  Shares the
  /// signature entries (and their LRU) with the delta bases; an
  /// order-only entry never serves find_base.
  void remember_order(const std::vector<std::uint32_t>& input_ranks,
                      const std::vector<std::uint32_t>& output_ranks,
                      std::vector<std::uint32_t> order);

  [[nodiscard]] std::size_t size() const noexcept { return bases_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct BaseEntry {
    std::vector<std::uint32_t> input_ranks;
    std::vector<std::uint32_t> output_ranks;
    SerializedBdd chi;
    bool has_chi = false;  ///< false while the entry only holds an order
    /// Last drained solve's block order over these spaces (empty =
    /// identity / unknown).
    std::vector<std::uint32_t> order;
    std::uint64_t stamp = 0;  ///< recency (higher = fresher)
  };

  /// The entry for (input_ranks, output_ranks), created (with LRU
  /// eviction) if absent; refreshes the recency stamp.
  BaseEntry& entry_for(std::span<const std::uint32_t> input_ranks,
                       std::span<const std::uint32_t> output_ranks);

  std::size_t capacity_;
  std::uint64_t next_stamp_ = 0;
  std::vector<BaseEntry> bases_;  ///< linear scan; capacity is tiny
};

/// Incremental-mode policy resolution, mirroring resolve_reorder_mode:
/// the BREL_INCREMENTAL environment variable ("1"/"on" force-arms,
/// "0"/"off" force-disarms) overrides `configured`, so CI can exercise
/// the delta path across every suite without per-call plumbing.
[[nodiscard]] bool resolve_incremental(bool configured);

}  // namespace brel
