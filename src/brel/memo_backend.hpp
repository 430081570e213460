#pragma once
/// \file memo_backend.hpp
/// The manager-independent canonical forms of the memo layer.
///
/// Everything here is PLAIN DATA or pure translation:
///
///   - `MemoSpace` / `GlobalMemoKey` / `PortableSolution`: the canonical
///     rank-remapped serialized forms that make a subproblem
///     content-addressable across managers, processes, and hosts (see
///     global_memo.hpp for how the in-memory memo keys on them);
///   - the make_*/import_* translators between manager BDDs and the
///     canonical forms, and the text codecs the socket service and the
///     snapshot format share;
///   - `MemoExportEntry`: the record form in which an entry crosses a
///     process boundary — written to a disk snapshot
///     (memo_snapshot.hpp) or sent to a peer server (memo_exchange.hpp).
///
/// What may cross a process boundary: every memo entry, because every
/// entry is a served answer — the root result of a drained solve (the
/// engines' publish-once, search.hpp).  A record carries a mark shape:
/// `.entry root` for a run's root answer, or `.entry natural depth=N`,
/// the shape older releases also wrote for naturally drained subtrees.
/// Both shapes serve a root probe; the memo stores the mark as opaque
/// data and writes it back unchanged, so a restored memo exports
/// exactly what was saved.  The codec rejects every other shape.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bdd/bdd_transfer.hpp"
#include "relation/relation.hpp"

namespace brel {

/// Rank tables of one relation's variable spaces: everything needed to
/// translate between manager variables and canonical ranks.  Build once
/// per solve (make_memo_space) and reuse for every key/solution.
struct MemoSpace {
  /// Relation variables (inputs ∪ outputs) in ascending manager order;
  /// rank r corresponds to manager variable sorted_vars[r].
  std::vector<std::uint32_t> sorted_vars;
  /// var → rank for every manager variable in the relation (entries for
  /// foreign variables hold kUnranked).
  std::vector<std::uint32_t> rank_of;
  std::vector<std::uint32_t> input_ranks;   ///< ranks of inputs, in order
  std::vector<std::uint32_t> output_ranks;  ///< ranks of outputs, in order

  static constexpr std::uint32_t kUnranked = 0xFFFFFFFFu;
};

/// Rank tables for `r` (ascending inputs+outputs order).
[[nodiscard]] MemoSpace make_memo_space(const BooleanRelation& r);

/// Canonical identity of one subproblem: rank-mapped characteristic plus
/// the input/output split.  Equal keys mean structurally identical
/// subrelations regardless of manager or variable offset.
///
/// Stored as fixed-width words in ONE contiguous arena —
/// [node_count, chi_root, #iranks, #oranks | var,hi,lo per node |
/// input ranks | output ranks] — so equality is a flat word compare and
/// an in-memory key costs a single allocation.  Text remains the format
/// at every snapshot/wire boundary: `chi()` reconstructs the exact
/// SerializedBdd the pre-arena key held (num_vars is derivable — always
/// 1 + the largest node rank), so `brelmemo 1` files and MEMO_PULL/PUSH
/// frames are byte-identical to the pre-arena format.
class GlobalMemoKey {
 public:
  GlobalMemoKey() : words_{0, 0, 0, 0} {}
  /// Pack a rank-form serialized chi (node vars are RANKS) and the rank
  /// lists.  Throws std::invalid_argument when the node list is not in
  /// child-before-parent order or the root id is out of range: a key is
  /// always the image of a serialize_bdd walk.
  GlobalMemoKey(const SerializedBdd& chi,
                std::span<const std::uint32_t> input_ranks,
                std::span<const std::uint32_t> output_ranks);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return words_.empty() ? 0 : words_[0];
  }
  [[nodiscard]] std::uint32_t chi_root() const noexcept {
    return words_.empty() ? 0 : words_[1];
  }
  [[nodiscard]] std::uint32_t node_var(std::size_t k) const noexcept {
    return words_[4 + 3 * k];
  }
  [[nodiscard]] std::uint32_t node_hi(std::size_t k) const noexcept {
    return words_[4 + 3 * k + 1];
  }
  [[nodiscard]] std::uint32_t node_lo(std::size_t k) const noexcept {
    return words_[4 + 3 * k + 2];
  }
  [[nodiscard]] std::span<const std::uint32_t> input_ranks() const noexcept {
    return words_.empty()
               ? std::span<const std::uint32_t>{}
               : std::span<const std::uint32_t>{words_}.subspan(
                     4 + 3 * node_count(), words_[2]);
  }
  [[nodiscard]] std::span<const std::uint32_t> output_ranks()
      const noexcept {
    return words_.empty()
               ? std::span<const std::uint32_t>{}
               : std::span<const std::uint32_t>{words_}.subspan(
                     4 + 3 * node_count() + words_[2], words_[3]);
  }
  /// Exact translator back to the text-boundary form.
  [[nodiscard]] SerializedBdd chi() const;

  [[nodiscard]] bool operator==(const GlobalMemoKey&) const = default;

 private:
  std::vector<std::uint32_t> words_;
};

/// Canonical key for a subrelation with characteristic `chi` living in
/// `space`: one serialize_bdd walk plus the rank remap, timed into
/// memo_key_build_stats().  The engines build their root key once,
/// before the root probe, and publish under the same key.  Throws
/// std::logic_error if chi depends on a variable outside the space (a
/// subrelation never does).
[[nodiscard]] GlobalMemoKey make_memo_key(const MemoSpace& space,
                                          const Bdd& chi);

/// make_memo_key under a shared space — the spelling
/// brelbench/src/trace.cpp probes the memo with.
[[nodiscard]] GlobalMemoKey make_memo_handle(
    const std::shared_ptr<const MemoSpace>& space, const Bdd& chi);

/// 64-bit FNV-1a content hash of a canonical key.  One hash serves every
/// consumer that needs a key's identity, in memory and ACROSS PROCESSES
/// AND VERSIONS alike: the in-memory memo's shard choice and map hasher
/// (global_memo.hpp), the snapshot entry checksum (memo_entry_checksum
/// embeds it in `check=` fields on disk), the peer-exchange
/// consistent-hash ring (memo_exchange.hpp — a key owned by peer P
/// hashes identically in every process), and the MEMO_PULL/PUSH frames.
/// Its feed sequence is therefore frozen.
[[nodiscard]] std::uint64_t memo_key_hash(const GlobalMemoKey& key);

/// Process-wide key-build accounting: how many canonical keys
/// make_memo_key built and the wall time spent doing it.  Feeds the
/// `key_build_ms` bench field.
struct MemoKeyBuildStats {
  std::uint64_t builds = 0;
  std::uint64_t ns = 0;
};
[[nodiscard]] MemoKeyBuildStats memo_key_build_stats() noexcept;

/// A manager-independent multi-output solution: one rank-mapped
/// serialized BDD per output, over the *input* ranks of its space.
struct PortableSolution {
  std::vector<SerializedBdd> outputs;
  double cost = 0.0;

  [[nodiscard]] bool has_solution() const noexcept {
    return !outputs.empty();
  }
  [[nodiscard]] bool operator==(const PortableSolution&) const = default;
};

/// Flatten `f` (BDDs of one manager) into the portable rank form.
[[nodiscard]] PortableSolution make_portable_solution(const MemoSpace& space,
                                                      const MultiFunction& f,
                                                      double cost);

/// Materialize a portable solution in `mgr` under `space`'s variable
/// assignment (the inverse remap of make_portable_solution).
[[nodiscard]] MultiFunction import_portable_solution(
    BddManager& mgr, const MemoSpace& space, const PortableSolution& s);

/// Materialize one rank-form serialized BDD (e.g. a GlobalMemoKey::chi)
/// in `mgr` under `space`'s variable assignment — the same inverse remap
/// import_portable_solution applies per output, exposed for callers that
/// need the characteristic itself (the incremental delta path diffs a
/// remembered base characteristic against a fresh one).
[[nodiscard]] Bdd import_canonical_bdd(BddManager& mgr,
                                       const MemoSpace& space,
                                       const SerializedBdd& s);

/// Text form of a portable solution — the response body of the socket
/// service (server.hpp), built from the same node-line grammar as the
/// `.bdd` relation format: a `.cost` line, an `.outputs` count, then per
/// output a `.bdd <node_count>` section (write_serialized_bdd).  An
/// empty-bodied solution (has_solution() == false) round-trips too.
void write_portable_solution(std::ostream& os, const PortableSolution& s);
/// Inverse of write_portable_solution.  Throws std::invalid_argument on
/// malformed input (bad counts, malformed node lines, trailing tokens).
[[nodiscard]] PortableSolution read_portable_solution(std::istream& in);

/// Strict total order on same-space portable solutions, used to break
/// COST TIES everywhere a winner is chosen — the engine incumbent, the
/// memo's cross-run accumulation, the parallel coordinator's merge.
/// Minimum under a total order is associative/commutative, so the tied
/// winner is the same no matter which schedule, worker, or run produced
/// the candidates — without it, equal-cost ties make repeat solves (and
/// memo-served solves) compatible-but-not-bit-identical.  The order is
/// lexicographic over the rank-form serialized outputs; it carries no
/// semantic meaning beyond being total and space-canonical.
[[nodiscard]] bool canonically_before(const PortableSolution& a,
                                      const PortableSolution& b);

/// The comparability stamp (see CacheFingerprint for the rationale; the
/// variable spaces live inside each GlobalMemoKey here, as ranks, so the
/// fingerprint only carries objective and mode).
struct MemoFingerprint {
  std::string cost_id;
  bool exact = false;

  [[nodiscard]] bool operator==(const MemoFingerprint&) const = default;
};

/// Depth of a `.entry natural depth=any` record: a drain with no depth
/// cap at all.
inline constexpr std::uint64_t kMemoAnyDepth =
    static_cast<std::uint64_t>(-1);

/// Where an installed entry came from — tags per-origin hit accounting
/// (a warm service should show its restarts and peers paying off, not
/// just an aggregate hit rate).
enum class MemoOrigin : std::uint8_t {
  kRun = 0,       ///< published by a solve in this process
  kSnapshot = 1,  ///< restored from a disk snapshot
  kPeer = 2,      ///< pulled or pushed over the wire from a peer
};
inline constexpr std::size_t kMemoOriginCount = 3;

/// One entry in its process-crossing form: the canonical key, the
/// solution, and the mark shape it was recorded under (see the file
/// comment).  `root_exact` marks a run's root answer (`complete_depth`
/// is then 0); otherwise the record is a natural one at `complete_depth`
/// (kMemoAnyDepth for a capless drain).  The memo never interprets the
/// mark: any record it holds serves a root probe.
struct MemoExportEntry {
  GlobalMemoKey key;
  PortableSolution solution;
  std::uint64_t complete_depth = kMemoAnyDepth;
  bool root_exact = false;
};

}  // namespace brel
