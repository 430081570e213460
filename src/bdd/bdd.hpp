#pragma once
/// \file bdd.hpp
/// A reduced ordered BDD package with complement edges.
///
/// This is the substrate the BREL solver runs on (the paper used CUDD; see
/// DESIGN.md substitution 1).  The canonical form is the classic one: the
/// then-edge of a node is never complemented, there is a single terminal
/// node (ONE), and ZERO is the complemented edge to it.  Negation is O(1).
///
/// `BddManager` owns the node store, the unique table and the computed
/// cache.  `Bdd` is a reference-counted RAII handle to an edge; all user
/// code manipulates `Bdd` values.  The manager is single-threaded.
///
/// Operations provided (each in its own translation unit):
///   - bdd_manager.cpp : node creation, per-level unique tables, GC
///   - bdd_ops.cpp     : ITE and the derived connectives
///   - bdd_quant.cpp   : existential/universal quantification, compose
///   - bdd_minimize.cpp: generalized cofactors (constrain, restrict)
///   - bdd_isop.cpp    : Minato-Morreale irredundant SOP extraction
///   - bdd_analysis.cpp: satcount, support, shortest path, eval, dag size
///   - bdd_reorder.cpp : dynamic variable reordering (swap + sifting)
///   - bdd_io.cpp      : dot export and debugging dumps
///
/// Variable order: a node stores a stable *variable id*; where that
/// variable currently sits in the order is a separate *level* looked up
/// through the `level_of_var_` / `var_at_level_` indirection.  Every
/// recursive kernel recurses on levels while edges keep their var ids,
/// which is what lets `reorder()` (Rudell sifting over in-place adjacent
/// swaps) change the order under live external handles: a `Bdd` keeps
/// denoting the same function across any number of reorders.

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bdd/stamped_map.hpp"
#include "cover/cover.hpp"
#include "cover/cube.hpp"

namespace brel {

class BddManager;

namespace detail {

/// An edge is a node index shifted left once, with the low bit holding the
/// complement attribute.  Edge 0 is the constant ONE, edge 1 is ZERO.
using Edge = std::uint32_t;

inline constexpr Edge kOne = 0;
inline constexpr Edge kZero = 1;
inline constexpr std::uint32_t kTerminalVar = 0xFFFFFFFFu;

[[nodiscard]] inline constexpr Edge edge_not(Edge e) noexcept {
  return e ^ 1u;
}
[[nodiscard]] inline constexpr std::uint32_t edge_index(Edge e) noexcept {
  return e >> 1;
}
[[nodiscard]] inline constexpr bool edge_complemented(Edge e) noexcept {
  return (e & 1u) != 0;
}
[[nodiscard]] inline constexpr Edge edge_regular(Edge e) noexcept {
  return e & ~1u;
}
[[nodiscard]] inline constexpr bool edge_is_constant(Edge e) noexcept {
  return edge_index(e) == 0;
}

}  // namespace detail

/// Reference-counted handle to a BDD.  A default-constructed handle is
/// "null" and belongs to no manager; every other handle keeps its root node
/// (and hence the whole DAG under it) alive across garbage collections.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  [[nodiscard]] bool is_null() const noexcept { return manager_ == nullptr; }
  [[nodiscard]] BddManager* manager() const noexcept { return manager_; }

  [[nodiscard]] bool is_one() const noexcept;
  [[nodiscard]] bool is_zero() const noexcept;
  [[nodiscard]] bool is_constant() const noexcept;

  /// Canonicity makes equality a pointer comparison.
  [[nodiscard]] bool operator==(const Bdd& other) const noexcept {
    return manager_ == other.manager_ && edge_ == other.edge_;
  }

  /// Logical connectives (delegate to the owning manager).
  [[nodiscard]] Bdd operator!() const;
  [[nodiscard]] Bdd operator&(const Bdd& other) const;
  [[nodiscard]] Bdd operator|(const Bdd& other) const;
  [[nodiscard]] Bdd operator^(const Bdd& other) const;
  /// Boolean biconditional (XNOR).
  [[nodiscard]] Bdd iff(const Bdd& other) const;
  /// Material implication (!this | other).
  [[nodiscard]] Bdd implies(const Bdd& other) const;

  /// True iff this <= other as functions (this implies other everywhere).
  [[nodiscard]] bool subset_of(const Bdd& other) const;

  /// Positive/negative cofactor with respect to variable `var`.
  [[nodiscard]] Bdd cofactor(std::uint32_t var, bool phase) const;

  /// Number of nodes in the DAG rooted here (terminal included).  Walks
  /// through the manager's traversal scratch, so — like every manager
  /// operation — only the manager's owning thread may call it.
  [[nodiscard]] std::size_t size() const;

  /// Support as a sorted list of variable indices (same thread contract
  /// as size()).
  [[nodiscard]] std::vector<std::uint32_t> support() const;

  /// Evaluate under a complete assignment (assignment[i] = variable i).
  [[nodiscard]] bool eval(const std::vector<bool>& assignment) const;

  /// Raw edge (for hashing / canonical ids).  Stable until the handle dies.
  [[nodiscard]] detail::Edge raw_edge() const noexcept { return edge_; }

 private:
  friend class BddManager;
  Bdd(BddManager* manager, detail::Edge edge);

  BddManager* manager_ = nullptr;
  detail::Edge edge_ = detail::kOne;
};

/// Manager-independent form of a BDD (bdd_transfer.hpp): the DAG as a
/// child-before-parent node list plus a root edge.  The unit of cross-
/// manager (and cross-thread) relation transfer.
struct SerializedBdd;

/// Result of ISOP extraction: an irredundant SOP cover together with the
/// function it denotes (which lies inside the requested interval).
struct IsopResult {
  Cover cover;   ///< irredundant prime-ish cover in positional notation
  Bdd function;  ///< BDD of the cover
};

/// Dynamic-variable-reordering policy of the layers above the manager
/// (SolverOptions::reorder; PoolOptions inherit it through the embedded
/// SolverOptions).  `Off` never reorders (the default — every result and
/// cost stays bit-identical to a build without reordering).  `On` sifts
/// once up front, before the work starts.  `Auto` arms the GC-coupled
/// trigger (BddManager::set_auto_reorder): sifting runs whenever the live
/// node count crosses an adaptive threshold.
enum class ReorderMode { Off, On, Auto };

/// Resolve a configured mode against the BREL_REORDER environment
/// variable ("off"/"on"/"auto"): when the variable is set to a valid
/// value it wins (the CI hook that re-runs whole suites under forced
/// reordering); otherwise `configured` is returned unchanged.
[[nodiscard]] ReorderMode resolve_reorder_mode(ReorderMode configured);

/// Operation tag of a computed-cache entry.  Public so per-op cache
/// statistics (BddStats::op_lookups / op_hits) are interpretable by
/// benchmarks and tests.
enum class BddOp : std::uint32_t {
  Ite = 0,
  And,
  Xor,
  Cofactor,
  Leq,
  Exists,
  AndExists,
  Constrain,
  Restrict,
  /// Caller-level ISF minimization memo (BddManager::minimize_memo_*).
  Minimize,
  /// Function-only ISOP (BddManager::isop_function).
  Isop,
};
inline constexpr std::size_t kBddOpCount = 11;
/// Short stable name of an op tag ("and", "ite", ...).
[[nodiscard]] const char* bdd_op_name(BddOp op) noexcept;

/// Operational statistics (monotone counters; see BddManager::stats()).
struct BddStats {
  std::size_t live_nodes = 0;       ///< nodes currently in the unique table
  std::size_t peak_nodes = 0;       ///< maximum live nodes ever observed
  std::uint64_t cache_hits = 0;     ///< computed-table hits
  std::uint64_t cache_lookups = 0;  ///< computed-table probes
  std::uint64_t gc_runs = 0;        ///< completed garbage collections
  std::uint64_t gc_checks = 0;      ///< garbage_collect_if_needed() calls
  std::uint64_t nodes_created = 0;  ///< total unique-table insertions
  std::size_t cache_entries = 0;    ///< current computed-table size
  // -- dynamic reordering (bdd_reorder.cpp) --
  std::uint64_t reorders = 0;       ///< completed sifting runs
  std::uint64_t reorder_swaps = 0;  ///< adjacent-level swaps performed
  /// Swaps short-circuited to a pure table flip because the interaction
  /// matrix proved the two variables share no root function's support.
  std::uint64_t reorder_swap_skips = 0;
  std::size_t reorder_nodes_before = 0;  ///< live nodes entering last sift
  std::size_t reorder_nodes_after = 0;   ///< live nodes leaving last sift
  /// Per-op computed-table probes/hits, indexed by BddOp.
  std::array<std::uint64_t, kBddOpCount> op_lookups{};
  std::array<std::uint64_t, kBddOpCount> op_hits{};

  [[nodiscard]] double hit_rate() const noexcept {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
};

/// Owns every BDD node.  Create variables with var(); combine them through
/// Bdd operators or the named operations below.
class BddManager {
 public:
  /// `cache_log2` caps the computed table at 2^cache_log2 entries; it does
  /// not set its size.  The table starts at 2^12 entries (or at the cap,
  /// if that is smaller) and doubles whenever the node store holds more
  /// nodes than it has entries; reset_variables() returns it to the start
  /// size and keeps its memory for the next regrowth.
  explicit BddManager(std::uint32_t num_vars, std::uint32_t cache_log2 = 18);
  ~BddManager();

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  [[nodiscard]] std::uint32_t num_vars() const noexcept { return num_vars_; }

  /// Add `count` fresh variables at the bottom of the order; returns the
  /// index of the first new variable.
  std::uint32_t add_vars(std::uint32_t count);

  [[nodiscard]] Bdd one();
  [[nodiscard]] Bdd zero();
  /// The projection function of variable `var`.
  [[nodiscard]] Bdd var(std::uint32_t var);
  /// Literal: the variable or its complement.
  [[nodiscard]] Bdd literal(std::uint32_t var, bool positive);

  /// If-then-else: f ? g : h — the universal connective.
  [[nodiscard]] Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);

  [[nodiscard]] Bdd bdd_and(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd bdd_or(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd bdd_xor(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd bdd_not(const Bdd& f);

  /// True iff f <= g as functions.  Short-circuits on the first witness
  /// minterm of f & !g instead of materializing that conjunction.
  [[nodiscard]] bool leq(const Bdd& f, const Bdd& g);

  /// True iff f <= g[var := !var] (g with `var` complemented), decided
  /// like leq() without building a node.  For an interval f <= g it is
  /// the non-essential-variable test of Sec. 7.5: the tightened interval
  /// [∃var f, ∀var g] is non-empty iff f|var=1 <= g|var=0 and
  /// f|var=0 <= g|var=1, which is exactly this.
  [[nodiscard]] bool leq_flipped(const Bdd& f, const Bdd& g,
                                 std::uint32_t var);

  /// Positive/negative cofactor of f with respect to a single variable
  /// (dedicated kernel; cheaper than constrain over the literal).
  [[nodiscard]] Bdd cofactor(const Bdd& f, std::uint32_t var, bool phase);

  /// Conjunction/disjunction over a whole range.
  [[nodiscard]] Bdd big_and(std::span<const Bdd> fs);
  [[nodiscard]] Bdd big_or(std::span<const Bdd> fs);

  /// Existential quantification of `vars` (∃vars f).
  [[nodiscard]] Bdd exists(const Bdd& f, std::span<const std::uint32_t> vars);
  /// Universal quantification of `vars` (∀vars f).
  [[nodiscard]] Bdd forall(const Bdd& f, std::span<const std::uint32_t> vars);
  /// Relational product ∃vars (f ∧ g) computed without the intermediate.
  [[nodiscard]] Bdd and_exists(const Bdd& f, const Bdd& g,
                               std::span<const std::uint32_t> vars);

  /// Simultaneous substitution: variable i is replaced by substitution[i].
  /// The vector must have one (possibly identity) entry per variable.
  [[nodiscard]] Bdd compose(const Bdd& f, std::span<const Bdd> substitution);

  /// Generalized cofactor of Coudert/Madre; requires care != 0.
  /// Agrees with f on `care`, usually smaller than f.
  [[nodiscard]] Bdd constrain(const Bdd& f, const Bdd& care);
  /// Sibling-substitution restrict; same contract as constrain but never
  /// pulls in variables outside supp(f) ∪ supp(care).
  [[nodiscard]] Bdd restrict_to(const Bdd& f, const Bdd& care);

  /// Minato-Morreale irredundant sum-of-products for any function in the
  /// interval [lower, upper].  Requires lower ⊆ upper.
  [[nodiscard]] IsopResult isop(const Bdd& lower, const Bdd& upper);
  /// isop(lower, upper).function without building the cover: the same
  /// edge, memoized in the computed table under BddOp::Isop (the result
  /// depends on the variable order, so entries die with the table on GC,
  /// sifting and reset_variables).  An interval whose support
  /// supp(lower) ∪ supp(upper) spans at most kIsopTableVars variables is
  /// minimized on word-parallel truth tables; a wider one runs the
  /// memoized BDD recursion.  Requires lower ⊆ upper.
  [[nodiscard]] Bdd isop_function(const Bdd& lower, const Bdd& upper);
  /// isop_function through the memoized BDD recursion at every width —
  /// the reference the truth-table path is measured and tested against.
  /// Same contract and result edge as isop_function.
  [[nodiscard]] Bdd isop_function_recursive(const Bdd& lower,
                                            const Bdd& upper);
  /// Widest interval support isop_function minimizes on truth tables
  /// (chosen from bench_bdd_ops's width ladder; DESIGN.md §2).
  static constexpr std::uint32_t kIsopTableVars = 16;

  /// Truth tables over an explicit layout: the conversions the truth-
  /// table ISOP and the relation kernels (relation/relation_table.hpp)
  /// share; truth_table.hpp has the word format.  Table position p
  /// stands for variable vars[p], and positions ascend in the order from
  /// the deepest level: level(vars[p]) > level(vars[p + 1]).
  /// valid_table_layout checks that, and at most kMaxTableVars positions
  /// (a table over 32 is already 512 MiB: a wider layout is a bug).
  [[nodiscard]] bool valid_table_layout(
      std::span<const std::uint32_t> vars) const;
  /// Writes f's table over the layout vars into dst
  /// (tt::table_words(vars.size()) words).  Returns false, leaving dst
  /// unspecified, when f depends on a variable outside the layout.
  /// Throws std::invalid_argument on an invalid layout.
  [[nodiscard]] bool table_of(const Bdd& f,
                              std::span<const std::uint32_t> vars,
                              std::uint64_t* dst);
  /// The BDD of a table over the layout vars: by canonicity the same edge
  /// as the function built any other way.  Throws std::invalid_argument
  /// on an invalid layout or a one-word table that is not replicated.
  [[nodiscard]] Bdd bdd_of_table(const std::uint64_t* table,
                                 std::span<const std::uint32_t> vars);
  static constexpr std::uint32_t kMaxTableVars = 32;

  /// Number of minterms of f over `num_vars_total` variables.  Exact while
  /// num_vars_total <= 52 (dyadic rationals representable in double).
  [[nodiscard]] double sat_count(const Bdd& f, std::uint32_t num_vars_total);

  /// Memo of a caller-level operator — IsfMinimizer::minimize — kept in
  /// the computed table under BddOp::Minimize: the key is the interval
  /// (lower, upper) plus `tag`, which encodes the caller's settings, and
  /// the value is the result edge.  Entries die with the table (GC,
  /// sifting, reset_variables), so a hit is exactly the edge recomputing
  /// would return.  The lookup returns a null handle on a miss.
  [[nodiscard]] Bdd minimize_memo_lookup(const Bdd& lower, const Bdd& upper,
                                         std::uint32_t tag);
  void minimize_memo_insert(const Bdd& lower, const Bdd& upper,
                            std::uint32_t tag, const Bdd& result);

  /// A cube of f with the fewest literals (the "largest cube"; the paper's
  /// split-vertex selection uses this, Sec. 7.4).  Requires f != 0.
  [[nodiscard]] Cube shortest_cube(const Bdd& f);

  /// One satisfying assignment over all manager variables; requires f != 0.
  [[nodiscard]] std::vector<bool> pick_minterm(const Bdd& f);

  /// BDD of a three-valued cube whose variable i maps to manager variable
  /// var_map[i] (var_map.size() == cube.num_vars()).
  [[nodiscard]] Bdd cube_bdd(const Cube& cube,
                             std::span<const std::uint32_t> var_map);
  /// BDD of an SOP cover under the same variable mapping.
  [[nodiscard]] Bdd cover_bdd(const Cover& cover,
                              std::span<const std::uint32_t> var_map);

  /// Run all minterms of f over the listed variables through `visit`
  /// (testing helper; enumerates 2^vars.size() points in the worst case).
  void foreach_minterm(const Bdd& f, std::span<const std::uint32_t> vars,
                       const std::function<void(const std::vector<bool>&)>& visit);

  /// Reclaim dead nodes (those unreachable from any live handle) and clear
  /// the computed cache (keeping its size).  Never call while external raw
  /// edges are held.
  void garbage_collect();
  /// garbage_collect() if the dead-node estimate crosses the threshold.
  /// O(1) when it declines: the trigger compares the live-node count
  /// against the incremental external-root counter (no refcount scan).
  /// Also the auto-reorder hook: with set_auto_reorder() armed, a live
  /// count past the adaptive reorder threshold triggers a sifting pass
  /// here (then the threshold doubles from the post-sift size).
  void garbage_collect_if_needed(std::size_t dead_node_threshold = 1u << 16);

  // -- dynamic variable reordering (bdd_reorder.cpp) ------------------------
  /// One pass of Rudell sifting: every variable (densest level first) is
  /// moved through the whole order by in-place adjacent-level swaps and
  /// settled at its best position; a direction is abandoned early once
  /// the live node count exceeds `max_growth` times the count at the
  /// start of that variable's sift.  External `Bdd` handles, raw edges of
  /// live nodes and reference counts all survive: a node keeps its index
  /// and its function, only its var/children fields are rewritten.  Runs
  /// a garbage_collect() first (which also empties the computed cache —
  /// the cache stays invalidated across the reorder) and frees nodes
  /// orphaned by swaps eagerly, so the sift sees true live sizes.
  /// Same caller contract as garbage_collect: no un-wrapped raw edges.
  void reorder(double max_growth = kDefaultReorderGrowth);

  /// Arm (or disarm) the GC-coupled auto-reorder trigger: once the live
  /// node count reaches `first_trigger`, garbage_collect_if_needed runs
  /// reorder(max_growth) and raises the threshold to twice the post-sift
  /// live count (never below `first_trigger`).
  void set_auto_reorder(bool enabled,
                        std::size_t first_trigger = 1u << 16,
                        double max_growth = kDefaultReorderGrowth);
  [[nodiscard]] bool auto_reorder() const noexcept { return auto_reorder_; }

  /// Current level of `var` in the order (0 = topmost).
  [[nodiscard]] std::uint32_t level_of_var(std::uint32_t var) const;
  /// Variable currently sitting at `level`.
  [[nodiscard]] std::uint32_t var_at_level(std::uint32_t level) const;
  /// The whole order, top to bottom (a copy of var_at_level).
  [[nodiscard]] std::vector<std::uint32_t> variable_order() const {
    return var_at_level_;
  }
  /// True while var == level for every variable (no effective reorder) —
  /// the fast-path guard of the transfer layer.
  [[nodiscard]] bool has_identity_order() const noexcept {
    return order_is_identity_;
  }

  /// Reclaim the whole variable block: frees every node and resets
  /// num_vars to 0 with the identity order, so a long-lived manager (a
  /// solver-pool slot) can parse each request into variables 0..w-1
  /// instead of growing its variable count forever.  Only legal when no
  /// external handle is live; returns false (and changes nothing) when
  /// external_root_count() != 0.  The computed table returns to its
  /// start size with its memory kept, so the slot's next requests regrow
  /// it without fresh page faults and never past the cap.
  bool reset_variables();

  /// Pre-seed the relative order of a freshly added trailing variable
  /// block: variable first+ranks[L] moves to level first+L for every L,
  /// where `ranks` is a permutation of 0..ranks.size()-1 covering the
  /// block [first, num_vars).  This is how a `.order` sidecar (a solved
  /// manager's known-good order, relation_io.hpp) is installed BEFORE
  /// the request's BDDs are built, so a pool slot skips re-sifting from
  /// scratch.  Requires every level of the block to be empty of nodes
  /// (the state add_vars leaves it in) — an empty-level permutation is
  /// a pure index-map rewrite, no node motion — and throws
  /// std::invalid_argument on a malformed permutation, a block not at
  /// the tail of the order, or a non-empty level.
  void seed_block_order(std::uint32_t first,
                        std::span<const std::uint32_t> ranks);

  /// Full structural validation of the node store (testing/diagnostic;
  /// O(nodes)): canonical form (then-edges regular), order (children
  /// strictly below parents by level), per-level unique-table membership
  /// and counts, refcount/external-root consistency, free-list sanity.
  /// Throws std::logic_error with a description on the first violation.
  void check_integrity() const;

  static constexpr double kDefaultReorderGrowth = 1.2;

  /// Number of nodes currently pinned by at least one external handle
  /// (maintained incrementally by ref_edge/deref_edge; the GC trigger).
  [[nodiscard]] std::size_t external_root_count() const noexcept {
    return external_roots_;
  }

  /// The hot path maintains only the per-op probe counters; the aggregate
  /// cache_lookups/cache_hits are folded on read (this accessor is cold).
  [[nodiscard]] const BddStats& stats() const noexcept {
    assert_owning_thread();  // the fold writes the mutable aggregates
    stats_.cache_lookups = 0;
    stats_.cache_hits = 0;
    stats_.cache_entries = cache_.size();
    for (std::size_t op = 0; op < kBddOpCount; ++op) {
      stats_.cache_lookups += stats_.op_lookups[op];
      stats_.cache_hits += stats_.op_hits[op];
    }
    return stats_;
  }

  // -- cross-manager transfer (bdd_transfer.cpp) ----------------------------
  /// Memoized recursive import of `src` — a BDD living in *another*
  /// manager — into this manager.  Variable indices are preserved (this
  /// manager must have at least as many variables); a same-manager import
  /// is just a handle copy.  The two managers' dynamic orders may differ
  /// (the transfer re-canonicalizes through the serialized form then).
  /// Both managers are touched, so the calling thread must own both.
  [[nodiscard]] Bdd import_bdd(const Bdd& src);
  /// Flatten `f` (a BDD of THIS manager) into the manager-independent
  /// serialized form — the safe hand-off unit between threads: plain data,
  /// no node-store access required on the receiving side until it calls
  /// deserialize_bdd on its own manager.  The serialized form is always
  /// expressed under the IDENTITY (var-index) order, whatever this
  /// manager's current order is — that is what keeps `.bdd` bodies, memo
  /// keys and cross-manager hand-offs order-independent.  Re-expressing a
  /// reordered DAG builds scratch nodes here; with the identity order it
  /// reads the DAG but walks it through the manager's traversal scratch.
  /// Either way it writes manager state: owning thread only.
  [[nodiscard]] SerializedBdd serialize_bdd(const Bdd& f);
  /// Rebuild a serialized BDD here, shifting every variable index by
  /// `var_offset` (shifts preserve the relative order, so the result stays
  /// canonical).  Throws std::invalid_argument on malformed input or
  /// variables outside this manager.
  [[nodiscard]] Bdd deserialize_bdd(const SerializedBdd& s,
                                    std::uint32_t var_offset = 0);

  // -- thread ownership -----------------------------------------------------
  /// The manager (node store, caches, statistics) is strictly single-
  /// threaded; in debug builds every mutating entry point asserts that the
  /// calling thread is the owning one.  Ownership starts with the
  /// constructing thread; transfer it explicitly at hand-off points (a
  /// parallel-engine worker binds its private manager on start, the
  /// coordinator re-binds after join to merge results).
  void bind_to_current_thread() noexcept {
#ifndef NDEBUG
    owner_thread_ = std::this_thread::get_id();
#endif
  }

  /// Graphviz dump of the DAGs rooted at `roots` (complement edges dashed).
  void write_dot(std::ostream& os, std::span<const Bdd> roots,
                 std::span<const std::string> names = {});

 private:
  friend class Bdd;

  struct Node {
    std::uint32_t var;   ///< variable index; kTerminalVar for the terminal
    detail::Edge hi;     ///< then-edge; never complemented (canonical form)
    detail::Edge lo;     ///< else-edge
    std::uint32_t next;  ///< unique-table chain (0 = end of chain)
  };

  using Op = BddOp;

  /// Packed computed-cache entry (16 bytes; the pre-overhaul layout spent
  /// 32).  The op tag and the first two operands are folded into one
  /// 64-bit word — op in bits 60..63, a in 30..59, b in 0..29 — which
  /// works because edges are capped at 30 bits (kMaxNodeIndex below).
  /// An all-ones key_ab is unreachable (op nibble 15 is not a valid tag)
  /// and doubles as the empty sentinel.
  struct CacheEntry {
    std::uint64_t key_ab = kEmptyCacheKey;  ///< op | a | b
    detail::Edge c = 0;                     ///< third operand (0 if unused)
    detail::Edge result = 0;
  };
  static_assert(sizeof(detail::Edge) == 4);
  static constexpr std::uint64_t kEmptyCacheKey = ~0ull;
  /// Node indices must fit in 29 bits so an edge (index << 1 | complement)
  /// fits the 30-bit operand fields of the packed cache key.
  static constexpr std::uint32_t kMaxNodeIndex = (1u << 29) - 1;
  /// Variable indices share the 30-bit operand fields (cofactor_rec packs
  /// var << 1 | phase as a cache operand), so they get the same cap.
  static constexpr std::uint32_t kMaxVariables = 1u << 29;
  /// Starting bucket count of a per-level unique table (doubles on
  /// load).  Sized so a typical build reaches steady state in one or two
  /// doublings per level — at 4 bytes a bucket the cost of generosity is
  /// ~1 KiB per variable, while every doubling re-buckets the whole
  /// level.
  static constexpr std::size_t kInitialSubtableBuckets = 256;
  /// Computed-table size of a fresh or reset manager (64 KiB).  Like a
  /// unique subtable it doubles on load: whenever the node store holds
  /// more nodes than the table has entries, up to the constructor's cap.
  static constexpr std::size_t kInitialCacheEntries = std::size_t{1} << 12;

  /// One computed-cache probe: the packed key words and their hash,
  /// carried from cache_lookup to the matching cache_insert so the hash
  /// is computed once per lookup/insert pair.  It holds the hash, not a
  /// slot: the recursion between the two may grow the table, so the
  /// insert masks the hash with the table's size at that moment.
  struct CacheProbe {
    std::uint64_t key_ab = 0;
    detail::Edge c = 0;
    std::uint64_t hash = 0;
  };

  // -- node store ---------------------------------------------------------
  [[nodiscard]] std::uint32_t node_var(detail::Edge e) const noexcept {
    return nodes_[detail::edge_index(e)].var;
  }
  /// Level of a variable (unchecked hot-path form of level_of_var).
  [[nodiscard]] std::uint32_t level_of(std::uint32_t var) const noexcept {
    return level_of_var_[var];
  }
  /// Level of the top variable of `e`; terminals sit below every level.
  [[nodiscard]] std::uint32_t node_level(detail::Edge e) const noexcept {
    return detail::edge_is_constant(e) ? detail::kTerminalVar
                                       : level_of_var_[node_var(e)];
  }
  /// Of two non-constant edges, the variable id whose level is higher in
  /// the order (smaller level index) — the recursion variable of the
  /// binary kernels.
  [[nodiscard]] std::uint32_t top_var(detail::Edge f,
                                      detail::Edge g) const noexcept {
    const std::uint32_t vf = node_var(f);
    const std::uint32_t vg = node_var(g);
    return level_of_var_[vf] < level_of_var_[vg] ? vf : vg;
  }
  /// Semantic then/else cofactor at the node's own variable, honouring the
  /// complement bit on `e`.
  [[nodiscard]] detail::Edge hi_of(detail::Edge e) const noexcept {
    const Node& n = nodes_[detail::edge_index(e)];
    return detail::edge_complemented(e) ? detail::edge_not(n.hi) : n.hi;
  }
  [[nodiscard]] detail::Edge lo_of(detail::Edge e) const noexcept {
    const Node& n = nodes_[detail::edge_index(e)];
    return detail::edge_complemented(e) ? detail::edge_not(n.lo) : n.lo;
  }
  /// Cofactor of `e` w.r.t. `var` assuming var <= level of e's top.
  [[nodiscard]] detail::Edge cofactor_top(detail::Edge e, std::uint32_t var,
                                          bool phase) const noexcept {
    if (detail::edge_is_constant(e) || node_var(e) != var) {
      return e;
    }
    return phase ? hi_of(e) : lo_of(e);
  }

  /// One per-level unique table: nodes of the variable currently at this
  /// level, chained through Node::next.  The table object travels with
  /// its variable during a swap (std::swap of the two SubTables), so a
  /// reorder only re-buckets the nodes it actually rewrites.
  struct SubTable {
    std::vector<std::uint32_t> buckets;  ///< 1-based node indices, 0 = empty
    std::size_t count = 0;               ///< live nodes in this table
  };

  [[nodiscard]] detail::Edge make_node(std::uint32_t var, detail::Edge hi,
                                       detail::Edge lo);
  [[nodiscard]] std::uint32_t allocate_node();
  /// Re-bucket every live node into its level's table (after GC, or a
  /// per-table doubling when `grow_level` is a valid level).
  void rebuild_subtables(std::uint32_t grow_level = detail::kTerminalVar);
  void subtable_insert(SubTable& table, std::uint32_t idx) noexcept;
  void subtable_remove(SubTable& table, std::uint32_t idx) noexcept;
  [[nodiscard]] static std::uint64_t hash_triple(std::uint64_t a,
                                                 std::uint64_t b,
                                                 std::uint64_t c) noexcept;
  [[nodiscard]] static std::uint64_t hash_key(std::uint64_t key_ab,
                                              detail::Edge c) noexcept;

  // -- computed cache ------------------------------------------------------
  /// Base slot of the 2-way set a probe hashes to in the current table.
  [[nodiscard]] std::size_t cache_slot(const CacheProbe& probe) const noexcept {
    return static_cast<std::size_t>(probe.hash & cache_mask_) << 1;
  }
  /// Empty the table and return it to its start size, keeping the
  /// vector's capacity so a regrowth touches no fresh pages.
  void cache_reset();
  /// Double the table, re-placing every entry (allocate_node's trigger).
  void cache_grow();
  /// Packed key and hash of (op, a, b, c), without probing.
  [[nodiscard]] CacheProbe cache_probe(Op op, detail::Edge a, detail::Edge b,
                                       detail::Edge c) const noexcept;
  /// Probe the 2-way set for (op, a, b, c).  On a miss, `probe` carries the
  /// packed key and slot to the matching cache_insert so the hash is
  /// computed once per lookup/insert pair.
  [[nodiscard]] bool cache_lookup(Op op, detail::Edge a, detail::Edge b,
                                  detail::Edge c, detail::Edge& out,
                                  CacheProbe& probe);
  void cache_insert(const CacheProbe& probe, detail::Edge result);

  // -- recursive kernels (raw-edge domain) ---------------------------------
  [[nodiscard]] detail::Edge ite_rec(detail::Edge f, detail::Edge g,
                                     detail::Edge h);
  [[nodiscard]] detail::Edge and_rec(detail::Edge f, detail::Edge g);
  [[nodiscard]] detail::Edge xor_rec(detail::Edge f, detail::Edge g);
  /// De-Morgan wrapper over and_rec (no cache entry of its own: OR(f,g)
  /// and AND(!f,!g) share one).
  [[nodiscard]] detail::Edge or_rec(detail::Edge f, detail::Edge g) {
    return detail::edge_not(
        and_rec(detail::edge_not(f), detail::edge_not(g)));
  }
  [[nodiscard]] detail::Edge cofactor_rec(detail::Edge f, std::uint32_t var,
                                          bool phase);
  [[nodiscard]] bool leq_rec(detail::Edge f, detail::Edge g);
  [[nodiscard]] bool leq_flipped_rec(detail::Edge f, detail::Edge g,
                                     std::uint32_t var);
  /// The one Minato-Morreale recursion (bdd_isop.cpp): kEmitCubes appends
  /// the cover to *out, the function-only form memoizes under Op::Isop.
  template <bool kEmitCubes>
  [[nodiscard]] detail::Edge isop_rec(detail::Edge l, detail::Edge u,
                                      std::vector<Cube>* out);
  /// One Shannon step of isop_rec on a non-terminal interval (its
  /// terminals and memo probe are the caller's).
  template <bool kEmitCubes>
  [[nodiscard]] detail::Edge isop_step(detail::Edge l, detail::Edge u,
                                       std::vector<Cube>* out);
  /// Validated (lower, upper) edges of isop / isop_function.
  [[nodiscard]] std::pair<detail::Edge, detail::Edge> isop_operands(
      const Bdd& lower, const Bdd& upper, const char* caller);
  // -- truth-table ISOP (bdd_isop.cpp) --
  /// |supp(l) ∪ supp(u)|, or kIsopTableVars + 1 once it is wider.  Up to
  /// kIsopTableVars it also lays out the table variables: position p
  /// holds isop_table_var_[p], the deepest level at position 0.
  [[nodiscard]] std::uint32_t isop_table_width(detail::Edge l,
                                               detail::Edge u);
  /// isop_function of a non-terminal interval laid out by
  /// isop_table_width, on truth tables over `width` variables.
  [[nodiscard]] detail::Edge isop_table(detail::Edge l, detail::Edge u,
                                        std::uint32_t width);
  // -- tables over a layout (bdd_isop.cpp) --
  /// Make vars[0..width) the layout of the conversions below.
  void bind_table_layout(const std::uint32_t* vars, std::uint32_t width);
  /// Truth table of `e` over positions 0..k-1 of the bound layout into
  /// dst; false when e depends on a variable outside them.
  [[nodiscard]] bool table_from_edge(detail::Edge e, std::uint32_t k,
                                     std::uint64_t* dst);
  /// One-word table of `e` over positions 0..k-1 (k <= 6); clears
  /// `inside` when e depends on a variable outside them.
  [[nodiscard]] std::uint64_t word_from_edge(detail::Edge e, std::uint32_t k,
                                             bool& inside);
  /// The BDD of a table over positions 0..k-1 of the bound layout.
  [[nodiscard]] detail::Edge edge_from_table(const std::uint64_t* table,
                                             std::uint32_t k);
  [[nodiscard]] detail::Edge edge_from_word(std::uint64_t word,
                                            std::uint32_t k);
  [[nodiscard]] detail::Edge exists_rec(detail::Edge f, detail::Edge cube);
  [[nodiscard]] detail::Edge and_exists_rec(detail::Edge f, detail::Edge g,
                                            detail::Edge cube);
  [[nodiscard]] detail::Edge constrain_rec(detail::Edge f, detail::Edge c);
  [[nodiscard]] detail::Edge restrict_rec(detail::Edge f, detail::Edge c);
  [[nodiscard]] detail::Edge vars_cube(std::span<const std::uint32_t> vars);

  // -- dynamic reordering internals (bdd_reorder.cpp) ----------------------
  /// reorder() body; `already_collected` skips the GC prologue when the
  /// caller (the auto trigger) just ran one with nothing in between.
  void reorder_internal(double max_growth, bool already_collected);
  /// Swap the variables at `level` and `level + 1` in place (the sifting
  /// primitive).  Interacting nodes keep their indices and functions but
  /// are rewritten to test the other variable first; nodes orphaned by
  /// the rewrite are freed eagerly through the sift refcounts.
  void swap_adjacent(std::uint32_t level);
  /// Move the variable currently holding `var` through the order and
  /// settle it at the position minimizing the live node count, giving up
  /// on a direction once live > `size_limit`.
  void sift_var(std::uint32_t var, std::size_t size_limit);
  /// Drop one sift-session reference from the node under `e`, freeing it
  /// (and cascading into its children) when the count hits zero.
  void sift_deref(detail::Edge e) noexcept;
  /// Build `interaction_` for the current sift session: variables a and b
  /// interact iff both lie in the support of some externally-referenced
  /// root function.  One DFS per root over the post-GC store.
  void build_interaction_matrix();
  /// True when `interaction_` marks (a, b) as sharing a root's support.
  /// Only meaningful while a sift session holds a built matrix.
  [[nodiscard]] bool vars_interact(std::uint32_t a,
                                   std::uint32_t b) const noexcept {
    return (interaction_[a * interaction_words_ + (b >> 6)] >> (b & 63)) &
           1u;
  }
  [[nodiscard]] std::size_t live_nodes() const noexcept {
    return nodes_.size() - 1 - free_count_;
  }

  // -- traversal scratch (bdd_analysis.cpp) ---------------------------------
  /// Call visit(idx) once per node index of the DAG under `root`,
  /// terminal included, marking through trav_map_ (cleared first).
  template <typename Visit>
  void for_each_dag_node(detail::Edge root, Visit&& visit);

  // -- handle refcounts -----------------------------------------------------
  void ref_edge(detail::Edge e) noexcept;
  void deref_edge(detail::Edge e) noexcept;
  [[nodiscard]] Bdd wrap(detail::Edge e) { return Bdd(this, e); }

  /// Debug-only check that the calling thread owns this manager (see
  /// bind_to_current_thread).  Called from the mutating hot paths —
  /// make_node, cache probes, refcounting — so a cross-thread access
  /// trips immediately instead of corrupting the node store silently.
  void assert_owning_thread() const noexcept {
#ifndef NDEBUG
    assert(owner_thread_ == std::this_thread::get_id() &&
           "BddManager accessed from a thread it is not bound to");
#endif
  }

  std::uint32_t num_vars_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> refcount_;
  std::vector<SubTable> subtables_;  ///< per-level unique tables
  /// The var <-> level indirection: nodes carry stable var ids, kernels
  /// recurse on levels.  Both arrays are permutations of [0, num_vars).
  std::vector<std::uint32_t> level_of_var_;
  std::vector<std::uint32_t> var_at_level_;
  bool order_is_identity_ = true;  ///< var == level everywhere
  std::uint32_t free_list_ = 0;    ///< head of free node chain (0 = none)
  std::size_t free_count_ = 0;
  // -- reordering state --
  bool auto_reorder_ = false;
  bool sifting_ = false;  ///< make_node maintains sift_refs_ while set
  double reorder_max_growth_ = kDefaultReorderGrowth;
  std::size_t reorder_first_threshold_ = 1u << 16;
  std::size_t reorder_threshold_ = 1u << 16;
  /// Sift-session reference counts: internal parents plus one for "has
  /// any external handle".  Only meaningful while sifting_ is true.
  std::vector<std::uint32_t> sift_refs_;
  /// Symmetric num_vars × num_vars bitmatrix (row-major, 64-bit words):
  /// bit (a, b) set iff a and b appear together in some root function's
  /// support.  Root functions are invariant under adjacent swaps and a
  /// node's variables stay inside its root's support, so a CLEAR bit
  /// proves — for the whole session — that no a-node can test b, making
  /// their swap a pure table/map flip (swap_adjacent's fast path).
  /// Built by reorder_internal, cleared when the session ends.
  std::vector<std::uint64_t> interaction_;
  std::size_t interaction_words_ = 0;  ///< words per matrix row
  // Reused work lists (a Rudell pass performs O(vars^2) swaps; per-swap
  // allocation would be pure allocator traffic in the innermost loop).
  std::vector<std::uint32_t> sift_scratch_;     ///< sift_deref death list
  std::vector<std::uint32_t> swap_interacting_; ///< pass-1 detached nodes
  std::vector<detail::Edge> swap_retired_;      ///< pass-2 deferred derefs
  std::vector<CacheEntry> cache_;
  std::uint64_t cache_mask_ = 0;  ///< (number of 2-way sets) - 1
  std::size_t cache_cap_ = 0;     ///< 2^cache_log2: the table's size limit
  /// Nodes with refcount > 0 — the GC roots.  Maintained incrementally on
  /// every 0<->1 refcount transition so garbage_collect_if_needed never
  /// rescans the table.
  std::size_t external_roots_ = 0;
  // GC scratch, reused across runs (no per-GC allocation in steady state).
  std::vector<std::uint32_t> gc_mark_;   ///< stamp per node; == gc_stamp_
  std::uint32_t gc_stamp_ = 0;           ///<   means marked in current run
  std::vector<std::uint32_t> gc_stack_;
  // Traversal scratch of size(), support(), sat_count(), shortest_cube(),
  // compose() and serialize_bdd's identity path, reused across calls so a
  // warm walk allocates nothing.  Every buffer grows with the largest DAG
  // (or the variable count) walked, never with the node store: per-node
  // arrays would cost a slot per node ever allocated in long-lived
  // managers.
  detail::StampedMap trav_map_;              ///< visited set / node memo
  std::vector<std::uint32_t> trav_stack_;    ///< DFS stack
  std::vector<std::uint64_t> trav_var_bits_; ///< support(): bit per variable
  std::vector<std::uint32_t> trav_words_;    ///< serialize_bdd node records
  // Truth-table ISOP scratch, grown to the widest table used so a warm
  // call allocates nothing: the operand, result and recursion tables,
  // and the interval's layout (its support, deepest first).
  std::vector<std::uint64_t> isop_arena_;
  std::array<std::uint32_t, kIsopTableVars> isop_table_var_{};
  /// The bound table layout: position -> variable (the caller's array)
  /// and variable -> position (meaningful only for the variables in it).
  const std::uint32_t* table_var_ = nullptr;
  std::vector<std::uint8_t> table_pos_;
  /// edge_from_word's memo, so a one-word sub-table that recurs in a
  /// rebuilt table is built once: direct-mapped word -> edge slots, valid
  /// while their stamp equals table_word_stamp_ (bumped per layout bind).
  struct WordEdge {
    std::uint64_t word = 0;
    detail::Edge edge = 0;
    std::uint32_t stamp = 0;
  };
  std::array<WordEdge, 256> table_word_edges_{};
  std::uint32_t table_word_stamp_ = 0;
  /// Per-manager statistics — including the per-op cache counters bumped
  /// on kernel hot paths — are written without synchronization, which is
  /// sound because the whole manager is single-threaded (enforced in
  /// debug builds by assert_owning_thread).  Mutable: stats() folds the
  /// per-op counters into the aggregates on read.
  mutable BddStats stats_;
#ifndef NDEBUG
  std::thread::id owner_thread_ = std::this_thread::get_id();
#endif
};

}  // namespace brel
