#pragma once
/// \file frontier.hpp
/// The exploration frontier of the BREL search engine (Sec. 7.2).
///
/// The branch-and-bound tree of Fig. 6 is explored through an explicit
/// worklist of pending subproblems.  Making the worklist a first-class
/// object — instead of a deque baked into the solve loop — is what allows
/// the engine to swap exploration policies (and, down the road, to share a
/// frontier between workers): the paper's partial BFS, plain DFS, and a
/// best-first order driven by the MISF candidate cost all implement the
/// same three-operation interface.
///
/// All strategies are capacity-bounded: a push beyond the capacity is
/// rejected (the caller records the overflow and relies on the QuickSolver
/// safety net, Sec. 7.6).  Items *move* through the frontier — a
/// `Subproblem` owns its `BooleanRelation` and is never copied on the way
/// in or out.  A subproblem carries no cross-solve memo state: the engines
/// probe and publish the GlobalMemo at the search root only (search.hpp),
/// so interior nodes are plain (relation, depth) pairs plus the
/// manager-local cache chain, the best-first pricing and the node's own
/// quick solution.

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "relation/relation.hpp"
#include "relation/relation_table.hpp"

namespace brel {

/// Order in which pending subrelations are explored (Sec. 7.2).  The
/// paper uses partial BFS because it "enables a larger diversity in the
/// exploration" and prevents the solver from sinking all resources into
/// one corner of the tree; DFS and best-first are provided for the
/// ablation and for cost-directed searches.
enum class ExplorationOrder {
  BreadthFirst,  ///< the paper's bounded-FIFO partial BFS
  DepthFirst,    ///< LIFO: commits to one branch until it bottoms out
  BestFirst,     ///< cheapest MISF candidate first (A*-flavoured greedy)
};

/// One pending node of the branch-and-bound tree.  Owns its subrelation;
/// move-only in practice (copies would duplicate the characteristic BDD
/// handle for no reason).
struct Subproblem {
  BooleanRelation rel;
  std::size_t depth = 0;

  /// Characteristic-BDD edges of this node's chain root → ... → itself
  /// (inclusive).  Any solution discovered in this subtree is valid for
  /// every relation on the chain (Property 5.1), which is how the
  /// subproblem cache memoizes subtree results.  Left empty when no
  /// cache is active.  The edges stay pinned by the cache's keep-alive
  /// handles.
  std::vector<detail::Edge> ancestors;

  /// Ordering key for best-first frontiers: the cost of the MISF candidate
  /// computed when the subproblem was generated.  Unused (0) otherwise.
  double priority = 0.0;

  /// MISF candidate precomputed at push time by cost-directed strategies,
  /// so expansion does not minimize the same projections twice.  BFS/DFS
  /// leave it empty and the engine minimizes on pop, exactly like the
  /// original monolithic loop.
  std::optional<MultiFunction> candidate;
  double candidate_cost = 0.0;

  /// This node's quick solution (Sec. 7.6), computed when it was
  /// generated; its children's quick solves start from it
  /// (RelationTable::quick_solve_split).  Empty on a subproblem received
  /// from another worker.
  std::optional<QuickSolution> quick;

  Subproblem(BooleanRelation relation, std::size_t d)
      : rel(std::move(relation)), depth(d) {}

  Subproblem(Subproblem&&) noexcept = default;
  Subproblem& operator=(Subproblem&&) noexcept = default;
  Subproblem(const Subproblem&) = delete;
  Subproblem& operator=(const Subproblem&) = delete;
};

/// Pluggable exploration-order policy.  Implementations are single-
/// threaded, like the BDD manager underneath them.
class Frontier {
 public:
  explicit Frontier(std::size_t capacity) : capacity_(capacity) {}
  virtual ~Frontier() = default;

  Frontier(const Frontier&) = delete;
  Frontier& operator=(const Frontier&) = delete;

  /// Accept `item` unless the frontier is at capacity; returns whether the
  /// item was taken.  Rejected items are simply dropped — the caller has
  /// already quick-solved them (Sec. 7.6), so no solution is lost.
  [[nodiscard]] bool try_push(Subproblem&& item) {
    if (size() >= capacity_) {
      return false;
    }
    push(std::move(item));
    return true;
  }

  /// Accept the search root unconditionally: the root predates any
  /// capacity concern (the original loop seeded its deque the same way),
  /// so even a zero-capacity frontier explores it.
  void push_root(Subproblem&& item) { push(std::move(item)); }

  /// Remove and return the next subproblem; requires !empty().
  [[nodiscard]] virtual Subproblem pop() = 0;

  /// Remove and return the entry this strategy parts with when another
  /// worker requests work (parallel_engine.hpp); requires !empty().
  /// FIFO donates its *deepest* pending node (the back of the queue — the
  /// farthest from the victim's own BFS wavefront), best-first donates
  /// its cheapest (the node the priority order values most, so the thief
  /// inherits a promising branch), and LIFO donates its *shallowest*
  /// (the bottom of the DFS stack — the largest unexplored subtree,
  /// leaving the victim's hot path untouched).
  [[nodiscard]] virtual Subproblem steal() { return pop(); }

  /// Bulk donation: append up to `count` steal() picks to `out`, in steal
  /// order.  The default loops steal(); LIFO overrides it to slice its
  /// stack bottom with ONE range erase instead of `count` O(size) erases.
  /// Donating a batch moves already-admitted items between workers, so
  /// the depth-capped explored SET is unchanged for any batch size.
  virtual void steal_into(std::vector<Subproblem>& out, std::size_t count) {
    for (std::size_t i = 0; i < count && !empty(); ++i) {
      out.push_back(steal());
    }
  }

  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Whether this strategy orders by Subproblem::priority, i.e. wants the
  /// MISF candidate computed before push.
  [[nodiscard]] virtual bool wants_priority() const noexcept { return false; }

 protected:
  virtual void push(Subproblem&& item) = 0;

 private:
  std::size_t capacity_;
};

/// The paper's bounded FIFO (partial BFS, Sec. 7.2).
class BoundedFifoFrontier final : public Frontier {
 public:
  explicit BoundedFifoFrontier(std::size_t capacity);
  [[nodiscard]] Subproblem pop() override;
  [[nodiscard]] Subproblem steal() override;  ///< deepest: back of queue
  [[nodiscard]] std::size_t size() const noexcept override;

 protected:
  void push(Subproblem&& item) override;

 private:
  std::deque<Subproblem> queue_;
};

/// LIFO stack (depth-first): matches the original loop's push-front
/// behaviour — of two siblings pushed in order, the second is popped first.
class LifoFrontier final : public Frontier {
 public:
  explicit LifoFrontier(std::size_t capacity);
  [[nodiscard]] Subproblem pop() override;
  [[nodiscard]] Subproblem steal() override;  ///< shallowest: stack bottom
  /// Bottom `count` stack slots in one range erase (batched donation).
  void steal_into(std::vector<Subproblem>& out, std::size_t count) override;
  [[nodiscard]] std::size_t size() const noexcept override;

 protected:
  void push(Subproblem&& item) override;

 private:
  std::vector<Subproblem> stack_;
};

/// Min-heap on Subproblem::priority (the MISF candidate cost): always
/// expands the most promising pending subrelation.  Ties break FIFO so
/// runs are deterministic.
class BestFirstFrontier final : public Frontier {
 public:
  explicit BestFirstFrontier(std::size_t capacity);
  [[nodiscard]] Subproblem pop() override;
  [[nodiscard]] std::size_t size() const noexcept override;
  [[nodiscard]] bool wants_priority() const noexcept override { return true; }

 protected:
  void push(Subproblem&& item) override;

 private:
  struct Entry {
    Subproblem item;
    std::uint64_t seq;  ///< insertion order; FIFO tie-break
  };
  [[nodiscard]] static bool later(const Entry& a, const Entry& b) noexcept;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Instantiate the strategy selected by `order`.
[[nodiscard]] std::unique_ptr<Frontier> make_frontier(ExplorationOrder order,
                                                      std::size_t capacity);

}  // namespace brel
