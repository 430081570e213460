/// \file bdd_reorder.cpp
/// Dynamic variable reordering: the in-place adjacent-level swap and the
/// Rudell sifting driver on top of it, plus the slot-recycling variable
/// reset and the structural validator the reorder tests lean on.
///
/// The swap is the whole trick (see DESIGN.md §reordering).  To exchange
/// the variables x (level l) and y (level l+1):
///
///   - x-nodes that do not test y anywhere in a child's top simply sink
///     to level l+1 untouched — their table object travels with them
///     (one std::swap of the two SubTables), so nothing is re-bucketed;
///   - an x-node that does test y is rewritten IN PLACE from
///       f = x ? f1 : f0            to
///       f = y ? (x ? f11 : f01) : (x ? f10 : f00)
///     keeping its node index, and therefore its function, its external
///     handles and its raw edges.  The inner x-nodes are obtained through
///     the ordinary unique table (now at level l+1), so sharing and
///     canonicity are preserved;
///   - the then-edge of a rewritten node never needs a complement flip:
///     f1 is stored regular (canonical invariant), hence f11 = hi(f1) is
///     regular, hence make_node(x, f11, f01) returns a regular edge.
///
/// Old children orphaned by a rewrite are freed eagerly through a
/// sift-session reference count (internal parents + one for "externally
/// referenced"), so the sifting driver always sees true live sizes and a
/// long sift cannot balloon the store.  The session counts are built by
/// one O(nodes) scan after the pre-sift garbage_collect() — the manager
/// deliberately does NOT maintain internal reference counts outside
/// reordering; mark-sweep GC stays the steady-state reclamation.
///
/// The computed cache is emptied by that same pre-sift GC and no kernel
/// runs while sifting, so a reorder never leaves stale cache entries
/// behind (entries would even stay *semantically* valid — every cached op
/// is a function-level identity — but constrain/restrict results are
/// order-sensitive heuristics, and re-deriving them under the new order
/// keeps runs reproducible).

#include <algorithm>
#include <stdexcept>
#include <string>

#include "bdd/bdd.hpp"

namespace brel {

using detail::Edge;
using detail::edge_complemented;
using detail::edge_index;
using detail::edge_is_constant;
using detail::kTerminalVar;

void BddManager::sift_deref(Edge e) noexcept {
  std::uint32_t idx = edge_index(e);
  if (idx == 0 || --sift_refs_[idx] != 0) {
    return;
  }
  // Death cascades strictly downward; iterative to bound stack depth.
  std::vector<std::uint32_t>& dead = sift_scratch_;
  dead.clear();
  dead.push_back(idx);
  while (!dead.empty()) {
    idx = dead.back();
    dead.pop_back();
    Node& n = nodes_[idx];
    subtable_remove(subtables_[level_of_var_[n.var]], idx);
    const auto drop_child = [&](Edge child) {
      const std::uint32_t c = edge_index(child);
      if (c != 0 && --sift_refs_[c] == 0) {
        dead.push_back(c);
      }
    };
    drop_child(n.hi);
    drop_child(n.lo);
    n.var = kTerminalVar;  // tombstone
    n.next = free_list_;
    free_list_ = idx;
    ++free_count_;
  }
}

void BddManager::swap_adjacent(std::uint32_t level) {
  const std::uint32_t x = var_at_level_[level];
  const std::uint32_t y = var_at_level_[level + 1];
  ++stats_.reorder_swaps;

  // Interaction fast path: when the session's matrix proves x and y
  // share no root function's support, no x-node can test y — every live
  // node descends from an externally-referenced root whose function
  // (and therefore support) the swaps preserve — so the bucket scan
  // below cannot find anything to rewrite.
  const bool disjoint = !interaction_.empty() && !vars_interact(x, y);
  if (disjoint) {
    ++stats_.reorder_swap_skips;
  }

  // Empty-side fast path: with no x-nodes there is nothing to rewrite,
  // and with no y-nodes nothing can interact (no child can test y), so
  // the swap is a pure table/map flip.  This keeps sifting through
  // sparse or empty levels from paying the bucket scan below — on wide
  // managers most of a variable's journey crosses such levels.
  if (disjoint || subtables_[level].count == 0 ||
      subtables_[level + 1].count == 0) {
    std::swap(subtables_[level], subtables_[level + 1]);
    var_at_level_[level] = y;
    var_at_level_[level + 1] = x;
    level_of_var_[x] = level + 1;
    level_of_var_[y] = level;
    return;
  }

  // Pass 1: unlink every x-node that interacts with y (tests it at a
  // child's top).  The rest of x's table stays linked and just sinks.
  std::vector<std::uint32_t>& interacting = swap_interacting_;
  interacting.clear();
  SubTable& x_table = subtables_[level];
  for (std::uint32_t b = 0; b < x_table.buckets.size(); ++b) {
    std::uint32_t* slot = &x_table.buckets[b];
    while (*slot != 0) {
      const std::uint32_t idx = *slot;
      Node& n = nodes_[idx];
      const bool interacts =
          (!edge_is_constant(n.hi) && node_var(n.hi) == y) ||
          (!edge_is_constant(n.lo) && node_var(n.lo) == y);
      if (interacts) {
        *slot = n.next;
        --x_table.count;
        interacting.push_back(idx);
      } else {
        slot = &n.next;
      }
    }
  }

  // Flip the order: y's whole table rises to `level`, x's remaining
  // (non-interacting) nodes sink with their table to `level + 1`.
  std::swap(subtables_[level], subtables_[level + 1]);
  var_at_level_[level] = y;
  var_at_level_[level + 1] = x;
  level_of_var_[x] = level + 1;
  level_of_var_[y] = level;

  // Pass 2: rewrite the detached nodes in place.  Old-children derefs
  // are deferred past the loop so a node freed by one rewrite can never
  // be a pending rewrite's child mid-flight.
  std::vector<Edge>& retired = swap_retired_;
  retired.clear();
  retired.reserve(interacting.size() * 2);
  for (const std::uint32_t idx : interacting) {
    // Copy the fields first: make_node below may grow nodes_.
    const Node n = nodes_[idx];
    const bool hi_tests_y = !edge_is_constant(n.hi) && node_var(n.hi) == y;
    const bool lo_tests_y = !edge_is_constant(n.lo) && node_var(n.lo) == y;
    // n.hi is regular, so its stored children ARE its cofactors; n.lo's
    // complement bit is honoured by hi_of/lo_of.
    const Edge f11 = hi_tests_y ? hi_of(n.hi) : n.hi;
    const Edge f10 = hi_tests_y ? lo_of(n.hi) : n.hi;
    const Edge f01 = lo_tests_y ? hi_of(n.lo) : n.lo;
    const Edge f00 = lo_tests_y ? lo_of(n.lo) : n.lo;
    const Edge g1 = make_node(x, f11, f01);
    const Edge g0 = make_node(x, f10, f00);
    assert(!edge_complemented(g1) &&
           "swap_adjacent: rewritten then-edge must stay regular");
    assert(g1 != g0 && "swap_adjacent: interacting node lost its variable");
    const auto take = [this](Edge e) {
      const std::uint32_t c = edge_index(e);
      if (c != 0) {
        ++sift_refs_[c];
      }
    };
    take(g1);
    take(g0);
    retired.push_back(n.hi);
    retired.push_back(n.lo);
    Node& slot = nodes_[idx];  // re-fetch: nodes_ may have reallocated
    slot.var = y;
    slot.hi = g1;
    slot.lo = g0;
    subtable_insert(subtables_[level], idx);
  }
  for (const Edge e : retired) {
    sift_deref(e);
  }
  stats_.live_nodes = live_nodes();
}

void BddManager::build_interaction_matrix() {
  interaction_words_ = (num_vars_ + 63) / 64;
  interaction_.assign(static_cast<std::size_t>(num_vars_) *
                          interaction_words_,
                      0u);
  const auto mark = [this](std::uint32_t a, std::uint32_t b) {
    interaction_[a * interaction_words_ + (b >> 6)] |= 1ull << (b & 63);
    interaction_[b * interaction_words_ + (a >> 6)] |= 1ull << (a & 63);
  };
  // One DFS per externally-referenced root, collecting its support and
  // marking every pair in it.  Shared nodes are re-walked per root (each
  // root needs its own support set); stamps make the per-root visited
  // set O(1) to reset.  Cost is O(Σ root DAG sizes) on the post-GC
  // store, once per sift session, against O(vars²) swaps saved from
  // bucket scans.
  std::vector<std::uint32_t> visited(nodes_.size(), 0u);
  std::vector<char> in_support(num_vars_, 0);
  std::vector<std::uint32_t> support;
  std::vector<std::uint32_t> stack;
  std::uint32_t stamp = 0;
  for (std::uint32_t root = 1; root < nodes_.size(); ++root) {
    if (nodes_[root].var == kTerminalVar || refcount_[root] == 0) {
      continue;
    }
    ++stamp;
    support.clear();
    stack.clear();
    stack.push_back(root);
    visited[root] = stamp;
    while (!stack.empty()) {
      const std::uint32_t idx = stack.back();
      stack.pop_back();
      const Node& n = nodes_[idx];
      if (!in_support[n.var]) {
        in_support[n.var] = 1;
        support.push_back(n.var);
      }
      const auto follow = [&](Edge e) {
        const std::uint32_t c = edge_index(e);
        if (c != 0 && visited[c] != stamp) {
          visited[c] = stamp;
          stack.push_back(c);
        }
      };
      follow(n.hi);
      follow(n.lo);
    }
    for (std::size_t p = 0; p < support.size(); ++p) {
      in_support[support[p]] = 0;
      for (std::size_t q = p + 1; q < support.size(); ++q) {
        mark(support[p], support[q]);
      }
    }
  }
}

void BddManager::sift_var(std::uint32_t var, std::size_t size_limit) {
  const std::uint32_t bottom = num_vars_ - 1;
  std::uint32_t level = level_of_var_[var];
  std::uint32_t best_level = level;
  std::size_t best_size = live_nodes();

  const auto record = [&]() {
    const std::size_t size = live_nodes();
    if (size < best_size) {
      best_size = size;
      best_level = level_of_var_[var];
    }
  };
  const auto walk_down = [&]() {
    while (level < bottom) {
      swap_adjacent(level);
      ++level;
      record();
      if (live_nodes() > size_limit) {
        break;
      }
    }
  };
  const auto walk_up = [&]() {
    while (level > 0) {
      swap_adjacent(level - 1);
      --level;
      record();
      if (live_nodes() > size_limit) {
        break;
      }
    }
  };

  // Nearer boundary first (fewer swaps wasted when the variable belongs
  // roughly where it is), then all the way to the other end, then settle
  // at the best position seen.  `level` swaps reach the top,
  // `bottom - level` the bottom.
  if (level <= bottom - level) {
    walk_up();
    walk_down();
  } else {
    walk_down();
    walk_up();
  }
  while (level < best_level) {
    swap_adjacent(level);
    ++level;
  }
  while (level > best_level) {
    swap_adjacent(level - 1);
    --level;
  }
}

void BddManager::reorder(double max_growth) {
  reorder_internal(max_growth, /*already_collected=*/false);
}

void BddManager::reorder_internal(double max_growth, bool already_collected) {
  assert_owning_thread();
  if (num_vars_ < 2) {
    return;
  }
  // Start from a clean store: only reachable nodes (the sift refcounts
  // below assume every node has a parent or an external handle), empty
  // computed cache.  The auto trigger may have collected moments ago
  // with nothing created since — skip the redundant full pass then.
  if (!already_collected) {
    garbage_collect();
  }
  const std::size_t before = live_nodes();
  stats_.reorder_nodes_before = before;

  // Sift-session reference counts: internal parents + 1 if externally
  // referenced.  Post-GC every live node scores >= 1.
  sift_refs_.assign(nodes_.size(), 0u);
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.var == kTerminalVar) {
      continue;
    }
    const auto bump = [&](Edge e) {
      const std::uint32_t c = edge_index(e);
      if (c != 0) {
        ++sift_refs_[c];
      }
    };
    bump(n.hi);
    bump(n.lo);
    if (refcount_[i] > 0) {
      ++sift_refs_[i];
    }
  }
  build_interaction_matrix();
  sifting_ = true;

  // Rudell order: densest level first; empty variables are skipped (a
  // swap with an empty side is just a map flip, but sifting a variable
  // nothing tests cannot improve anything).
  std::vector<std::uint32_t> vars;
  vars.reserve(num_vars_);
  for (std::uint32_t v = 0; v < num_vars_; ++v) {
    if (subtables_[level_of_var_[v]].count > 0) {
      vars.push_back(v);
    }
  }
  std::sort(vars.begin(), vars.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const std::size_t ca = subtables_[level_of_var_[a]].count;
              const std::size_t cb = subtables_[level_of_var_[b]].count;
              return ca != cb ? ca > cb : a < b;
            });
  for (const std::uint32_t v : vars) {
    const std::size_t start = live_nodes();
    const auto limit = static_cast<std::size_t>(
        static_cast<double>(start) * std::max(max_growth, 1.0));
    sift_var(v, std::max(limit, start + 2));
  }

  sifting_ = false;
  sift_refs_.clear();
  interaction_.clear();
  order_is_identity_ = true;
  for (std::uint32_t level = 0; level < num_vars_; ++level) {
    if (var_at_level_[level] != level) {
      order_is_identity_ = false;
      break;
    }
  }
  stats_.live_nodes = live_nodes();
  stats_.reorder_nodes_after = stats_.live_nodes;
  ++stats_.reorders;
}

bool BddManager::reset_variables() {
  assert_owning_thread();
  if (external_roots_ != 0) {
    return false;  // live handles pin their variables' meaning
  }
  // Nothing is referenced: drop every node (capacity retained), every
  // variable and the whole order in one stroke.
  nodes_.resize(1);
  refcount_.resize(1);
  free_list_ = 0;
  free_count_ = 0;
  num_vars_ = 0;
  subtables_.clear();
  level_of_var_.clear();
  var_at_level_.clear();
  order_is_identity_ = true;
  reorder_threshold_ = reorder_first_threshold_;
  cache_reset();
  gc_mark_.clear();
  stats_.live_nodes = 0;
  return true;
}

void BddManager::seed_block_order(std::uint32_t first,
                                  std::span<const std::uint32_t> ranks) {
  assert_owning_thread();
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("seed_block_order: ") + what);
  };
  if (first > num_vars_ || ranks.size() != num_vars_ - first) {
    fail("block does not cover the trailing variables");
  }
  const std::uint32_t count = static_cast<std::uint32_t>(ranks.size());
  std::vector<bool> seen(count, false);
  for (const std::uint32_t r : ranks) {
    if (r >= count || seen[r]) {
      fail("ranks are not a permutation of the block");
    }
    seen[r] = true;
  }
  // The block must sit at the tail of the order in identity relative
  // order with every level empty — exactly what add_vars leaves behind.
  // Then moving variable first+ranks[L] to level first+L is a pure
  // rewrite of the two inverse index maps: with no nodes at any touched
  // level there is nothing to re-hash or re-order.
  for (std::uint32_t l = 0; l < count; ++l) {
    if (var_at_level_[first + l] != first + l) {
      fail("block is not at the tail of the order");
    }
    if (subtables_[first + l].count != 0) {
      fail("a level of the block already holds nodes");
    }
  }
  for (std::uint32_t l = 0; l < count; ++l) {
    const std::uint32_t v = first + ranks[l];
    var_at_level_[first + l] = v;
    level_of_var_[v] = first + l;
  }
  order_is_identity_ = true;
  for (std::uint32_t level = 0; level < num_vars_; ++level) {
    if (var_at_level_[level] != level) {
      order_is_identity_ = false;
      break;
    }
  }
}

void BddManager::check_integrity() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("BddManager::check_integrity: " + what);
  };
  if (level_of_var_.size() != num_vars_ || var_at_level_.size() != num_vars_ ||
      subtables_.size() != num_vars_) {
    fail("order/table arrays out of sync with num_vars");
  }
  for (std::uint32_t level = 0; level < num_vars_; ++level) {
    if (level_of_var_[var_at_level_[level]] != level) {
      fail("level_of_var / var_at_level are not inverse permutations");
    }
  }
  // Every live node: canonical, ordered, in exactly its level's table.
  std::size_t live = 0;
  std::size_t externally_referenced = 0;
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.var == kTerminalVar) {
      if (refcount_[i] != 0) {
        fail("freed node with a nonzero refcount");
      }
      continue;
    }
    ++live;
    if (refcount_[i] > 0) {
      ++externally_referenced;
    }
    if (n.var >= num_vars_) {
      fail("node variable out of range");
    }
    if (edge_complemented(n.hi)) {
      fail("complemented then-edge (canonical form violated)");
    }
    if (n.hi == n.lo) {
      fail("redundant node (hi == lo)");
    }
    const std::uint32_t parent_level = level_of_var_[n.var];
    if (node_level(n.hi) <= parent_level || node_level(n.lo) <= parent_level) {
      fail("child level not strictly below its parent");
    }
    const auto live_child = [&](Edge e) {
      return edge_index(e) == 0 ||
             nodes_[edge_index(e)].var != kTerminalVar;
    };
    if (!live_child(n.hi) || !live_child(n.lo)) {
      fail("live node references a freed child");
    }
  }
  if (live != live_nodes()) {
    fail("free_count does not match the tombstone population");
  }
  if (externally_referenced != external_roots_) {
    fail("external_roots_ drifted from the refcount array");
  }
  // Unique-table membership: each live node appears exactly once, in the
  // bucket its (var, hi, lo) hashes to, in its level's table.
  std::vector<bool> seen(nodes_.size(), false);
  std::size_t chained = 0;
  for (std::uint32_t level = 0; level < num_vars_; ++level) {
    const SubTable& table = subtables_[level];
    std::size_t count = 0;
    for (std::uint32_t b = 0; b < table.buckets.size(); ++b) {
      for (std::uint32_t i = table.buckets[b]; i != 0; i = nodes_[i].next) {
        const Node& n = nodes_[i];
        if (seen[i]) {
          fail("node linked twice in the unique tables");
        }
        seen[i] = true;
        ++count;
        ++chained;
        if (n.var == kTerminalVar) {
          fail("freed node still chained in a unique table");
        }
        if (level_of_var_[n.var] != level) {
          fail("node chained in the wrong level's table");
        }
        if ((hash_triple(n.var, n.hi, n.lo) & (table.buckets.size() - 1)) !=
            b) {
          fail("node chained in the wrong bucket");
        }
      }
    }
    if (count != table.count) {
      fail("subtable count drifted from its chains");
    }
  }
  if (chained != live) {
    fail("a live node is missing from the unique tables");
  }
  // Canonicity: no two live nodes share (var, hi, lo).  Sorting the
  // exact triples keeps this O(n log n) instead of per-bucket quadratic.
  std::vector<std::array<std::uint32_t, 3>> triples;
  triples.reserve(live);
  for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.var != kTerminalVar) {
      triples.push_back({n.var, n.hi, n.lo});
    }
  }
  std::sort(triples.begin(), triples.end());
  if (std::adjacent_find(triples.begin(), triples.end()) != triples.end()) {
    fail("duplicate (var, hi, lo) triple (canonicity violated)");
  }
}

}  // namespace brel
