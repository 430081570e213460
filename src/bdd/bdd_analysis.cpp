#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "bdd/bdd.hpp"

namespace brel {

using detail::Edge;
using detail::edge_index;
using detail::edge_is_constant;
using detail::edge_not;
using detail::edge_regular;
using detail::kOne;
using detail::kZero;

template <typename Visit>
void BddManager::for_each_dag_node(Edge root, Visit&& visit) {
  assert_owning_thread();  // the walk writes the traversal scratch
  trav_map_.clear();
  trav_stack_.clear();
  trav_stack_.push_back(edge_index(root));
  while (!trav_stack_.empty()) {
    const std::uint32_t idx = trav_stack_.back();
    trav_stack_.pop_back();
    if (!trav_map_.insert(idx, 0)) {
      continue;
    }
    visit(idx);
    if (idx != 0) {
      trav_stack_.push_back(edge_index(nodes_[idx].hi));
      trav_stack_.push_back(edge_index(nodes_[idx].lo));
    }
  }
}

std::size_t Bdd::size() const {
  if (manager_ == nullptr) {
    return 0;
  }
  manager_->for_each_dag_node(edge_, [](std::uint32_t) {});
  return manager_->trav_map_.size();
}

std::vector<std::uint32_t> Bdd::support() const {
  std::vector<std::uint32_t> vars;
  if (manager_ == nullptr) {
    return vars;
  }
  // One bit per variable: scanning the words in order yields the support
  // already sorted, and its popcount sizes the result exactly.
  BddManager& mgr = *manager_;
  std::vector<std::uint64_t>& bits = mgr.trav_var_bits_;
  bits.assign((std::size_t{mgr.num_vars_} + 63) / 64, 0);
  mgr.for_each_dag_node(edge_, [&mgr, &bits](std::uint32_t idx) {
    if (idx != 0) {
      const std::uint32_t v = mgr.nodes_[idx].var;
      bits[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
  });
  std::size_t count = 0;
  for (const std::uint64_t word : bits) {
    count += static_cast<std::size_t>(std::popcount(word));
  }
  vars.reserve(count);
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      vars.push_back(static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
    }
  }
  return vars;
}

bool Bdd::eval(const std::vector<bool>& assignment) const {
  if (manager_ == nullptr) {
    throw std::logic_error("Bdd::eval: null handle");
  }
  if (assignment.size() < manager_->num_vars()) {
    throw std::invalid_argument("Bdd::eval: assignment too short");
  }
  Edge e = edge_;
  while (!edge_is_constant(e)) {
    const std::uint32_t v = manager_->node_var(e);
    e = assignment[v] ? manager_->hi_of(e) : manager_->lo_of(e);
  }
  return e == kOne;
}

double BddManager::sat_count(const Bdd& f, std::uint32_t num_vars_total) {
  if (f.manager() != this) {
    throw std::invalid_argument("sat_count: operand from a different manager");
  }
  assert_owning_thread();  // the memo lives in the traversal scratch
  // Compute the satisfying fraction p(e) in [0,1]; every value is a dyadic
  // rational with denominator 2^depth, exact in double up to 2^-52.  The
  // memo is keyed on the regular node index and stores the double's bits.
  trav_map_.clear();
  auto rec = [this](auto&& self, Edge e) -> double {
    const bool negated = detail::edge_complemented(e);
    const std::uint32_t idx = edge_index(e);
    double p = 0.0;
    if (idx == 0) {
      p = 1.0;  // regular edge to the terminal is ONE
    } else if (const std::uint64_t* memo = trav_map_.find(idx)) {
      p = std::bit_cast<double>(*memo);
    } else {
      const Node& n = nodes_[idx];
      p = 0.5 * self(self, n.hi) + 0.5 * self(self, n.lo);
      trav_map_.insert(idx, std::bit_cast<std::uint64_t>(p));
    }
    return negated ? 1.0 - p : p;
  };
  const double fraction = rec(rec, f.raw_edge());
  double scale = 1.0;
  for (std::uint32_t i = 0; i < num_vars_total; ++i) {
    scale *= 2.0;
  }
  return fraction * scale;
}

Cube BddManager::shortest_cube(const Bdd& f) {
  if (f.manager() != this) {
    throw std::invalid_argument(
        "shortest_cube: operand from a different manager");
  }
  if (f.is_zero()) {
    throw std::invalid_argument("shortest_cube: function is empty");
  }
  // Minimum-literal implicant.  Unlike a plain BDD shortest path (which
  // must assign a literal at every node it traverses), the recursion may
  // also *skip* the top variable by descending into f|v=1 ∧ f|v=0.  The
  // paper approximates this with the BDD shortest path (Sec. 7.4); the
  // exact version below finds a genuinely largest cube, which serves the
  // same split-selection role.
  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
  assert_owning_thread();  // the memo (on edges) lives in the scratch
  trav_map_.clear();
  auto cost = [this](auto&& self, Edge e) -> std::size_t {
    if (e == kOne) {
      return 0;
    }
    if (e == kZero) {
      return kInf;
    }
    if (const std::uint64_t* memo = trav_map_.find(e)) {
      return *memo;
    }
    const Edge hi = hi_of(e);
    const Edge lo = lo_of(e);
    const std::size_t chi = self(self, hi);
    const std::size_t clo = self(self, lo);
    const std::size_t cboth = self(self, and_rec(hi, lo));
    std::size_t best = cboth;  // skipping v costs no literal
    best = std::min(best, chi == kInf ? kInf : chi + 1);
    best = std::min(best, clo == kInf ? kInf : clo + 1);
    trav_map_.insert(e, best);
    return best;
  };
  (void)cost(cost, f.raw_edge());
  // Reconstruction: at each node follow the choice that realizes the memo
  // value, preferring the literal-free descent.
  Cube cube(num_vars_);
  Edge e = f.raw_edge();
  while (e != kOne) {
    const std::uint32_t v = node_var(e);
    const Edge hi = hi_of(e);
    const Edge lo = lo_of(e);
    const Edge both = and_rec(hi, lo);
    const auto lookup = [&](Edge x) -> std::size_t {
      if (x == kOne) {
        return 0;
      }
      if (x == kZero) {
        return kInf;
      }
      const std::uint64_t* memo = trav_map_.find(x);
      if (memo == nullptr) {
        throw std::logic_error("shortest_cube: reconstruction left the memo");
      }
      return *memo;
    };
    const std::size_t goal = lookup(e);
    if (lookup(both) == goal) {
      e = both;
    } else if (lookup(hi) != kInf && lookup(hi) + 1 == goal) {
      cube.set_lit(v, Lit::One);
      e = hi;
    } else {
      cube.set_lit(v, Lit::Zero);
      e = lo;
    }
  }
  return cube;
}

std::vector<bool> BddManager::pick_minterm(const Bdd& f) {
  if (f.manager() != this) {
    throw std::invalid_argument(
        "pick_minterm: operand from a different manager");
  }
  if (f.is_zero()) {
    throw std::invalid_argument("pick_minterm: function is empty");
  }
  std::vector<bool> assignment(num_vars_, false);
  Edge e = f.raw_edge();
  while (e != kOne) {
    const std::uint32_t v = node_var(e);
    if (hi_of(e) != kZero) {
      assignment[v] = true;
      e = hi_of(e);
    } else {
      e = lo_of(e);
    }
  }
  return assignment;
}

void BddManager::foreach_minterm(
    const Bdd& f, std::span<const std::uint32_t> vars,
    const std::function<void(const std::vector<bool>&)>& visit) {
  if (f.manager() != this) {
    throw std::invalid_argument(
        "foreach_minterm: operand from a different manager");
  }
  for (std::size_t i = 1; i < vars.size(); ++i) {
    if (vars[i - 1] >= vars[i]) {
      throw std::invalid_argument(
          "foreach_minterm: vars must be strictly ascending");
    }
  }
  // The recursion peels variables top-down, so it must walk them in the
  // manager's current LEVEL order (== var order only while no reorder
  // has happened); the enumeration set and the visit assignments are
  // identical either way.
  std::vector<std::uint32_t> by_level(vars.begin(), vars.end());
  std::sort(by_level.begin(), by_level.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return level_of(a) < level_of(b);
            });
  std::vector<bool> assignment(num_vars_, false);
  auto rec = [&](auto&& self, std::size_t depth, Edge e) -> void {
    if (e == kZero) {
      return;
    }
    if (depth == by_level.size()) {
      if (!edge_is_constant(e)) {
        throw std::logic_error(
            "foreach_minterm: function depends on variables outside vars");
      }
      if (e == kOne) {
        visit(assignment);
      }
      return;
    }
    const std::uint32_t v = by_level[depth];
    if (!edge_is_constant(e) && node_level(e) < level_of(v)) {
      throw std::logic_error(
          "foreach_minterm: function depends on variables outside vars");
    }
    assignment[v] = false;
    self(self, depth + 1, cofactor_top(e, v, false));
    assignment[v] = true;
    self(self, depth + 1, cofactor_top(e, v, true));
    assignment[v] = false;
  };
  rec(rec, 0, f.raw_edge());
}

}  // namespace brel
