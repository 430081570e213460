#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "bdd/bdd.hpp"
#include "bdd/truth_table.hpp"

namespace brel {

using detail::Edge;
using detail::edge_complemented;
using detail::edge_index;
using detail::edge_is_constant;
using detail::edge_not;
using detail::kOne;
using detail::kZero;

std::pair<Edge, Edge> BddManager::isop_operands(const Bdd& lower,
                                                const Bdd& upper,
                                                const char* caller) {
  if (lower.manager() != this || upper.manager() != this) {
    throw std::invalid_argument(std::string(caller) +
                                ": operands from a different manager");
  }
  if (!leq_rec(lower.raw_edge(), upper.raw_edge())) {
    throw std::invalid_argument(std::string(caller) +
                                ": requires lower <= upper");
  }
  return {lower.raw_edge(), upper.raw_edge()};
}

IsopResult BddManager::isop(const Bdd& lower, const Bdd& upper) {
  const auto [l, u] = isop_operands(lower, upper, "isop");
  std::vector<Cube> cubes;
  const Edge f = isop_rec<true>(l, u, &cubes);
  return IsopResult{Cover(num_vars_, std::move(cubes)), wrap(f)};
}

Bdd BddManager::isop_function(const Bdd& lower, const Bdd& upper) {
  const auto [l, u] = isop_operands(lower, upper, "isop_function");
  if (l == kZero || u == kOne || l == u) {
    return wrap(isop_rec<false>(l, u, nullptr));  // a terminal
  }
  Edge result = 0;
  CacheProbe probe;
  if (cache_lookup(Op::Isop, l, u, 0, result, probe)) {
    return wrap(result);
  }
  const std::uint32_t width = isop_table_width(l, u);
  result = width <= kIsopTableVars ? isop_table(l, u, width)
                                   : isop_step<false>(l, u, nullptr);
  cache_insert(probe, result);
  return wrap(result);
}

Bdd BddManager::isop_function_recursive(const Bdd& lower, const Bdd& upper) {
  const auto [l, u] = isop_operands(lower, upper, "isop_function_recursive");
  return wrap(isop_rec<false>(l, u, nullptr));
}

/// Minato-Morreale ISOP: an irredundant sum-of-products whose function
/// lies in the interval [l, u].  The recursion partitions on the
/// interval's top variable v: minterms of l|v=0 that fall outside u|v=1
/// can only be covered by cubes carrying literal !v (dually for v), and
/// whatever remains is covered by cubes without a v literal against the
/// tightened upper bound u|v=0 ∧ u|v=1.
///
/// kEmitCubes selects the instantiation.  The cover one appends the cubes
/// to *out (the !v cubes, then the v cubes, then the v-free ones — each
/// sub-recursion's block gets its literal set in place).  The function-
/// only one returns the same edge without building a cube: the result is
/// a pure function of (l, u) under the current order, so it is memoized
/// in the computed table under BddOp::Isop, and l == u is terminal
/// because the interval then admits exactly one function.
template <bool kEmitCubes>
Edge BddManager::isop_rec(Edge l, Edge u, std::vector<Cube>* out) {
  if (l == kZero) {
    return kZero;
  }
  if (u == kOne) {
    if constexpr (kEmitCubes) {
      out->emplace_back(num_vars_);  // universal cube
    }
    return kOne;
  }
  if constexpr (kEmitCubes) {
    return isop_step<true>(l, u, out);
  } else {
    if (l == u) {
      return l;
    }
    Edge cached = 0;
    CacheProbe probe;
    if (cache_lookup(Op::Isop, l, u, 0, cached, probe)) {
      return cached;
    }
    const Edge result = isop_step<false>(l, u, nullptr);
    cache_insert(probe, result);
    return result;
  }
}

template <bool kEmitCubes>
Edge BddManager::isop_step(Edge l, Edge u, std::vector<Cube>* out) {
  // Top variable of the interval by LEVEL (l is nonzero and u is not
  // one here, but either may be the other constant).
  std::uint32_t v = detail::kTerminalVar;
  if (!edge_is_constant(l)) {
    v = node_var(l);
  }
  if (!edge_is_constant(u) &&
      (v == detail::kTerminalVar || node_level(u) < level_of(v))) {
    v = node_var(u);
  }
  const Edge l1 = cofactor_top(l, v, true);
  const Edge l0 = cofactor_top(l, v, false);
  const Edge u1 = cofactor_top(u, v, true);
  const Edge u0 = cofactor_top(u, v, false);

  // Minterms that *must* be covered with the literal !v (resp. v).
  const std::size_t first_neg = kEmitCubes ? out->size() : 0;
  const Edge f_neg = isop_rec<kEmitCubes>(and_rec(l0, edge_not(u1)), u0, out);
  const std::size_t first_pos = kEmitCubes ? out->size() : 0;
  const Edge f_pos = isop_rec<kEmitCubes>(and_rec(l1, edge_not(u0)), u1, out);
  if constexpr (kEmitCubes) {
    for (std::size_t i = first_neg; i < first_pos; ++i) {
      (*out)[i].set_lit(v, Lit::Zero);
    }
    for (std::size_t i = first_pos; i < out->size(); ++i) {
      (*out)[i].set_lit(v, Lit::One);
    }
  }

  // Whatever is still uncovered may use cubes without a v literal.
  const Edge rest = or_rec(and_rec(l0, edge_not(f_neg)),
                           and_rec(l1, edge_not(f_pos)));
  const Edge f_dc = isop_rec<kEmitCubes>(rest, and_rec(u0, u1), out);

  // f = !v·f_neg + v·f_pos + f_dc
  return or_rec(make_node(v, f_pos, f_neg), f_dc);
}

// ---------------------------------------------------------------------------
// Truth-table ISOP
//
// The same recursion on word-parallel truth tables, for intervals over at
// most kIsopTableVars variables.  Table position p is the p-th deepest
// support variable in the current order, so the top table position is the
// interval's top variable by level, exactly as in isop_step.  A table over
// k <= 6 positions is one 64-bit word, replicated above bit 2^k; a wider
// one is 2^(k-6) words whose top position selects the upper half.  The
// recursion steps down one position at a time: a position neither bound
// depends on yields f_neg = f_pos = 0 and f_dc = ISOP(l, u) in isop_step,
// so skipping it picks the same next variable isop_step would.  Every
// step therefore computes the same function, and canonicity makes the
// rebuilt BDD the same edge.
// ---------------------------------------------------------------------------

namespace tt {

namespace {

/// ISOP function of one-word tables over positions 0..k-1 (k <= 6).
std::uint64_t isop_word(std::uint64_t l, std::uint64_t u, std::uint32_t k) {
  if (l == 0) {
    return 0;
  }
  if (u == kAllOnes) {
    return kAllOnes;
  }
  if (l == u) {
    return l;
  }
  // Top position either bound depends on; one exists, since l != u rules
  // out two constants.
  std::uint32_t p = k;
  std::uint64_t l0 = 0, l1 = 0, u0 = 0, u1 = 0;
  do {
    assert(p > 0 && "isop_word: non-terminal interval without support");
    --p;
    l0 = word_cofactor0(l, p);
    l1 = word_cofactor1(l, p);
    u0 = word_cofactor0(u, p);
    u1 = word_cofactor1(u, p);
  } while (l0 == l1 && u0 == u1);
  const std::uint64_t f_neg = isop_word(l0 & ~u1, u0, p);
  const std::uint64_t f_pos = isop_word(l1 & ~u0, u1, p);
  const std::uint64_t f_dc =
      isop_word((l0 & ~f_neg) | (l1 & ~f_pos), u0 & u1, p);
  return (f_neg & ~kVarMask[p]) | (f_pos & kVarMask[p]) | f_dc;
}

}  // namespace

void isop_words(const std::uint64_t* l, const std::uint64_t* u,
                std::uint64_t* f, std::uint32_t k, std::uint64_t* scratch) {
  if (k <= 6) {
    f[0] = isop_word(l[0], u[0], k);
    return;
  }
  const std::size_t n = table_words(k);
  bool l_zero = true;
  bool u_ones = true;
  bool same = true;
  for (std::size_t i = 0; i < n; ++i) {
    l_zero = l_zero && l[i] == 0;
    u_ones = u_ones && u[i] == kAllOnes;
    same = same && l[i] == u[i];
  }
  if (l_zero || u_ones || same) {
    for (std::size_t i = 0; i < n; ++i) {
      f[i] = l_zero ? 0 : (u_ones ? kAllOnes : l[i]);
    }
    return;
  }
  const std::size_t h = n / 2;
  const std::uint64_t* l0 = l;
  const std::uint64_t* l1 = l + h;
  const std::uint64_t* u0 = u;
  const std::uint64_t* u1 = u + h;
  if (std::equal(l0, l1, l1) && std::equal(u0, u1, u1)) {
    isop_words(l0, u0, f, k - 1, scratch);
    std::copy(f, f + h, f + h);
    return;
  }
  std::uint64_t* lower = scratch;
  std::uint64_t* upper = scratch + h;
  std::uint64_t* f_dc = scratch + 2 * h;
  std::uint64_t* next = scratch + 3 * h;
  for (std::size_t i = 0; i < h; ++i) {
    lower[i] = l0[i] & ~u1[i];
  }
  isop_words(lower, u0, f, k - 1, next);  // f_neg, in the v = 0 half
  for (std::size_t i = 0; i < h; ++i) {
    lower[i] = l1[i] & ~u0[i];
  }
  isop_words(lower, u1, f + h, k - 1, next);  // f_pos, in the v = 1 half
  for (std::size_t i = 0; i < h; ++i) {
    lower[i] = (l0[i] & ~f[i]) | (l1[i] & ~f[h + i]);
    upper[i] = u0[i] & u1[i];
  }
  isop_words(lower, upper, f_dc, k - 1, next);
  for (std::size_t i = 0; i < h; ++i) {
    f[i] |= f_dc[i];
    f[h + i] |= f_dc[i];
  }
}

}  // namespace tt

using tt::kAllOnes;
using tt::kVarMask;
using tt::table_words;

std::uint32_t BddManager::isop_table_width(Edge l, Edge u) {
  assert_owning_thread();  // the walk writes the traversal scratch
  trav_map_.clear();
  trav_stack_.clear();
  trav_var_bits_.assign((std::size_t{num_vars_} + 63) / 64, 0);
  trav_stack_.push_back(edge_index(l));
  trav_stack_.push_back(edge_index(u));
  std::uint32_t width = 0;
  while (!trav_stack_.empty()) {
    const std::uint32_t idx = trav_stack_.back();
    trav_stack_.pop_back();
    if (idx == 0 || !trav_map_.insert(idx, 0)) {
      continue;
    }
    const Node& n = nodes_[idx];
    std::uint64_t& word = trav_var_bits_[n.var >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (n.var & 63);
    if ((word & bit) == 0) {
      if (width == kIsopTableVars) {
        return width + 1;
      }
      word |= bit;
      isop_table_var_[width++] = n.var;
    }
    trav_stack_.push_back(edge_index(n.hi));
    trav_stack_.push_back(edge_index(n.lo));
  }
  // Deepest level first, so the top table position is the top variable.
  const auto deeper = [this](std::uint32_t a, std::uint32_t b) {
    return level_of(a) > level_of(b);
  };
  std::sort(isop_table_var_.begin(), isop_table_var_.begin() + width, deeper);
  return width;
}

Edge BddManager::isop_table(Edge l, Edge u, std::uint32_t width) {
  // Operand, result and recursion tables: 3 + 3 tables of this width.
  const std::size_t n = table_words(width);
  if (isop_arena_.size() < 6 * n) {
    isop_arena_.resize(6 * n);
  }
  std::uint64_t* const lower = isop_arena_.data();
  std::uint64_t* const upper = lower + n;
  std::uint64_t* const f = upper + n;
  bind_table_layout(isop_table_var_.data(), width);
  // The layout is the support: neither bound can fault.
  (void)table_from_edge(l, width, lower);
  (void)table_from_edge(u, width, upper);
  tt::isop_words(lower, upper, f, width, f + n);
  return edge_from_table(f, width);
}

// ---------------------------------------------------------------------------
// Tables over an explicit layout
//
// The conversions behind isop_table and the public table_of/bdd_of_table.
// The bound layout (table_var_, and table_pos_ for the variables in it)
// stays valid until the next bind_table_layout.
// ---------------------------------------------------------------------------

bool BddManager::valid_table_layout(
    std::span<const std::uint32_t> vars) const {
  for (std::size_t p = 0; p < vars.size(); ++p) {
    if (vars[p] >= num_vars_ ||
        (p > 0 && level_of(vars[p - 1]) <= level_of(vars[p]))) {
      return false;
    }
  }
  return vars.size() <= kMaxTableVars;
}

bool BddManager::table_of(const Bdd& f, std::span<const std::uint32_t> vars,
                          std::uint64_t* dst) {
  if (f.manager() != this) {
    throw std::invalid_argument("table_of: operand from a different manager");
  }
  if (!valid_table_layout(vars)) {
    throw std::invalid_argument("table_of: not a deepest-first layout");
  }
  const auto width = static_cast<std::uint32_t>(vars.size());
  bind_table_layout(vars.data(), width);
  return table_from_edge(f.raw_edge(), width, dst);
}

Bdd BddManager::bdd_of_table(const std::uint64_t* table,
                             std::span<const std::uint32_t> vars) {
  if (!valid_table_layout(vars)) {
    throw std::invalid_argument("bdd_of_table: not a deepest-first layout");
  }
  const auto width = static_cast<std::uint32_t>(vars.size());
  if (width < 6 && tt::replicate(table[0], width) != table[0]) {
    throw std::invalid_argument("bdd_of_table: word not replicated");
  }
  bind_table_layout(vars.data(), width);
  return wrap(edge_from_table(table, width));
}

void BddManager::bind_table_layout(const std::uint32_t* vars,
                                   std::uint32_t width) {
  assert_owning_thread();  // the conversions write the traversal scratch
  table_var_ = vars;
  if (table_pos_.size() < num_vars_) {
    table_pos_.resize(num_vars_);
  }
  for (std::uint32_t p = 0; p < width; ++p) {
    table_pos_[vars[p]] = static_cast<std::uint8_t>(p);
  }
  // word_from_edge's per-node memo and edge_from_word's word memo hold
  // words of the previous layout (and edges a GC may have freed since).
  trav_map_.clear();
  if (++table_word_stamp_ == 0) {  // wrapped: forget every slot explicitly
    table_word_edges_.fill(WordEdge{});
    table_word_stamp_ = 1;
  }
}

bool BddManager::table_from_edge(Edge e, std::uint32_t k, std::uint64_t* dst) {
  if (k <= 6) {
    bool inside = true;
    dst[0] = word_from_edge(e, k, inside);
    return inside;
  }
  const std::size_t h = table_words(k) / 2;
  if (edge_is_constant(e)) {
    std::fill(dst, dst + 2 * h, e == kOne ? kAllOnes : 0);
    return true;
  }
  const std::uint32_t top = table_var_[k - 1];
  if (node_var(e) == top) {
    return table_from_edge(lo_of(e), k - 1, dst) &&
           table_from_edge(hi_of(e), k - 1, dst + h);
  }
  if (node_level(e) < level_of(top)) {
    return false;  // e depends on a variable above the layout's top
  }
  const bool inside = table_from_edge(e, k - 1, dst);
  std::copy(dst, dst + h, dst + h);
  return inside;
}

std::uint64_t BddManager::word_from_edge(Edge e, std::uint32_t k,
                                         bool& inside) {
  if (edge_is_constant(e)) {
    return e == kOne ? kAllOnes : 0;
  }
  const std::uint32_t idx = edge_index(e);
  std::uint64_t word = 0;
  if (const std::uint64_t* memo = trav_map_.find(idx)) {
    word = *memo;
  } else {
    const Node& n = nodes_[idx];
    const std::uint32_t p = table_pos_[n.var];
    if (p >= k || table_var_[p] != n.var) {
      inside = false;  // a variable outside positions 0..k-1
      return 0;
    }
    word = (kVarMask[p] & word_from_edge(n.hi, k, inside)) |
           (~kVarMask[p] & word_from_edge(n.lo, k, inside));
    trav_map_.insert(idx, word);
  }
  return edge_complemented(e) ? ~word : word;
}

Edge BddManager::edge_from_table(const std::uint64_t* table,
                                 std::uint32_t k) {
  if (k <= 6) {
    return edge_from_word(table[0], k);
  }
  const std::size_t h = table_words(k) / 2;
  const Edge lo = edge_from_table(table, k - 1);
  if (std::equal(table, table + h, table + h)) {
    return lo;
  }
  const Edge hi = edge_from_table(table + h, k - 1);
  return make_node(table_var_[k - 1], hi, lo);
}

Edge BddManager::edge_from_word(std::uint64_t word, std::uint32_t k) {
  if (word == 0 || word == kAllOnes) {
    return word == 0 ? kZero : kOne;
  }
  // The edge of a word depends only on the word under the bound layout
  // (a word is replicated over the positions it does not depend on).
  const std::size_t slot = (word * 0x9E3779B97F4A7C15ull) >> 56;
  if (table_word_edges_[slot].stamp == table_word_stamp_ &&
      table_word_edges_[slot].word == word) {
    return table_word_edges_[slot].edge;
  }
  std::uint32_t p = k;
  std::uint64_t c0 = 0, c1 = 0;
  do {
    assert(p > 0 && "edge_from_word: non-constant word without support");
    --p;
    c0 = tt::word_cofactor0(word, p);
    c1 = tt::word_cofactor1(word, p);
  } while (c0 == c1);
  const Edge hi = edge_from_word(c1, p);
  const Edge lo = edge_from_word(c0, p);
  const Edge e = make_node(table_var_[p], hi, lo);
  table_word_edges_[slot] = WordEdge{word, e, table_word_stamp_};
  return e;
}

}  // namespace brel
