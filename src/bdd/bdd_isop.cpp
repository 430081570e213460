#include <algorithm>
#include <stdexcept>

#include "bdd/bdd.hpp"

namespace brel {

using detail::Edge;
using detail::edge_not;
using detail::kOne;
using detail::kZero;

IsopResult BddManager::isop(const Bdd& lower, const Bdd& upper) {
  if (lower.manager() != this || upper.manager() != this) {
    throw std::invalid_argument("isop: operands from a different manager");
  }
  if (!leq_rec(lower.raw_edge(), upper.raw_edge())) {
    throw std::invalid_argument("isop: requires lower <= upper");
  }
  std::vector<Cube> cubes;
  const Edge f = isop_rec<true>(lower.raw_edge(), upper.raw_edge(), &cubes);
  return IsopResult{Cover(num_vars_, std::move(cubes)), wrap(f)};
}

Bdd BddManager::isop_function(const Bdd& lower, const Bdd& upper) {
  if (lower.manager() != this || upper.manager() != this) {
    throw std::invalid_argument(
        "isop_function: operands from a different manager");
  }
  if (!leq_rec(lower.raw_edge(), upper.raw_edge())) {
    throw std::invalid_argument("isop_function: requires lower <= upper");
  }
  return wrap(isop_rec<false>(lower.raw_edge(), upper.raw_edge(), nullptr));
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
  CacheProbe probe;
  if constexpr (!kEmitCubes) {
    if (l == u) {
      return l;
    }
    Edge cached = 0;
    if (cache_lookup(Op::Isop, l, u, 0, cached, probe)) {
      return cached;
    }
  }
  // Top variable of the interval by LEVEL (l is nonzero and u is not
  // one here, but either may be the other constant).
  std::uint32_t v = detail::kTerminalVar;
  if (!detail::edge_is_constant(l)) {
    v = node_var(l);
  }
  if (!detail::edge_is_constant(u) &&
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
  const Edge result = or_rec(make_node(v, f_pos, f_neg), f_dc);
  if constexpr (!kEmitCubes) {
    cache_insert(probe, result);
  }
  return result;
}

}  // namespace brel
