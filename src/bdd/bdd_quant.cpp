#include <stdexcept>

#include "bdd/bdd.hpp"

namespace brel {

using detail::Edge;
using detail::edge_is_constant;
using detail::edge_not;
using detail::kOne;
using detail::kZero;

Bdd BddManager::exists(const Bdd& f, std::span<const std::uint32_t> vars) {
  if (f.manager() != this) {
    throw std::invalid_argument("exists: operand from a different manager");
  }
  const Bdd cube = wrap(vars_cube(vars));  // keep the cube alive
  return wrap(exists_rec(f.raw_edge(), cube.raw_edge()));
}

Bdd BddManager::forall(const Bdd& f, std::span<const std::uint32_t> vars) {
  if (f.manager() != this) {
    throw std::invalid_argument("forall: operand from a different manager");
  }
  const Bdd cube = wrap(vars_cube(vars));
  // ∀v f = ¬∃v ¬f
  return wrap(edge_not(exists_rec(edge_not(f.raw_edge()), cube.raw_edge())));
}

Bdd BddManager::and_exists(const Bdd& f, const Bdd& g,
                           std::span<const std::uint32_t> vars) {
  if (f.manager() != this || g.manager() != this) {
    throw std::invalid_argument(
        "and_exists: operands from a different manager");
  }
  const Bdd cube = wrap(vars_cube(vars));
  return wrap(and_exists_rec(f.raw_edge(), g.raw_edge(), cube.raw_edge()));
}

Edge BddManager::exists_rec(Edge f, Edge cube) {
  if (edge_is_constant(f) || cube == kOne) {
    return f;
  }
  // Skip quantified variables above the top of f: they are not in supp(f).
  while (cube != kOne && node_level(cube) < node_level(f)) {
    cube = hi_of(cube);
  }
  if (cube == kOne) {
    return f;
  }
  Edge cached = 0;
  CacheProbe probe;
  if (cache_lookup(Op::Exists, f, cube, 0, cached, probe)) {
    return cached;
  }
  const std::uint32_t v = node_var(f);
  Edge result = 0;
  if (node_var(cube) == v) {
    const Edge rest = hi_of(cube);
    const Edge r1 = exists_rec(hi_of(f), rest);
    if (r1 == kOne) {
      result = kOne;
    } else {
      const Edge r0 = exists_rec(lo_of(f), rest);
      result = or_rec(r1, r0);
    }
  } else {
    result = make_node(v, exists_rec(hi_of(f), cube),
                       exists_rec(lo_of(f), cube));
  }
  cache_insert(probe, result);
  return result;
}

Edge BddManager::and_exists_rec(Edge f, Edge g, Edge cube) {
  // Relational product: ∃cube (f ∧ g) without building the conjunction.
  if (f == kZero || g == kZero) {
    return kZero;
  }
  if (f == kOne && g == kOne) {
    return kOne;
  }
  if (f == kOne) {
    return exists_rec(g, cube);
  }
  if (g == kOne) {
    return exists_rec(f, cube);
  }
  if (cube == kOne) {
    return and_rec(f, g);
  }
  const std::uint32_t v = top_var(f, g);
  while (cube != kOne && node_level(cube) < level_of(v)) {
    cube = hi_of(cube);
  }
  if (cube == kOne) {
    return and_rec(f, g);
  }
  Edge cached = 0;
  CacheProbe probe;
  if (cache_lookup(Op::AndExists, f, g, cube, cached, probe)) {
    return cached;
  }
  Edge result = 0;
  if (node_var(cube) == v) {
    const Edge rest = hi_of(cube);
    const Edge r1 =
        and_exists_rec(cofactor_top(f, v, true), cofactor_top(g, v, true),
                       rest);
    if (r1 == kOne) {
      result = kOne;
    } else {
      const Edge r0 =
          and_exists_rec(cofactor_top(f, v, false), cofactor_top(g, v, false),
                         rest);
      result = or_rec(r1, r0);
    }
  } else {
    result = make_node(
        v,
        and_exists_rec(cofactor_top(f, v, true), cofactor_top(g, v, true),
                       cube),
        and_exists_rec(cofactor_top(f, v, false), cofactor_top(g, v, false),
                       cube));
  }
  cache_insert(probe, result);
  return result;
}

Bdd BddManager::compose(const Bdd& f, std::span<const Bdd> substitution) {
  if (f.manager() != this) {
    throw std::invalid_argument("compose: operand from a different manager");
  }
  if (substitution.size() != num_vars_) {
    throw std::invalid_argument(
        "compose: substitution must cover every variable");
  }
  for (const Bdd& s : substitution) {
    if (s.manager() != this) {
      throw std::invalid_argument(
          "compose: substitution entry from a different manager");
    }
  }
  // Per-call memo on edges: the substitution vector is not a cacheable
  // key.  It lives in the manager's traversal scratch (ite_rec never
  // touches it), so a warm compose allocates no memo storage.
  assert_owning_thread();
  trav_map_.clear();
  // Keep intermediates alive: compose builds with ite over already-built
  // subresults; nothing triggers GC meanwhile (GC is explicit).
  auto rec = [&](auto&& self, Edge e) -> Edge {
    if (edge_is_constant(e)) {
      return e;
    }
    if (const std::uint64_t* memo = trav_map_.find(e)) {
      return static_cast<Edge>(*memo);
    }
    const std::uint32_t v = node_var(e);
    const Edge t = self(self, hi_of(e));
    const Edge el = self(self, lo_of(e));
    const Edge result = ite_rec(substitution[v].raw_edge(), t, el);
    trav_map_.insert(e, result);
    return result;
  };
  return wrap(rec(rec, f.raw_edge()));
}

}  // namespace brel
