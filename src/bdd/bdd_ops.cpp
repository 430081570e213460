#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bdd/bdd.hpp"

namespace brel {

using detail::Edge;
using detail::edge_complemented;
using detail::edge_is_constant;
using detail::edge_not;
using detail::edge_regular;
using detail::kOne;
using detail::kZero;

Bdd BddManager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  if (f.manager() != this || g.manager() != this || h.manager() != this) {
    throw std::invalid_argument("ite: operands from a different manager");
  }
  return wrap(ite_rec(f.raw_edge(), g.raw_edge(), h.raw_edge()));
}

Bdd BddManager::bdd_and(const Bdd& f, const Bdd& g) {
  if (f.manager() != this || g.manager() != this) {
    throw std::invalid_argument("bdd_and: operands from a different manager");
  }
  return wrap(and_rec(f.raw_edge(), g.raw_edge()));
}

Bdd BddManager::bdd_or(const Bdd& f, const Bdd& g) {
  if (f.manager() != this || g.manager() != this) {
    throw std::invalid_argument("bdd_or: operands from a different manager");
  }
  return wrap(or_rec(f.raw_edge(), g.raw_edge()));
}

Bdd BddManager::bdd_xor(const Bdd& f, const Bdd& g) {
  if (f.manager() != this || g.manager() != this) {
    throw std::invalid_argument("bdd_xor: operands from a different manager");
  }
  return wrap(xor_rec(f.raw_edge(), g.raw_edge()));
}

Bdd BddManager::bdd_not(const Bdd& f) {
  if (f.manager() != this) {
    throw std::invalid_argument("bdd_not: operand from a different manager");
  }
  return wrap(edge_not(f.raw_edge()));
}

bool BddManager::leq(const Bdd& f, const Bdd& g) {
  if (f.manager() != this || g.manager() != this) {
    throw std::invalid_argument("leq: operands from a different manager");
  }
  return leq_rec(f.raw_edge(), g.raw_edge());
}

bool BddManager::leq_flipped(const Bdd& f, const Bdd& g, std::uint32_t var) {
  if (f.manager() != this || g.manager() != this) {
    throw std::invalid_argument(
        "leq_flipped: operands from a different manager");
  }
  if (var >= num_vars_) {
    throw std::out_of_range("leq_flipped: unknown variable");
  }
  return leq_flipped_rec(f.raw_edge(), g.raw_edge(), var);
}

Bdd BddManager::cofactor(const Bdd& f, std::uint32_t var, bool phase) {
  if (f.manager() != this) {
    throw std::invalid_argument("cofactor: operand from a different manager");
  }
  if (var >= num_vars_) {
    throw std::out_of_range("cofactor: unknown variable");
  }
  return wrap(cofactor_rec(f.raw_edge(), var, phase));
}

namespace {

/// Balanced pairwise reduction: combine neighbours until one remains.
/// Keeps intermediate results near sqrt-size instead of the accumulated
/// prefix a left fold builds, which is what makes wide conjunctions cheap.
template <typename Combine>
Bdd balanced_reduce(std::vector<Bdd> layer, Combine&& combine) {
  while (layer.size() > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      layer[out++] = combine(layer[i], layer[i + 1]);
    }
    if (layer.size() % 2 != 0) {
      layer[out++] = std::move(layer.back());
    }
    layer.resize(out);
  }
  return std::move(layer.front());
}

}  // namespace

Bdd BddManager::big_and(std::span<const Bdd> fs) {
  if (fs.empty()) {
    return one();
  }
  return balanced_reduce(
      std::vector<Bdd>(fs.begin(), fs.end()),
      [this](const Bdd& a, const Bdd& b) { return bdd_and(a, b); });
}

Bdd BddManager::big_or(std::span<const Bdd> fs) {
  if (fs.empty()) {
    return zero();
  }
  return balanced_reduce(
      std::vector<Bdd>(fs.begin(), fs.end()),
      [this](const Bdd& a, const Bdd& b) { return bdd_or(a, b); });
}

Edge BddManager::and_rec(Edge f, Edge g) {
  // Terminal cases.
  if (f == g) {
    return f;
  }
  if (f == kZero || g == kZero || f == edge_not(g)) {
    return kZero;
  }
  if (f == kOne) {
    return g;
  }
  if (g == kOne) {
    return f;
  }
  // Commutative normalization: AND(f,g) == AND(g,f) must occupy a single
  // cache entry, so order the operands by edge value.  (Routing AND
  // through ite_rec kept the triples (f,g,0) and (g,f,0) distinct.)
  if (f > g) {
    std::swap(f, g);
  }
  Edge cached = 0;
  CacheProbe probe;
  if (cache_lookup(Op::And, f, g, 0, cached, probe)) {
    return cached;
  }
  const std::uint32_t v = top_var(f, g);
  const Edge t = and_rec(cofactor_top(f, v, true), cofactor_top(g, v, true));
  const Edge e = and_rec(cofactor_top(f, v, false), cofactor_top(g, v, false));
  const Edge result = make_node(v, t, e);
  cache_insert(probe, result);
  return result;
}

Edge BddManager::xor_rec(Edge f, Edge g) {
  // Terminal cases.
  if (f == g) {
    return kZero;
  }
  if (f == edge_not(g)) {
    return kOne;
  }
  if (f == kZero) {
    return g;
  }
  if (g == kZero) {
    return f;
  }
  if (f == kOne) {
    return edge_not(g);
  }
  if (g == kOne) {
    return edge_not(f);
  }
  // XOR absorbs complements — XOR(!f,g) == !XOR(f,g) — so strip both
  // attributes and track the parity, then normalize the commutative pair.
  const bool negate_result = edge_complemented(f) != edge_complemented(g);
  f = edge_regular(f);
  g = edge_regular(g);
  if (f > g) {
    std::swap(f, g);
  }
  Edge cached = 0;
  CacheProbe probe;
  if (cache_lookup(Op::Xor, f, g, 0, cached, probe)) {
    return negate_result ? edge_not(cached) : cached;
  }
  const std::uint32_t v = top_var(f, g);
  const Edge t = xor_rec(cofactor_top(f, v, true), cofactor_top(g, v, true));
  const Edge e = xor_rec(cofactor_top(f, v, false), cofactor_top(g, v, false));
  const Edge result = make_node(v, t, e);
  cache_insert(probe, result);
  return negate_result ? edge_not(result) : result;
}

Edge BddManager::cofactor_rec(Edge f, std::uint32_t var, bool phase) {
  if (edge_is_constant(f)) {
    return f;
  }
  const std::uint32_t v = node_var(f);
  if (level_of(v) > level_of(var)) {
    return f;  // ordered: var cannot appear below a deeper top level
  }
  if (v == var) {
    return phase ? hi_of(f) : lo_of(f);
  }
  // cof(!f) == !cof(f): cache only the regular edge.
  const bool negate_result = edge_complemented(f);
  const Edge fr = edge_regular(f);
  Edge cached = 0;
  CacheProbe probe;
  if (cache_lookup(Op::Cofactor, fr, (var << 1) | (phase ? 1u : 0u), 0,
                   cached, probe)) {
    return negate_result ? edge_not(cached) : cached;
  }
  const Edge t = cofactor_rec(hi_of(fr), var, phase);
  const Edge e = cofactor_rec(lo_of(fr), var, phase);
  const Edge result = make_node(v, t, e);
  cache_insert(probe, result);
  return negate_result ? edge_not(result) : result;
}

bool BddManager::leq_rec(Edge f, Edge g) {
  // f <= g  <=>  f & !g == 0, but decided without building that BDD: the
  // recursion returns false the moment any branch exhibits a witness.
  if (f == g || f == kZero || g == kOne) {
    return true;
  }
  if (g == kZero || f == kOne || f == edge_not(g)) {
    return false;  // f != 0 and g != 1 here, so each case has a witness
  }
  Edge cached = 0;
  CacheProbe probe;
  if (cache_lookup(Op::Leq, f, g, 0, cached, probe)) {
    return cached == kOne;
  }
  const std::uint32_t v = top_var(f, g);
  const bool result =
      leq_rec(cofactor_top(f, v, true), cofactor_top(g, v, true)) &&
      leq_rec(cofactor_top(f, v, false), cofactor_top(g, v, false));
  cache_insert(probe, result ? kOne : kZero);
  return result;
}

bool BddManager::leq_flipped_rec(Edge f, Edge g, std::uint32_t var) {
  // f <= g[var := !var], decided like leq_rec without building anything:
  // above var's level both sides split on the same variable; at var's
  // level the flip pairs f|var=1 with g|var=0 and f|var=0 with g|var=1;
  // below it g[var := !var] is g itself.
  if (f == kZero || g == kOne) {
    return true;
  }
  if (g == kZero || f == kOne) {
    return false;  // f != 0 and g != 1 here, so each case has a witness
  }
  const std::uint32_t v = top_var(f, g);
  if (level_of(v) > level_of(var)) {
    return leq_rec(f, g);
  }
  // var + 1 in the third operand: plain leq entries carry 0 there.
  Edge cached = 0;
  CacheProbe probe;
  if (cache_lookup(Op::Leq, f, g, var + 1, cached, probe)) {
    return cached == kOne;
  }
  bool result = false;
  if (v == var) {
    result = leq_rec(cofactor_top(f, v, true), cofactor_top(g, v, false)) &&
             leq_rec(cofactor_top(f, v, false), cofactor_top(g, v, true));
  } else {
    result = leq_flipped_rec(cofactor_top(f, v, true),
                             cofactor_top(g, v, true), var) &&
             leq_flipped_rec(cofactor_top(f, v, false),
                             cofactor_top(g, v, false), var);
  }
  cache_insert(probe, result ? kOne : kZero);
  return result;
}

Edge BddManager::ite_rec(Edge f, Edge g, Edge h) {
  // Terminal cases.
  if (f == kOne) {
    return g;
  }
  if (f == kZero) {
    return h;
  }
  if (g == h) {
    return g;
  }
  if (g == kOne && h == kZero) {
    return f;
  }
  if (g == kZero && h == kOne) {
    return edge_not(f);
  }
  // Substitutions that shrink the problem: ite(f, f, h) = ite(f, 1, h), etc.
  if (f == g) {
    g = kOne;
  } else if (f == edge_not(g)) {
    g = kZero;
  }
  if (f == h) {
    h = kZero;
  } else if (f == edge_not(h)) {
    h = kOne;
  }
  if (g == h) {
    return g;
  }
  if (g == kOne && h == kZero) {
    return f;
  }
  if (g == kZero && h == kOne) {
    return edge_not(f);
  }
  // Binary shapes route to the dedicated kernels (better normalization,
  // their own cache op tags): ite(f,g,0)=AND, ite(f,1,h)=OR, ite(f,!g,g)=XOR.
  if (h == kZero) {
    return and_rec(f, g);
  }
  if (g == kZero) {
    return and_rec(edge_not(f), h);
  }
  if (g == kOne) {
    return or_rec(f, h);
  }
  if (h == kOne) {
    return or_rec(edge_not(f), g);
  }
  if (g == edge_not(h)) {
    return xor_rec(f, h);
  }
  // Canonicalize for the cache: f and g carry no complement attribute.
  if (edge_complemented(f)) {
    f = edge_not(f);
    std::swap(g, h);
  }
  bool negate_result = false;
  if (edge_complemented(g)) {
    g = edge_not(g);
    h = edge_not(h);
    negate_result = true;
  }
  Edge cached = 0;
  CacheProbe probe;
  if (cache_lookup(Op::Ite, f, g, h, cached, probe)) {
    return negate_result ? edge_not(cached) : cached;
  }
  // Recurse on the top (highest-level) variable of the three operands.
  std::uint32_t v = node_var(f);
  if (!edge_is_constant(g)) {
    v = top_var(f, g);
  }
  if (!edge_is_constant(h) && node_level(h) < level_of(v)) {
    v = node_var(h);
  }
  const Edge t = ite_rec(cofactor_top(f, v, true), cofactor_top(g, v, true),
                         cofactor_top(h, v, true));
  const Edge e = ite_rec(cofactor_top(f, v, false), cofactor_top(g, v, false),
                         cofactor_top(h, v, false));
  const Edge result = make_node(v, t, e);
  cache_insert(probe, result);
  return negate_result ? edge_not(result) : result;
}

}  // namespace brel
