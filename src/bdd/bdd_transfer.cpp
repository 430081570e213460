/// \file bdd_transfer.cpp
/// Cross-manager transfer: memoized export/import plus the serialized
/// manager-independent form (see bdd_transfer.hpp for the two paths and
/// their threading contracts).

#include "bdd/bdd_transfer.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace brel {

using detail::Edge;
using detail::edge_complemented;
using detail::edge_index;
using detail::edge_not;
using detail::kOne;
using detail::kZero;

// ---------------------------------------------------------------------------
// Serialization (reads only the source manager)
// ---------------------------------------------------------------------------

SerializedBdd BddManager::serialize_bdd(const Bdd& f) {
  if (f.manager() != this) {
    throw std::invalid_argument("serialize_bdd: foreign or null handle");
  }
  SerializedBdd out;
  if (detail::edge_is_constant(f.raw_edge())) {
    out.root = f.raw_edge();  // kOne/kZero use the same encoding
    return out;
  }
  assert_owning_thread();  // both paths write manager scratch
  if (order_is_identity_) {
    // Fast path: with var == level the in-store DAG *is* the canonical
    // var-ordered form.  Child-before-parent ids via an explicit
    // post-order walk over node indices (complement bits live on edges,
    // not nodes, so each node is visited once regardless of how it is
    // referenced).  The walk runs on the traversal scratch — trav_map_
    // maps node idx -> id, trav_words_ collects (var, hi, lo) records —
    // so the only allocation is the result's node list, sized exactly.
    detail::StampedMap& id = trav_map_;
    std::vector<std::uint32_t>& stack = trav_stack_;
    std::vector<std::uint32_t>& records = trav_words_;
    id.clear();
    stack.clear();
    records.clear();
    id.insert(0u, 0u);  // the ONE terminal
    stack.push_back(edge_index(f.raw_edge()));
    const auto serialized_edge = [](Edge e, std::uint64_t child_id) {
      return static_cast<std::uint32_t>(child_id << 1) |
             (edge_complemented(e) ? 1u : 0u);
    };
    while (!stack.empty()) {
      const std::uint32_t idx = stack.back();
      if (id.find(idx) != nullptr) {
        stack.pop_back();
        continue;
      }
      const Node& n = nodes_[idx];
      const std::uint64_t* hi_id = id.find(edge_index(n.hi));
      const std::uint64_t* lo_id = id.find(edge_index(n.lo));
      if (hi_id != nullptr && lo_id != nullptr) {
        records.push_back(n.var);
        records.push_back(serialized_edge(n.hi, *hi_id));
        records.push_back(serialized_edge(n.lo, *lo_id));
        stack.pop_back();
        id.insert(idx, records.size() / 3);
        if (n.var + 1 > out.num_vars) {
          out.num_vars = n.var + 1;
        }
        continue;
      }
      if (hi_id == nullptr) {
        stack.push_back(edge_index(n.hi));
      }
      if (lo_id == nullptr) {
        stack.push_back(edge_index(n.lo));
      }
    }
    out.nodes.resize(records.size() / 3);
    for (std::size_t k = 0; k < out.nodes.size(); ++k) {
      out.nodes[k] = SerializedBdd::Node{records[3 * k], records[3 * k + 1],
                                         records[3 * k + 2]};
    }
    out.root = serialized_edge(f.raw_edge(),
                               *id.find(edge_index(f.raw_edge())));
    return out;
  }

  // Reordered manager: re-express the function under the IDENTITY order
  // so the serialized form — and everything keyed on it (memo keys, .bdd
  // bodies, injection-queue payloads) — is independent of this manager's
  // current order.  The recursion peels the smallest support *variable
  // id* (the top variable of the var-ordered BDD) with the ordinary
  // cofactor kernel and assigns ids in the same lo-subtree-first
  // post-order as the fast path, so managers in different orders emit
  // byte-identical node lists for equal functions.  Scratch nodes are
  // built here (the cofactor cones); they die with the next GC.
  std::unordered_map<std::uint32_t, std::uint32_t> min_var;  // regular idx
  auto min_support_var = [&](auto&& self, Edge e) -> std::uint32_t {
    const std::uint32_t idx = edge_index(e);
    if (idx == 0) {
      return detail::kTerminalVar;  // no support
    }
    if (const auto it = min_var.find(idx); it != min_var.end()) {
      return it->second;
    }
    // Copy the fields: nothing allocates inside, but keep the pattern
    // uniform with the canon recursion below.
    const Node n = nodes_[idx];
    std::uint32_t v = n.var;
    v = std::min(v, self(self, n.hi));
    v = std::min(v, self(self, n.lo));
    min_var.emplace(idx, v);
    return v;
  };
  std::unordered_map<Edge, std::uint32_t> id;  // regular edge -> ser. edge
  auto canon = [&](auto&& self, Edge e) -> std::uint32_t {
    const bool comp = edge_complemented(e);
    const Edge er = detail::edge_regular(e);
    std::uint32_t serialized;
    if (er == kOne) {
      serialized = 0;
    } else if (const auto it = id.find(er); it != id.end()) {
      serialized = it->second;
    } else {
      const std::uint32_t v = min_support_var(min_support_var, er);
      const Edge e0 = cofactor_rec(er, v, false);
      const Edge e1 = cofactor_rec(er, v, true);
      const std::uint32_t s0 = self(self, e0);  // lo first: id parity with
      const std::uint32_t s1 = self(self, e1);  // the fast path's walk
      std::uint32_t hi = s1;
      std::uint32_t lo = s0;
      const bool flip = (hi & 1u) != 0;  // canonical: hi stays regular
      if (flip) {
        hi ^= 1u;
        lo ^= 1u;
      }
      out.nodes.push_back(SerializedBdd::Node{v, hi, lo});
      if (v + 1 > out.num_vars) {
        out.num_vars = v + 1;
      }
      serialized = (static_cast<std::uint32_t>(out.nodes.size()) << 1) |
                   (flip ? 1u : 0u);
      id.emplace(er, serialized);
    }
    return comp ? (serialized ^ 1u) : serialized;
  };
  out.root = canon(canon, f.raw_edge());
  return out;
}

// ---------------------------------------------------------------------------
// Deserialization (writes only the destination manager)
// ---------------------------------------------------------------------------

Bdd BddManager::deserialize_bdd(const SerializedBdd& s,
                                std::uint32_t var_offset) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("deserialize_bdd: ") + what);
  };
  // One forward pass: every child id must already be materialized, and a
  // child's variable must sit strictly below its parent's in the order,
  // so malformed input cannot smuggle an unordered DAG into the store.
  std::vector<Edge> built(s.nodes.size() + 1);
  std::vector<std::uint32_t> level(s.nodes.size() + 1, detail::kTerminalVar);
  built[0] = kOne;
  for (std::size_t k = 0; k < s.nodes.size(); ++k) {
    const SerializedBdd::Node& n = s.nodes[k];
    if (n.var >= num_vars_ || var_offset > num_vars_ - 1 - n.var) {
      fail("variable outside the destination manager");
    }
    const auto child = [&](std::uint32_t e) {
      const std::uint32_t idx = e >> 1;
      if (idx > k) {
        fail("child id not smaller than parent id");
      }
      if (level[idx] != detail::kTerminalVar && level[idx] <= n.var) {
        fail("child variable not below parent in the order");
      }
      return (e & 1u) != 0 ? edge_not(built[idx]) : built[idx];
    };
    const Edge hi = child(n.hi);
    const Edge lo = child(n.lo);
    if (order_is_identity_) {
      // The serialized form is var-ordered and so is this manager: the
      // node list rebuilds by direct unique-table insertion.
      built[k + 1] = make_node(n.var + var_offset, hi, lo);
    } else {
      // Reordered destination: the incoming var-ordered parent/child
      // pairs need not respect this manager's level order, so rebuild
      // through the ITE kernel, which re-canonicalizes under it.
      const Edge var_edge = make_node(n.var + var_offset, kOne, kZero);
      built[k + 1] = ite_rec(var_edge, hi, lo);
    }
    level[k + 1] = n.var;
  }
  const std::uint32_t root_idx = s.root >> 1;
  if (root_idx >= built.size()) {
    fail("root references an unknown node");
  }
  const Edge root = (s.root & 1u) != 0 ? edge_not(built[root_idx])
                                       : built[root_idx];
  return wrap(root);
}

// ---------------------------------------------------------------------------
// Direct memoized import (calling thread must own both managers)
// ---------------------------------------------------------------------------

Bdd BddManager::import_bdd(const Bdd& src) {
  BddManager* from = src.manager();
  if (from == nullptr) {
    throw std::invalid_argument("import_bdd: null handle");
  }
  if (from == this) {
    return src;
  }
  if (!order_is_identity_ || !from->order_is_identity_) {
    // Orders may disagree, so a verbatim node copy is not canonical here;
    // route through the serialized form, which both sides express (and
    // rebuild) order-independently.
    return deserialize_bdd(from->serialize_bdd(src));
  }
  // Memo on source node index -> destination edge of the node's regular
  // (uncomplemented) function; complement bits transfer on the edges.
  std::unordered_map<std::uint32_t, Edge> memo;
  memo.emplace(0u, kOne);
  const auto import_node = [&](auto&& self, std::uint32_t idx) -> Edge {
    if (const auto it = memo.find(idx); it != memo.end()) {
      return it->second;
    }
    const Node& n = from->nodes_[idx];
    if (n.var >= num_vars_) {
      throw std::invalid_argument(
          "import_bdd: source variable outside the destination manager");
    }
    const auto import_edge = [&](Edge e) {
      const Edge t = self(self, edge_index(e));
      return edge_complemented(e) ? edge_not(t) : t;
    };
    const Edge hi = import_edge(n.hi);
    const Edge lo = import_edge(n.lo);
    const Edge result = make_node(n.var, hi, lo);
    memo.emplace(idx, result);
    return result;
  };
  const Edge root_regular =
      import_node(import_node, edge_index(src.raw_edge()));
  return wrap(edge_complemented(src.raw_edge()) ? edge_not(root_regular)
                                                : root_regular);
}

// ---------------------------------------------------------------------------
// Free wrappers and the text form
// ---------------------------------------------------------------------------

SerializedBdd serialize_bdd(const Bdd& f) {
  if (f.manager() == nullptr) {
    throw std::invalid_argument("serialize_bdd: null handle");
  }
  return f.manager()->serialize_bdd(f);
}

Bdd deserialize_bdd(BddManager& dst, const SerializedBdd& s,
                    std::uint32_t var_offset) {
  return dst.deserialize_bdd(s, var_offset);
}

Bdd transfer_bdd(const Bdd& f, BddManager& dst) { return dst.import_bdd(f); }

void write_serialized_bdd(std::ostream& os, const SerializedBdd& s) {
  for (const SerializedBdd::Node& n : s.nodes) {
    os << n.var << ' ' << n.hi << ' ' << n.lo << '\n';
  }
  os << ".root " << s.root << '\n';
}

SerializedBdd read_serialized_bdd(std::istream& in, std::size_t node_count) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("read_serialized_bdd: ") + what);
  };
  // Streams parse negative text into unsigned fields by modular wrap
  // (never a failbit), so "-1" would silently become 4294967295; reject
  // the sign explicitly to keep every malformed body a loud error.
  const auto reject_negatives = [&](const std::string& line) {
    if (line.find('-') != std::string::npos) {
      fail("negative field (all fields are unsigned)");
    }
  };
  // Bound every parsed variable index well below the uint32 ceiling:
  // `var + 1` computes num_vars, and an attacker-controlled 0xFFFFFFFF
  // would wrap that sum to 0, slipping a bogus rank past the caller's
  // range checks.  2^24 variables is far beyond any real relation.
  constexpr std::uint32_t kMaxVar = 1u << 24;
  SerializedBdd s;
  // Never trust the header's count for the allocation — a lying `.bdd N`
  // line must fail as "truncated node list", not as a giant reserve
  // throwing bad_alloc past the caller's parse-error handling.
  s.nodes.reserve(std::min<std::size_t>(node_count, 1u << 16));
  std::string line;
  std::string extra;
  for (std::size_t k = 0; k < node_count; ++k) {
    if (!std::getline(in, line)) {
      fail("truncated node list");
    }
    reject_negatives(line);
    std::istringstream row(line);
    SerializedBdd::Node n{};
    if (!(row >> n.var >> n.hi >> n.lo)) {
      fail("malformed node line (expected: var hi lo)");
    }
    if (row >> extra) {
      fail("trailing tokens on node line");
    }
    if (n.var >= kMaxVar) {
      fail("variable index out of range");
    }
    s.nodes.push_back(n);
    if (n.var + 1 > s.num_vars) {
      s.num_vars = n.var + 1;
    }
  }
  if (!std::getline(in, line)) {
    fail("missing .root line");
  }
  std::istringstream row(line);
  std::string keyword;
  if (!(row >> keyword) || keyword != ".root") {
    fail("malformed .root line");
  }
  reject_negatives(line);
  if (!(row >> s.root)) {
    fail("malformed .root line");
  }
  if (row >> extra) {
    fail("trailing tokens on .root line");
  }
  return s;
}

}  // namespace brel
