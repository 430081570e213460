#include "brel/memo_backend.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace brel {

namespace {

/// Remap a serialized BDD's variables through `table` (var → rank or
/// rank → var).  Both directions are strictly monotone over the
/// relation's variables, so the node list remains a valid ordered BDD.
SerializedBdd remap_vars(SerializedBdd s,
                         const std::vector<std::uint32_t>& table,
                         std::uint32_t unmapped_sentinel) {
  s.num_vars = 0;
  for (SerializedBdd::Node& node : s.nodes) {
    if (node.var >= table.size() || table[node.var] == unmapped_sentinel) {
      throw std::logic_error(
          "GlobalMemo: BDD depends on a variable outside the relation's "
          "input/output spaces");
    }
    node.var = table[node.var];
    s.num_vars = std::max(s.num_vars, node.var + 1);
  }
  return s;
}

/// 64-bit FNV-1a over the words of a key.
struct Fnv {
  std::uint64_t state = 14695981039346656037ull;

  void feed(std::uint64_t word) noexcept {
    state ^= word;
    state *= 1099511628211ull;
  }
  void feed_list(std::span<const std::uint32_t> list) noexcept {
    feed(list.size());
    for (const std::uint32_t v : list) {
      feed(v);
    }
  }
};

std::atomic<std::uint64_t> g_key_builds{0};
std::atomic<std::uint64_t> g_key_build_ns{0};

}  // namespace

MemoSpace make_memo_space(const BooleanRelation& r) {
  MemoSpace space;
  space.sorted_vars.reserve(r.num_inputs() + r.num_outputs());
  space.sorted_vars.insert(space.sorted_vars.end(), r.inputs().begin(),
                           r.inputs().end());
  space.sorted_vars.insert(space.sorted_vars.end(), r.outputs().begin(),
                           r.outputs().end());
  std::sort(space.sorted_vars.begin(), space.sorted_vars.end());
  space.rank_of.assign(r.manager().num_vars(), MemoSpace::kUnranked);
  for (std::size_t rank = 0; rank < space.sorted_vars.size(); ++rank) {
    space.rank_of[space.sorted_vars[rank]] =
        static_cast<std::uint32_t>(rank);
  }
  space.input_ranks.reserve(r.num_inputs());
  for (const std::uint32_t v : r.inputs()) {
    space.input_ranks.push_back(space.rank_of[v]);
  }
  space.output_ranks.reserve(r.num_outputs());
  for (const std::uint32_t v : r.outputs()) {
    space.output_ranks.push_back(space.rank_of[v]);
  }
  return space;
}

GlobalMemoKey::GlobalMemoKey(const SerializedBdd& chi,
                             std::span<const std::uint32_t> input_ranks,
                             std::span<const std::uint32_t> output_ranks) {
  const std::size_t n = chi.nodes.size();
  if ((chi.root >> 1) > n) {
    throw std::invalid_argument(
        "GlobalMemoKey: root references an unknown node");
  }
  words_.reserve(4 + 3 * n + input_ranks.size() + output_ranks.size());
  words_.push_back(static_cast<std::uint32_t>(n));
  words_.push_back(chi.root);
  words_.push_back(static_cast<std::uint32_t>(input_ranks.size()));
  words_.push_back(static_cast<std::uint32_t>(output_ranks.size()));
  for (std::size_t k = 0; k < n; ++k) {
    const SerializedBdd::Node& node = chi.nodes[k];
    // Child-before-parent (node k has id k + 1): serialize_bdd always
    // emits this order, so a key that breaks it (a corrupt snapshot or
    // wire key) fails here, loudly, before it can enter the memo.
    if ((node.hi >> 1) > k || (node.lo >> 1) > k) {
      throw std::invalid_argument(
          "GlobalMemoKey: child id not smaller than parent id");
    }
    words_.push_back(node.var);
    words_.push_back(node.hi);
    words_.push_back(node.lo);
  }
  words_.insert(words_.end(), input_ranks.begin(), input_ranks.end());
  words_.insert(words_.end(), output_ranks.begin(), output_ranks.end());
}

SerializedBdd GlobalMemoKey::chi() const {
  SerializedBdd out;
  const std::size_t n = node_count();
  out.nodes.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.nodes.push_back(
        SerializedBdd::Node{node_var(k), node_hi(k), node_lo(k)});
    // num_vars is 1 + the largest node rank — exactly what remap_vars
    // computed for the pre-arena key, so the translation is exact.
    out.num_vars = std::max(out.num_vars, node_var(k) + 1);
  }
  out.root = chi_root();
  return out;
}

GlobalMemoKey make_memo_key(const MemoSpace& space, const Bdd& chi) {
  const auto start = std::chrono::steady_clock::now();
  const SerializedBdd canonical =
      remap_vars(serialize_bdd(chi), space.rank_of, MemoSpace::kUnranked);
  GlobalMemoKey key(canonical, space.input_ranks, space.output_ranks);
  const auto end = std::chrono::steady_clock::now();
  g_key_builds.fetch_add(1, std::memory_order_relaxed);
  g_key_build_ns.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count(),
      std::memory_order_relaxed);
  return key;
}

GlobalMemoKey make_memo_handle(const std::shared_ptr<const MemoSpace>& space,
                               const Bdd& chi) {
  return make_memo_key(*space, chi);
}

std::uint64_t memo_key_hash(const GlobalMemoKey& key) {
  // Frozen feed sequence (see the header comment): identical word for
  // word to the pre-arena implementation, which fed the SerializedBdd
  // fields directly — snapshot `check=` values must not move.
  Fnv h;
  const std::size_t n = key.node_count();
  h.feed(n);
  for (std::size_t k = 0; k < n; ++k) {
    h.feed((static_cast<std::uint64_t>(key.node_var(k)) << 32) ^
           key.node_hi(k));
    h.feed(key.node_lo(k));
  }
  h.feed(key.chi_root());
  h.feed_list(key.input_ranks());
  h.feed_list(key.output_ranks());
  return h.state;
}

MemoKeyBuildStats memo_key_build_stats() noexcept {
  return MemoKeyBuildStats{g_key_builds.load(std::memory_order_relaxed),
                           g_key_build_ns.load(std::memory_order_relaxed)};
}

PortableSolution make_portable_solution(const MemoSpace& space,
                                        const MultiFunction& f,
                                        double cost) {
  PortableSolution out;
  out.outputs.reserve(f.outputs.size());
  for (const Bdd& g : f.outputs) {
    out.outputs.push_back(
        remap_vars(serialize_bdd(g), space.rank_of, MemoSpace::kUnranked));
  }
  out.cost = cost;
  return out;
}

MultiFunction import_portable_solution(BddManager& mgr,
                                       const MemoSpace& space,
                                       const PortableSolution& s) {
  MultiFunction f;
  f.outputs.reserve(s.outputs.size());
  for (const SerializedBdd& g : s.outputs) {
    // Inverse remap (rank → manager variable) is monotone too, so the
    // rebuilt function has the destination's canonical structure.
    f.outputs.push_back(mgr.deserialize_bdd(
        remap_vars(g, space.sorted_vars, MemoSpace::kUnranked)));
  }
  return f;
}

Bdd import_canonical_bdd(BddManager& mgr, const MemoSpace& space,
                         const SerializedBdd& s) {
  return mgr.deserialize_bdd(
      remap_vars(s, space.sorted_vars, MemoSpace::kUnranked));
}

void write_portable_solution(std::ostream& os, const PortableSolution& s) {
  // %.17g-precision cost so the round trip is bit-faithful for every
  // double a cost function can produce (cf. support_balance_cost's id).
  char cost_text[64];
  std::snprintf(cost_text, sizeof(cost_text), "%.17g", s.cost);
  os << ".cost " << cost_text << '\n';
  os << ".outputs " << s.outputs.size() << '\n';
  for (const SerializedBdd& g : s.outputs) {
    os << ".bdd " << g.nodes.size() << '\n';
    write_serialized_bdd(os, g);
  }
}

PortableSolution read_portable_solution(std::istream& in) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("read_portable_solution: ") +
                                what);
  };
  // Same sanity ceilings as relation_io's `.bdd` parser: a lying header
  // must fail loudly, never allocate unbounded memory.
  constexpr std::size_t kMaxOutputs = 1u << 16;
  constexpr std::size_t kMaxNodes = 1u << 28;
  std::string keyword;
  PortableSolution out;
  std::string cost_text;
  if (!(in >> keyword) || keyword != ".cost" || !(in >> cost_text)) {
    fail("malformed .cost line");
  }
  // strtod, not stream extraction: num_get refuses "inf"/"nan", and an
  // empty best-so-far (deadline-expired) solution carries cost = inf.
  char* cost_end = nullptr;
  out.cost = std::strtod(cost_text.c_str(), &cost_end);
  if (cost_end == cost_text.c_str() || *cost_end != '\0') {
    fail("malformed .cost value");
  }
  std::size_t output_count = 0;
  if (!(in >> keyword) || keyword != ".outputs" || !(in >> output_count)) {
    fail("malformed .outputs line");
  }
  if (output_count > kMaxOutputs) {
    fail(".outputs declares too many outputs");
  }
  out.outputs.reserve(std::min<std::size_t>(output_count, 1u << 8));
  std::string line;
  std::getline(in, line);  // consume the rest of the .outputs line
  for (std::size_t o = 0; o < output_count; ++o) {
    if (!std::getline(in, line)) {
      fail("truncated output list");
    }
    std::istringstream header(line);
    std::size_t node_count = 0;
    std::string extra;
    if (!(header >> keyword) || keyword != ".bdd" ||
        !(header >> node_count)) {
      fail("malformed .bdd line");
    }
    if (header >> extra) {
      fail("trailing tokens on .bdd line");
    }
    if (node_count > kMaxNodes) {
      fail(".bdd declares too many nodes");
    }
    out.outputs.push_back(read_serialized_bdd(in, node_count));
  }
  if (in >> keyword) {
    fail("trailing tokens after the last output");
  }
  return out;
}

namespace {

/// Three-way lexicographic compare of rank-form serialized BDDs.  The
/// serializer emits a deterministic traversal of the canonical DAG, so
/// equal functions compare equal and distinct functions compare stably
/// in either direction — exactly the properties canonically_before
/// needs; the specific order is otherwise arbitrary.
int compare_serialized(const SerializedBdd& a, const SerializedBdd& b) {
  if (a.nodes.size() != b.nodes.size()) {
    return a.nodes.size() < b.nodes.size() ? -1 : 1;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const SerializedBdd::Node& x = a.nodes[i];
    const SerializedBdd::Node& y = b.nodes[i];
    if (x.var != y.var) {
      return x.var < y.var ? -1 : 1;
    }
    if (x.hi != y.hi) {
      return x.hi < y.hi ? -1 : 1;
    }
    if (x.lo != y.lo) {
      return x.lo < y.lo ? -1 : 1;
    }
  }
  if (a.root != b.root) {
    return a.root < b.root ? -1 : 1;
  }
  if (a.num_vars != b.num_vars) {
    return a.num_vars < b.num_vars ? -1 : 1;
  }
  return 0;
}

}  // namespace

bool canonically_before(const PortableSolution& a,
                        const PortableSolution& b) {
  if (a.outputs.size() != b.outputs.size()) {
    // Unreachable for same-relation candidates; ordered for totality.
    return a.outputs.size() < b.outputs.size();
  }
  for (std::size_t o = 0; o < a.outputs.size(); ++o) {
    if (const int c = compare_serialized(a.outputs[o], b.outputs[o]);
        c != 0) {
      return c < 0;
    }
  }
  return false;
}

}  // namespace brel
