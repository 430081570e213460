#include "brel/memo_snapshot.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace brel {

namespace {

/// 64-bit FNV-1a (same constants as memo_key_hash).
struct Fnv {
  std::uint64_t state = 14695981039346656037ull;

  void feed(std::uint64_t word) noexcept {
    state ^= word;
    state *= 1099511628211ull;
  }
};

std::uint64_t hash_serialized(Fnv& h, const SerializedBdd& s) {
  h.feed(s.nodes.size());
  for (const SerializedBdd::Node& n : s.nodes) {
    h.feed((static_cast<std::uint64_t>(n.var) << 32) ^ n.hi);
    h.feed(n.lo);
  }
  h.feed(s.root);
  h.feed(s.num_vars);
  return h.state;
}

[[noreturn]] void fail(const char* what) {
  throw std::invalid_argument(std::string("read_memo_entry: ") + what);
}

/// Same sanity ceilings as the relation/`.bdd` parsers: a lying header
/// must fail loudly, never allocate unbounded memory.
constexpr std::size_t kMaxRanks = 1u << 20;
constexpr std::size_t kMaxNodes = 1u << 28;

std::vector<std::uint32_t> read_rank_list(std::istream& in,
                                          const char* keyword_want) {
  std::string keyword;
  std::size_t count = 0;
  if (!(in >> keyword) || keyword != keyword_want || !(in >> count)) {
    fail("malformed rank-list line");
  }
  if (count > kMaxRanks) {
    fail("rank list declares too many ranks");
  }
  std::vector<std::uint32_t> ranks;
  ranks.reserve(std::min<std::size_t>(count, 1u << 10));
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t r = 0;
    if (!(in >> r)) {
      fail("truncated rank list");
    }
    ranks.push_back(r);
  }
  return ranks;
}

}  // namespace

std::uint64_t memo_entry_checksum(const MemoExportEntry& e) {
  Fnv h;
  h.feed(memo_key_hash(e.key));
  h.feed(e.root_exact ? 1 : 0);
  h.feed(e.complete_depth);
  h.feed(std::bit_cast<std::uint64_t>(e.solution.cost));
  h.feed(e.solution.outputs.size());
  for (const SerializedBdd& g : e.solution.outputs) {
    hash_serialized(h, g);
  }
  return h.state;
}

void write_memo_key(std::ostream& os, const GlobalMemoKey& key) {
  const auto iranks = key.input_ranks();
  os << ".iranks " << iranks.size();
  for (const std::uint32_t r : iranks) {
    os << ' ' << r;
  }
  os << '\n';
  const auto oranks = key.output_ranks();
  os << ".oranks " << oranks.size();
  for (const std::uint32_t r : oranks) {
    os << ' ' << r;
  }
  os << '\n';
  os << ".chi " << key.node_count() << '\n';
  write_serialized_bdd(os, key.chi());
}

GlobalMemoKey read_memo_key(std::istream& in) {
  const std::vector<std::uint32_t> iranks = read_rank_list(in, ".iranks");
  const std::vector<std::uint32_t> oranks = read_rank_list(in, ".oranks");
  std::string keyword;
  std::size_t chi_nodes = 0;
  if (!(in >> keyword) || keyword != ".chi" || !(in >> chi_nodes)) {
    fail("malformed .chi line");
  }
  if (chi_nodes > kMaxNodes) {
    fail(".chi declares too many nodes");
  }
  // read_serialized_bdd is line-based; step past the `.chi` line's tail
  // so its first getline sees a node line, not an empty remainder.
  std::string rest;
  std::getline(in, rest);
  // The arena constructor re-validates id order (child before parent) —
  // a malformed key throws std::invalid_argument like every other parse
  // failure here and costs exactly this entry.
  return GlobalMemoKey(read_serialized_bdd(in, chi_nodes), iranks, oranks);
}

void write_memo_fingerprint(std::ostream& os, const MemoFingerprint& fp) {
  os << ".cost_id " << fp.cost_id << '\n';
  os << ".exact " << (fp.exact ? 1 : 0) << '\n';
}

std::optional<MemoFingerprint> read_memo_fingerprint(std::istream& in) {
  std::string line;
  do {
    if (!std::getline(in, line)) {
      return std::nullopt;
    }
  } while (line.empty());
  if (line.rfind(".cost_id ", 0) != 0) {
    return std::nullopt;
  }
  MemoFingerprint fp;
  fp.cost_id = line.substr(9);
  if (fp.cost_id.empty()) {
    return std::nullopt;
  }
  std::string keyword;
  int exact = 0;
  if (!(in >> keyword) || keyword != ".exact" || !(in >> exact)) {
    return std::nullopt;
  }
  std::getline(in, line);  // consume the rest of the .exact line
  fp.exact = exact != 0;
  return fp;
}

void write_memo_entry(std::ostream& os, const MemoExportEntry& e) {
  char check[32];
  std::snprintf(check, sizeof(check), "%016llx",
                static_cast<unsigned long long>(memo_entry_checksum(e)));
  if (e.root_exact) {
    os << ".entry root check=" << check << '\n';
  } else if (e.complete_depth == kMemoAnyDepth) {
    os << ".entry natural depth=any check=" << check << '\n';
  } else {
    os << ".entry natural depth=" << e.complete_depth << " check=" << check
       << '\n';
  }
  write_memo_key(os, e.key);
  os << ".solution\n";
  write_portable_solution(os, e.solution);
  os << ".endentry\n";
}

MemoExportEntry read_memo_entry(std::istream& in) {
  std::string line;
  do {
    if (!std::getline(in, line)) {
      fail("missing .entry line");
    }
  } while (line.empty());
  std::istringstream header(line);
  std::string keyword;
  std::string shape;
  if (!(header >> keyword) || keyword != ".entry" || !(header >> shape)) {
    fail("malformed .entry line");
  }
  MemoExportEntry e;
  std::string check_field;
  if (shape == "root") {
    e.root_exact = true;
    e.complete_depth = 0;
    if (!(header >> check_field)) {
      fail("malformed .entry root line");
    }
  } else if (shape == "natural") {
    std::string depth_field;
    if (!(header >> depth_field) ||
        depth_field.rfind("depth=", 0) != 0 || !(header >> check_field)) {
      fail("malformed .entry natural line");
    }
    const std::string depth_text = depth_field.substr(6);
    if (depth_text == "any") {
      e.complete_depth = kMemoAnyDepth;
    } else {
      char* end = nullptr;
      e.complete_depth = std::strtoull(depth_text.c_str(), &end, 10);
      if (end == depth_text.c_str() || *end != '\0') {
        fail("malformed depth= value");
      }
    }
  } else {
    // A record has exactly two shapes.  In particular `.entry truncated`
    // (an interior depth-truncated claim) is REJECTED here, not
    // parsed-and-ignored: a budget-relative or tainted result must not
    // enter a memo through a hand-edited or corrupted snapshot.
    fail("unsupported .entry shape (only 'natural' and 'root' may cross "
         "a tier boundary)");
  }
  if (check_field.rfind("check=", 0) != 0) {
    fail("missing check= field");
  }
  const std::string check_text = check_field.substr(6);
  char* check_end = nullptr;
  const std::uint64_t declared_check =
      std::strtoull(check_text.c_str(), &check_end, 16);
  if (check_end == check_text.c_str() || *check_end != '\0') {
    fail("malformed check= value");
  }
  if (std::string extra; header >> extra) {
    fail("trailing tokens on .entry line");
  }

  e.key = read_memo_key(in);
  if (!(in >> keyword) || keyword != ".solution") {
    fail("missing .solution line");
  }
  std::getline(in, line);  // consume the rest of the .solution line
  // The solution body runs to the `.endentry` terminator; buffer it so
  // read_portable_solution sees exactly its own grammar (it insists on
  // ending at end-of-input).
  std::string body;
  bool terminated = false;
  while (std::getline(in, line)) {
    if (line == ".endentry") {
      terminated = true;
      break;
    }
    body += line;
    body += '\n';
  }
  if (!terminated) {
    fail("truncated entry (missing .endentry)");
  }
  std::istringstream body_stream(body);
  e.solution = read_portable_solution(body_stream);
  if (memo_entry_checksum(e) != declared_check) {
    fail("entry checksum mismatch (corrupt body or forged key)");
  }
  return e;
}

SnapshotSaveResult save_memo_snapshot(const GlobalMemo& memo,
                                      std::ostream& os,
                                      std::uint64_t saved_at_unix) {
  SnapshotSaveResult result;
  const std::optional<MemoFingerprint> fp = memo.fingerprint();
  // Collect before writing: the `.entries` count leads the entry list,
  // and export order should not interleave with shard locking.
  std::vector<MemoExportEntry> entries;
  if (fp.has_value()) {
    memo.export_entries(
        [&entries](const MemoExportEntry& e) { entries.push_back(e); });
  }
  os << "brelmemo 1\n";
  os << ".cost_id " << (fp.has_value() ? fp->cost_id : "") << '\n';
  os << ".exact " << (fp.has_value() && fp->exact ? 1 : 0) << '\n';
  os << ".saved_at " << saved_at_unix << '\n';
  os << ".entries " << entries.size() << '\n';
  for (const MemoExportEntry& e : entries) {
    write_memo_entry(os, e);
  }
  os << ".endmemo " << entries.size() << '\n';
  os.flush();
  result.entries = entries.size();
  result.ok = os.good();
  if (!result.ok) {
    result.error = "write failed";
  }
  return result;
}

SnapshotSaveResult save_memo_snapshot(const GlobalMemo& memo,
                                      const std::string& path,
                                      std::uint64_t saved_at_unix) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    SnapshotSaveResult result;
    result.error = "cannot open '" + path + "' for writing";
    return result;
  }
  SnapshotSaveResult result = save_memo_snapshot(memo, os, saved_at_unix);
  if (!result.ok && result.error.empty()) {
    result.error = "write to '" + path + "' failed";
  }
  return result;
}

SnapshotLoadResult load_memo_snapshot(GlobalMemo& memo, std::istream& in) {
  SnapshotLoadResult result;
  std::string line;
  if (!std::getline(in, line)) {
    result.error = "empty snapshot";
    return result;
  }
  {
    std::istringstream magic(line);
    std::string tag;
    std::uint64_t version = 0;
    if (!(magic >> tag) || tag != "brelmemo" || !(magic >> version)) {
      result.error = "not a brelmemo snapshot";
      return result;
    }
    if (version != 1) {
      result.error =
          "unsupported snapshot version " + std::to_string(version);
      return result;
    }
  }
  std::string cost_id;
  bool exact = false;
  bool fingerprint_done = false;
  std::uint64_t trailer_count = 0;
  bool saw_trailer = false;
  // Bind-or-check the memo's fingerprint exactly once, before the first
  // install.  Returns false (with result.error set) on mismatch — the
  // whole snapshot is then refused, nothing installed.
  const auto finalize_fingerprint = [&]() -> bool {
    if (fingerprint_done) {
      return true;
    }
    if (cost_id.empty()) {
      result.error = "snapshot has entries but no .cost_id fingerprint";
      return false;
    }
    try {
      memo.bind(MemoFingerprint{cost_id, exact});
    } catch (const std::invalid_argument&) {
      result.error =
          "snapshot fingerprint (cost '" + cost_id +
          "') does not match the memo's — refusing every entry";
      return false;
    }
    fingerprint_done = true;
    return true;
  };
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == ".cost_id") {
      // Rest of line verbatim (a cost id could conceivably hold spaces).
      const std::size_t at = line.find(".cost_id");
      cost_id = line.substr(at + 8);
      if (!cost_id.empty() && cost_id.front() == ' ') {
        cost_id.erase(0, 1);
      }
    } else if (keyword == ".exact") {
      int v = 0;
      fields >> v;
      exact = v != 0;
    } else if (keyword == ".saved_at") {
      fields >> result.saved_at;
    } else if (keyword == ".entries") {
      // Advisory; the trailer count is what gets cross-checked.
    } else if (keyword == ".entry") {
      // Buffer through .endentry so a corrupt body costs exactly this
      // entry, never stream sync.
      std::string buffer = line;
      buffer += '\n';
      bool terminated = false;
      while (std::getline(in, line)) {
        buffer += line;
        buffer += '\n';
        if (line == ".endentry") {
          terminated = true;
          break;
        }
      }
      if (!terminated) {
        result.error = "truncated snapshot (entry without .endentry)";
        return result;
      }
      if (!finalize_fingerprint()) {
        return result;
      }
      try {
        std::istringstream entry_stream(buffer);
        const MemoExportEntry e = read_memo_entry(entry_stream);
        memo.install(e, MemoOrigin::kSnapshot);
        ++result.entries_installed;
      } catch (const std::invalid_argument&) {
        ++result.entries_skipped;
      }
    } else if (keyword == ".endmemo") {
      fields >> trailer_count;
      saw_trailer = true;
      break;
    }
    // Unknown directives are ignored: minor-version additions must not
    // brick an old loader.
  }
  if (!saw_trailer) {
    result.error = "truncated snapshot (missing .endmemo trailer)";
    return result;
  }
  if (trailer_count != result.entries_installed + result.entries_skipped) {
    result.error = "snapshot trailer count mismatch (truncated entry list)";
    return result;
  }
  if (result.entries_skipped != 0) {
    result.error = std::to_string(result.entries_skipped) +
                   " corrupt entries skipped";
    return result;
  }
  result.ok = true;
  return result;
}

SnapshotLoadResult load_memo_snapshot(GlobalMemo& memo,
                                      const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    SnapshotLoadResult result;
    result.error = "cannot open '" + path + "'";
    return result;
  }
  return load_memo_snapshot(memo, in);
}

}  // namespace brel
