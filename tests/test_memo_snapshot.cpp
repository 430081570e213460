// Tests for the memo persistence layer (memo_snapshot.hpp): the entry
// codec the snapshot format and the MEMO_PULL/MEMO_PUSH wire verbs
// share, the loader's resilience against malformed files, and the
// pool-level save-at-drain / load-at-start lifecycle.
//
// The load-bearing properties:
//   - the codec round-trips both record shapes (natural at any depth,
//     root-exact) bit-identically, and REJECTS every other shape, even
//     in a hand-edited file;
//   - a restored entry serves a root probe and exports with its ORIGINAL
//     mark, so a memo saved again writes what it loaded;
//   - the loader never throws and never half-installs: corrupt entries
//     are skipped individually, truncation keeps the parsed prefix,
//     version or fingerprint skew installs nothing;
//   - a pool restarted from a snapshot serves the identical request
//     suite at zero exploration with bit-identical portable solutions.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/paper_relations.hpp"
#include "brel/memo_snapshot.hpp"
#include "brel/search.hpp"
#include "brel/solver_pool.hpp"
#include "relation/relation_io.hpp"

namespace brel {
namespace {

/// The schedule-independent configuration (cf. test_solver_pool.cpp).
SolverOptions deterministic_options(std::size_t max_depth) {
  SolverOptions options;
  options.cost = sum_of_bdd_sizes();
  options.max_relations = static_cast<std::size_t>(-1);
  options.use_cost_bound = false;
  options.max_depth = max_depth;
  return options;
}

/// One canonical (key, solution) pair from a real solve of `build`'s
/// relation — the entries every test below persists and restores.
struct Canonical {
  GlobalMemoKey key;
  PortableSolution solution;
};

template <typename BuildFn>
Canonical solve_canonical(BuildFn build) {
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = build(mgr, space);
  const SolveResult solved = SearchEngine(r, deterministic_options(6)).run();
  const MemoSpace ms = make_memo_space(r);
  return Canonical{make_memo_key(ms, r.characteristic()),
                   make_portable_solution(ms, solved.function, solved.cost)};
}

const MemoFingerprint kTestFp{"test-objective", false};

/// Replace the first occurrence of `from` in `text` (asserts presence —
/// a corruption that misses its target would silently test nothing).
std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "corruption target '" << from
                                    << "' not found in snapshot";
  if (pos != std::string::npos) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

/// A two-entry memo: fig1 installed as a natural record at
/// `natural_depth`, fig10 published by a run (a root record) — one of
/// each record shape.
struct TwoEntryMemo {
  GlobalMemo memo;
  Canonical natural;
  Canonical root;
};

std::unique_ptr<TwoEntryMemo> make_two_entry_memo(
    std::uint64_t natural_depth) {
  auto out = std::make_unique<TwoEntryMemo>();
  out->natural = solve_canonical(fig1_relation);
  out->root = solve_canonical(fig10_relation);
  out->memo.bind(kTestFp);
  (void)out->memo.install(
      MemoExportEntry{out->natural.key, out->natural.solution, natural_depth,
                      /*root_exact=*/false},
      MemoOrigin::kRun);
  out->memo.publish(out->root.key, out->root.solution);
  return out;
}

std::string snapshot_text(const GlobalMemo& memo) {
  std::ostringstream os;
  const SnapshotSaveResult saved = save_memo_snapshot(memo, os, 12345);
  EXPECT_TRUE(saved.ok) << saved.error;
  return os.str();
}

SnapshotLoadResult load_text(GlobalMemo& memo, const std::string& text) {
  std::istringstream in(text);
  return load_memo_snapshot(memo, in);
}

TEST(MemoEntryCodecTest, RoundTripsBothExportShapes) {
  const Canonical c = solve_canonical(fig1_relation);
  for (const auto& [depth, root_exact] :
       std::vector<std::pair<std::uint64_t, bool>>{
           {kMemoAnyDepth, false}, {7, false}, {0, true}}) {
    MemoExportEntry entry;
    entry.key = c.key;
    entry.solution = c.solution;
    entry.complete_depth = root_exact ? 0 : depth;
    entry.root_exact = root_exact;
    std::ostringstream os;
    write_memo_entry(os, entry);
    std::istringstream in(os.str());
    const MemoExportEntry back = read_memo_entry(in);
    EXPECT_EQ(back.key, entry.key);
    EXPECT_EQ(back.solution, entry.solution);
    EXPECT_EQ(back.complete_depth, entry.complete_depth);
    EXPECT_EQ(back.root_exact, entry.root_exact);
  }
}

TEST(MemoEntryCodecTest, RejectsSmuggledTruncatedShape) {
  // The grammar has exactly two .entry shapes; a hand-crafted
  // "truncated" (or any other) shape must be rejected, not parsed into
  // some nearest-fit completeness claim.
  const Canonical c = solve_canonical(fig1_relation);
  MemoExportEntry entry;
  entry.key = c.key;
  entry.solution = c.solution;
  entry.complete_depth = 3;
  std::ostringstream os;
  write_memo_entry(os, entry);
  for (const char* smuggled : {".entry truncated", ".entry partial",
                               ".entry complete"}) {
    const std::string text =
        replace_once(os.str(), ".entry natural", smuggled);
    std::istringstream in(text);
    EXPECT_THROW((void)read_memo_entry(in), std::invalid_argument)
        << smuggled;
  }
}

TEST(MemoEntryCodecTest, RejectsChecksumMismatch) {
  const Canonical c = solve_canonical(fig1_relation);
  MemoExportEntry entry;
  entry.key = c.key;
  entry.solution = c.solution;
  std::ostringstream os;
  write_memo_entry(os, entry);
  std::string text = os.str();
  const std::size_t pos = text.find("check=");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 6] = text[pos + 6] == '0' ? '1' : '0';
  std::istringstream in(text);
  EXPECT_THROW((void)read_memo_entry(in), std::invalid_argument);
}

TEST(MemoSnapshotTest, RoundTripPreservesOriginalMarks) {
  // Both record shapes serve a root probe, and a restored memo keeps
  // each record's mark as it was saved: natural-at-2 and root-exact.
  const auto setup = make_two_entry_memo(/*natural_depth=*/2);
  GlobalMemo restored;
  restored.bind(kTestFp);
  const SnapshotLoadResult loaded =
      load_text(restored, snapshot_text(setup->memo));
  EXPECT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.entries_installed, 2u);
  EXPECT_EQ(loaded.entries_skipped, 0u);
  EXPECT_EQ(loaded.saved_at, 12345u);

  for (GlobalMemo* memo : {&setup->memo, &restored}) {
    EXPECT_EQ(memo->lookup(setup->natural.key), setup->natural.solution);
    EXPECT_EQ(memo->lookup(setup->root.key), setup->root.solution);

    const auto natural = memo->export_entry(setup->natural.key);
    ASSERT_TRUE(natural.has_value());
    EXPECT_FALSE(natural->root_exact);
    EXPECT_EQ(natural->complete_depth, 2u);
    const auto root = memo->export_entry(setup->root.key);
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(root->root_exact);
    EXPECT_EQ(root->complete_depth, 0u);
  }
}

TEST(MemoSnapshotTest, LoaderSurvivesMalformedFiles) {
  const auto setup = make_two_entry_memo(/*natural_depth=*/kMemoAnyDepth);
  const std::string intact = snapshot_text(setup->memo);

  struct Case {
    const char* name;
    std::string text;
    std::size_t min_installed, max_installed;
    bool expect_skipped;
  };
  // Cut inside the LAST entry: everything before it parses, the tail is
  // an entry without its .endentry terminator.
  const std::size_t last_entry = intact.rfind(".entry ");
  ASSERT_NE(last_entry, std::string::npos);

  const std::vector<Case> cases = {
      {"empty file", "", 0, 0, false},
      {"not a snapshot", "junk\n" + intact, 0, 0, false},
      {"version skew", replace_once(intact, "brelmemo 1", "brelmemo 9"), 0,
       0, false},
      {"truncated mid-entry", intact.substr(0, last_entry + 10), 0, 1,
       false},
      {"corrupt entry body",
       replace_once(intact, ".solution", ".garbage"), 1, 1, true},
      {"smuggled truncated shape",
       replace_once(intact, ".entry natural", ".entry truncated"), 1, 1,
       true},
      {"trailer count mismatch",
       replace_once(intact, ".endmemo 2", ".endmemo 5"), 2, 2, false},
  };

  for (const Case& c : cases) {
    GlobalMemo fresh;
    fresh.bind(kTestFp);
    SnapshotLoadResult loaded;
    EXPECT_NO_THROW(loaded = load_text(fresh, c.text)) << c.name;
    EXPECT_FALSE(loaded.ok) << c.name;
    EXPECT_FALSE(loaded.error.empty()) << c.name;
    EXPECT_GE(loaded.entries_installed, c.min_installed) << c.name;
    EXPECT_LE(loaded.entries_installed, c.max_installed) << c.name;
    if (c.expect_skipped) {
      EXPECT_GT(loaded.entries_skipped, 0u) << c.name;
    }
    EXPECT_EQ(fresh.size(), loaded.entries_installed) << c.name;
  }

  // Checksum flip: the damaged entry is skipped, the other installs.
  {
    std::string text = intact;
    const std::size_t pos = text.find("check=");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 6] = text[pos + 6] == '0' ? '1' : '0';
    GlobalMemo fresh;
    fresh.bind(kTestFp);
    const SnapshotLoadResult loaded = load_text(fresh, text);
    EXPECT_FALSE(loaded.ok);
    EXPECT_EQ(loaded.entries_installed, 1u);
    EXPECT_EQ(loaded.entries_skipped, 1u);
  }

  // Fingerprint mismatch: both sides are well formed, reuse is unsound —
  // nothing installs.
  {
    GlobalMemo fresh;
    fresh.bind(MemoFingerprint{"other-objective", true});
    const SnapshotLoadResult loaded = load_text(fresh, intact);
    EXPECT_FALSE(loaded.ok);
    EXPECT_EQ(loaded.entries_installed, 0u);
    EXPECT_EQ(fresh.size(), 0u);
  }

  // An UNBOUND memo adopts the snapshot's fingerprint instead.
  {
    GlobalMemo fresh;
    const SnapshotLoadResult loaded = load_text(fresh, intact);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries_installed, 2u);
    ASSERT_TRUE(fresh.fingerprint().has_value());
    EXPECT_EQ(*fresh.fingerprint(), kTestFp);
  }
}

TEST(MemoSnapshotPoolTest, WarmRestartServesRootHitsBitIdentical) {
  const std::string path = testing::TempDir() + "brel_pool_snapshot.memo";
  std::remove(path.c_str());

  std::vector<std::string> texts;
  for (const auto build : {fig1_relation, fig10_relation, fig8_relation}) {
    BddManager mgr{0};
    RelationSpace space = make_space(mgr, 2, 2);
    texts.push_back(write_relation_bdd(build(mgr, space)));
  }

  PoolOptions po;
  po.workers = 1;
  po.solver = deterministic_options(6);

  std::vector<PoolResult> cold;
  {
    PoolOptions save = po;
    save.memo_save_path = path;
    SolverPool pool(save);
    for (const std::string& text : texts) {
      cold.push_back(pool.submit(text).get());
      EXPECT_GT(cold.back().stats.relations_explored, 0u);
    }
    pool.shutdown();
    const MemoSnapshotInfo info = pool.snapshot_info();
    EXPECT_TRUE(info.save_attempted);
    EXPECT_TRUE(info.save_ok) << info.save_error;
    EXPECT_GE(info.entries_saved, texts.size());  // at least every root
  }
  {
    PoolOptions load = po;
    load.memo_load_path = path;
    SolverPool pool(load);
    const MemoSnapshotInfo info = pool.snapshot_info();
    EXPECT_TRUE(info.load_attempted);
    EXPECT_TRUE(info.load_ok) << info.load_error;
    EXPECT_GT(info.entries_loaded, 0u);
    EXPECT_EQ(info.entries_skipped, 0u);
    EXPECT_EQ(info.loaded_saved_at > 0, true);
    for (std::size_t i = 0; i < texts.size(); ++i) {
      const PoolResult warm = pool.submit(texts[i]).get();
      // The restored root entry serves the identical request at zero
      // exploration, bit-identically to the run that was snapshotted.
      EXPECT_EQ(warm.stats.relations_explored, 0u) << texts[i];
      EXPECT_EQ(warm.solution, cold[i].solution);
      EXPECT_EQ(warm.cost, cold[i].cost);
    }
  }

  // A restart pointed at a MISSING snapshot comes up cold, not dead.
  std::remove(path.c_str());
  {
    PoolOptions load = po;
    load.memo_load_path = path;
    SolverPool pool(load);
    const MemoSnapshotInfo info = pool.snapshot_info();
    EXPECT_TRUE(info.load_attempted);
    EXPECT_FALSE(info.load_ok);
    EXPECT_EQ(info.entries_loaded, 0u);
    const PoolResult result = pool.submit(texts[0]).get();
    EXPECT_EQ(result.solution, cold[0].solution);
  }
}

}  // namespace
}  // namespace brel
