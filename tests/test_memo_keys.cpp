// Tests for the canonical memo keys (memo_backend.hpp, global_memo.hpp):
//
//   - a key is stable across sifting and garbage collection for live
//     roots, and an entry published before a sift serves the probe made
//     after it (a changed key would split one canonical identity across
//     probes and silently zero the memo hit rate);
//   - the in-memory arena form is invisible at the text boundary: a
//     snapshot written by the pre-arena code
//     (tests/data/pr9_memo_fixture.snap) loads with zero skips and
//     re-saves with the identical header, trailer, and entry blocks —
//     `check=` checksums included, which pins the frozen 64-bit FNV feed
//     to the bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/paper_relations.hpp"
#include "brel/global_memo.hpp"
#include "brel/memo_snapshot.hpp"

namespace brel {
namespace {

PortableSolution solution_with_cost(double cost) {
  PortableSolution s;
  s.outputs.push_back(SerializedBdd{});
  s.cost = cost;
  return s;
}

using BuildFn = BooleanRelation (*)(BddManager&, const RelationSpace&);
const std::vector<BuildFn> kPaperRelations{fig1_relation, fig8_relation,
                                           fig10_relation};

TEST(MemoKeyTest, StableAcrossSiftAndGarbageCollection) {
  for (const BuildFn build : kPaperRelations) {
    BddManager mgr{0};
    RelationSpace space = make_space(mgr, 2, 2);
    const BooleanRelation r = build(mgr, space);
    const MemoSpace ms = make_memo_space(r);

    const GlobalMemoKey before = make_memo_key(ms, r.characteristic());
    GlobalMemo memo;
    memo.publish(before, solution_with_cost(1.0));

    // Churn the node store so a GC has something to reclaim, then
    // collect: node indices may be recycled, and the key — a canonical
    // serialize_bdd image — must come out identical.
    for (std::uint32_t i = 0; i < 64; ++i) {
      Bdd scratch = r.characteristic() ^ mgr.literal(i % 4, (i & 1) != 0);
      (void)scratch;
    }
    mgr.garbage_collect();
    EXPECT_EQ(make_memo_key(ms, r.characteristic()), before)
        << "canonical key changed across garbage collection";

    // Sifting moves variables: the canonical (identity-order) form is
    // order-independent by construction (the cofactor-peeling serialize
    // path), so the key must survive too — and the entry published
    // before the sift serves the probe after it.
    mgr.reorder();
    const GlobalMemoKey after = make_memo_key(ms, r.characteristic());
    EXPECT_EQ(after, before) << "canonical key changed across sifting";
    EXPECT_EQ(memo_key_hash(after), memo_key_hash(before));
    const std::optional<PortableSolution> served = memo.lookup(after);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->cost, 1.0);
    EXPECT_EQ(memo.hits(), 1u);
  }
}

TEST(MemoKeyArenaTest, SnapshotByteIdenticalToPreArenaFixture) {
  // tests/data/pr9_memo_fixture.snap was written by the pre-arena
  // snapshot code.  Loading it with ZERO skips proves the arena read
  // path (including the frozen 64-bit `check=` FNV recomputed from the
  // arena) accepts every pre-arena byte; re-saving and comparing pins
  // the write path.  Entry ORDER in the re-save is a map-iteration
  // artifact, so blocks compare as a multiset; header and trailer
  // compare exactly.
  const std::string path =
      std::string(BREL_TEST_DATA_DIR) + "/pr9_memo_fixture.snap";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing fixture " << path;
  std::stringstream fixture;
  fixture << in.rdbuf();

  GlobalMemo memo;
  const SnapshotLoadResult loaded = load_memo_snapshot(memo, fixture);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.entries_skipped, 0u);
  ASSERT_GT(loaded.entries_installed, 0u);

  std::ostringstream resaved;
  const SnapshotSaveResult saved =
      save_memo_snapshot(memo, resaved, loaded.saved_at);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.entries, loaded.entries_installed);

  // Split a snapshot text into {header+trailer, entry blocks}.
  const auto split = [](const std::string& text) {
    std::vector<std::string> blocks;
    std::string frame;
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t begin = text.find(".entry", pos);
      if (begin == std::string::npos) {
        frame += text.substr(pos);
        break;
      }
      frame += text.substr(pos, begin - pos);
      const std::size_t end = text.find(".endentry\n", begin);
      EXPECT_NE(end, std::string::npos);
      blocks.push_back(text.substr(begin, end + 10 - begin));
      pos = end + 10;
    }
    std::sort(blocks.begin(), blocks.end());
    return std::pair{frame, blocks};
  };
  const auto [fixture_frame, fixture_blocks] = split(fixture.str());
  const auto [resaved_frame, resaved_blocks] = split(resaved.str());
  EXPECT_EQ(resaved_frame, fixture_frame);
  EXPECT_EQ(resaved_blocks, fixture_blocks);
}

}  // namespace
}  // namespace brel
