// Tests for the hash-consed canonical memo keys (bdd_hash.hpp,
// memo_backend.hpp, global_memo.hpp's two-phase probe):
//
//   - the two routes to a key's 128-bit identity agree: the live-manager
//     cached walk (BddManager::canonical_hash folded with the rank
//     lists) and the arena walk over the materialized GlobalMemoKey —
//     including from a REORDERED manager, where the cached walk has to
//     peel cofactors instead of reading the store;
//   - the hash is stable across sifting and garbage collection for live
//     roots (the per-node cache is stamped out, the VALUE must not
//     change — a changed value would split one canonical identity
//     across probes and silently zero the memo hit rate);
//   - a pure probe miss serializes nothing: no handle materializes and
//     the process-wide build counter does not move;
//   - a forced 128-bit collision (injected through LazyMemoKey's
//     explicit-hash test seam; a genuine one cannot be constructed) is
//     detected by the verify step: the probe misses instead of serving
//     the other key's solution, the colliding publish is dropped, the
//     resident entry keeps answering its own key, and collisions()
//     counts every detection;
//   - the in-memory arena form is invisible at the text boundary: a
//     snapshot written by the pre-arena code (PR 9 fixture, checked in)
//     loads with zero skips and re-saves with the identical header,
//     trailer, and entry blocks — `check=` checksums included, which
//     pins the frozen 64-bit FNV feed to the bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
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

TEST(MemoKeyHashTest, ManagerWalkAgreesWithArenaWalk) {
  for (const BuildFn build : kPaperRelations) {
    BddManager mgr{0};
    RelationSpace space = make_space(mgr, 2, 2);
    const BooleanRelation r = build(mgr, space);
    const auto ms = std::make_shared<const MemoSpace>(make_memo_space(r));

    const MemoKeyHandle handle = make_memo_handle(ms, r.characteristic());
    EXPECT_FALSE(handle->materialized());

    const GlobalMemoKey key = make_memo_key(*ms, r.characteristic());
    EXPECT_EQ(handle->hash, memo_key_hash128(key));
    // Materialization produces the identical arena form.
    EXPECT_EQ(handle->get(), key);
    EXPECT_TRUE(handle->materialized());
  }
}

TEST(MemoKeyHashTest, StableAcrossSiftAndGarbageCollection) {
  for (const BuildFn build : kPaperRelations) {
    BddManager mgr{0};
    RelationSpace space = make_space(mgr, 2, 2);
    const BooleanRelation r = build(mgr, space);
    const auto ms = std::make_shared<const MemoSpace>(make_memo_space(r));

    const CanonicalHash128 before =
        make_memo_handle(ms, r.characteristic())->hash;

    // Churn the node store so a GC has something to reclaim, then
    // collect: node indices may be recycled, the cache is stamped out,
    // and the recomputed hash must come out identical.
    for (std::uint32_t i = 0; i < 64; ++i) {
      Bdd scratch = r.characteristic() ^ mgr.literal(i % 4, (i & 1) != 0);
      (void)scratch;
    }
    mgr.garbage_collect();
    EXPECT_EQ(make_memo_handle(ms, r.characteristic())->hash, before)
        << "canonical hash changed across garbage collection";

    // Sifting moves variables: the canonical (identity-order) form is
    // order-independent by construction, so the hash must survive too.
    mgr.reorder();
    EXPECT_EQ(make_memo_handle(ms, r.characteristic())->hash, before)
        << "canonical hash changed across sifting";

    // And the reordered manager's lazy handle still materializes to the
    // same arena words (the cofactor-peeling serialize path).
    const MemoKeyHandle reordered =
        make_memo_handle(ms, r.characteristic());
    EXPECT_EQ(memo_key_hash128(reordered->get()), before);
  }
}

TEST(MemoKeyHashTest, PureMissNeverMaterializes) {
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation r = fig1_relation(mgr, space);
  const auto ms = std::make_shared<const MemoSpace>(make_memo_space(r));

  GlobalMemo memo;

  const MemoKeyBuildStats before = memo_key_build_stats();
  std::vector<MemoKeyHandle> handles;
  for (int i = 0; i < 8; ++i) {
    // Distinct probes of an empty memo, each probed twice: every one is
    // a hash-only miss.
    handles.push_back(make_memo_handle(ms, r.characteristic()));
    EXPECT_FALSE(memo.lookup(handles.back()).has_value());
    EXPECT_FALSE(memo.lookup(handles.back()).has_value());
  }
  const MemoKeyBuildStats after = memo_key_build_stats();
  EXPECT_EQ(after.builds, before.builds)
      << "a probe miss materialized a key";
  for (const MemoKeyHandle& handle : handles) {
    EXPECT_FALSE(handle->materialized());
  }
  EXPECT_EQ(memo.probes(), 16u);
  EXPECT_EQ(memo.hits(), 0u);

  // The first publish is the sanctioned materialization point.
  memo.publish(handles.front(), solution_with_cost(1.0));
  EXPECT_TRUE(handles.front()->materialized());
  EXPECT_EQ(memo_key_build_stats().builds, before.builds + 1);
}

TEST(MemoKeyCollisionTest, VerificationDisambiguatesForcedCollision) {
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const BooleanRelation a = fig1_relation(mgr, space);
  const BooleanRelation b = fig8_relation(mgr, space);
  const MemoSpace ms_a = make_memo_space(a);
  const MemoSpace ms_b = make_memo_space(b);
  const GlobalMemoKey key_a = make_memo_key(ms_a, a.characteristic());
  const GlobalMemoKey key_b = make_memo_key(ms_b, b.characteristic());
  ASSERT_NE(key_a, key_b);
  ASSERT_NE(memo_key_hash128(key_a), memo_key_hash128(key_b));

  // The seam: give B's key A's hash, so both handles land on one map
  // slot and only the verification compare can tell them apart.
  const MemoKeyHandle handle_a =
      std::make_shared<LazyMemoKey>(memo_key_hash128(key_a), key_a);
  const MemoKeyHandle liar_b =
      std::make_shared<LazyMemoKey>(memo_key_hash128(key_a), key_b);

  GlobalMemo memo;
  memo.publish(handle_a, solution_with_cost(1.0));
  ASSERT_TRUE(memo.lookup(handle_a).has_value());
  EXPECT_EQ(memo.collisions(), 0u);

  // A probe under the colliding hash must MISS, never serve A's
  // solution for B's relation — a collision can cost a memo hit but can
  // never return a wrong solution.
  EXPECT_FALSE(memo.lookup(liar_b).has_value());
  EXPECT_EQ(memo.collisions(), 1u);

  // A colliding publish is dropped (first key wins) and the resident
  // entry keeps serving its own key.
  memo.publish(liar_b, solution_with_cost(0.5));
  EXPECT_GE(memo.collisions(), 2u);
  EXPECT_EQ(memo.size(), 1u);
  const auto served = memo.lookup(handle_a);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->cost, 1.0);
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
