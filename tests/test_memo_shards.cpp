// Tests for GlobalMemo's sharded concurrency layer (global_memo.hpp).
//
// test_solver_pool.cpp covers the memo's *semantics* — canonical keys,
// the root-answer contract, LRU improvement rules.  This file covers
// the SHARDING that was layered under those semantics:
//   - the auto shard policy (unlimited memo → kDefaultShards, finite
//     capacity → one shard for exact global LRU, explicit counts
//     rounded up to a power of two and clamped);
//   - keys distribute across shards and shard_of is a stable total
//     function onto [0, shard_count);
//   - the capacity bound is enforced PER SHARD (ceil split);
//   - concurrent publish / lookup across shards is safe and loses
//     nothing (this file is part of the TSan CI job);
//   - the per-shard relaxed statistic atomics fold to EXACT totals.
//
// Keys here are synthetic (distinct rank vectors, empty characteristic):
// the memo treats keys opaquely — hash, equality, plain data — so
// synthetic keys exercise the sharding without any BDD machinery.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "brel/global_memo.hpp"

namespace brel {
namespace {

/// A distinct, hashable, manager-free key: the memo never interprets
/// key contents, only compares and hashes them.
GlobalMemoKey synthetic_key(std::uint32_t i) {
  const std::vector<std::uint32_t> iranks{i, i * 7919u + 1};
  const std::vector<std::uint32_t> oranks{i + 1};
  return GlobalMemoKey(SerializedBdd{}, iranks, oranks);
}

PortableSolution solution_with_cost(double cost) {
  PortableSolution s;
  s.outputs.push_back(SerializedBdd{});
  s.cost = cost;
  return s;
}

TEST(MemoShardTest, AutoPolicyAndExplicitCounts) {
  // Unlimited memo: the service configuration — shard by default.
  EXPECT_EQ(GlobalMemo{}.shard_count(), GlobalMemo::kDefaultShards);
  // Finite capacity: one shard, so the LRU order stays globally exact
  // (the semantics test_solver_pool.cpp pins on GlobalMemo{1}/{8}).
  EXPECT_EQ(GlobalMemo{8}.shard_count(), 1u);
  // Explicit counts round up to a power of two and clamp to kMaxShards.
  EXPECT_EQ((GlobalMemo{static_cast<std::size_t>(-1), 1}).shard_count(), 1u);
  EXPECT_EQ((GlobalMemo{static_cast<std::size_t>(-1), 3}).shard_count(), 4u);
  EXPECT_EQ((GlobalMemo{static_cast<std::size_t>(-1), 100000}).shard_count(),
            GlobalMemo::kMaxShards);
  // A finite capacity splits ceil(capacity / shards) per shard.
  EXPECT_EQ((GlobalMemo{64, 4}).shard_capacity(), 16u);
  EXPECT_EQ((GlobalMemo{10, 4}).shard_capacity(), 3u);
  EXPECT_EQ(GlobalMemo{}.shard_capacity(), static_cast<std::size_t>(-1));
}

TEST(MemoShardTest, KeysDistributeAcrossShards) {
  GlobalMemo memo{static_cast<std::size_t>(-1), 8};
  ASSERT_EQ(memo.shard_count(), 8u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const GlobalMemoKey key = synthetic_key(i);
    // shard_of is a stable total function onto [0, shard_count).
    const std::size_t shard = memo.shard_of(key);
    EXPECT_LT(shard, memo.shard_count());
    EXPECT_EQ(shard, memo.shard_of(key));
    memo.publish(key, solution_with_cost(1.0));
  }
  EXPECT_EQ(memo.size(), 64u);
  std::size_t populated = 0;
  std::size_t total = 0;
  for (std::size_t s = 0; s < memo.shard_count(); ++s) {
    populated += memo.shard_size(s) > 0 ? 1 : 0;
    total += memo.shard_size(s);
  }
  EXPECT_EQ(total, memo.size());
  // 64 distinct keys landing all on one of 8 shards would mean the
  // shard hash is degenerate — the very contention wall sharding is
  // supposed to remove.
  EXPECT_GE(populated, 2u);
}

TEST(MemoShardTest, CapacityIsEnforcedPerShard) {
  GlobalMemo memo{32, 4};  // 8 entries per shard
  ASSERT_EQ(memo.shard_capacity(), 8u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    memo.publish(synthetic_key(i), solution_with_cost(1.0));
  }
  std::size_t total = 0;
  for (std::size_t s = 0; s < memo.shard_count(); ++s) {
    EXPECT_LE(memo.shard_size(s), memo.shard_capacity());
    total += memo.shard_size(s);
  }
  EXPECT_EQ(total, memo.size());
  EXPECT_LE(memo.size(), memo.capacity());
  // Every publish beyond a shard's bound evicted exactly one victim.
  EXPECT_EQ(memo.evictions(), memo.publishes() - memo.size());
}

TEST(MemoShardTest, ConcurrentPublishLookupAcrossShards) {
  // Each thread publishes its own key range while every thread probes
  // the whole key space — publishes and lookups race across all
  // shards.  TSan-run.
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kKeysPerThread = 32;
  GlobalMemo memo;  // unlimited, kDefaultShards
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memo, t] {
      for (std::uint32_t i = 0; i < kKeysPerThread; ++i) {
        const std::uint32_t id = t * kKeysPerThread + i;
        memo.publish(synthetic_key(id), solution_with_cost(id));
        // Concurrent probes over the whole space: foreign keys may or
        // may not be visible yet; visible ones must be well-formed.
        const auto seen =
            memo.lookup(synthetic_key((id * 13u) % (kThreads *
                                                    kKeysPerThread)));
        if (seen.has_value()) {
          EXPECT_TRUE(seen->has_solution());
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Nothing lost, everything visible, costs intact.
  EXPECT_EQ(memo.size(), kThreads * kKeysPerThread);
  for (std::uint32_t id = 0; id < kThreads * kKeysPerThread; ++id) {
    const auto found = memo.lookup(synthetic_key(id));
    ASSERT_TRUE(found.has_value()) << "key " << id;
    EXPECT_EQ(found->cost, static_cast<double>(id));
  }
  EXPECT_EQ(memo.publishes(), kThreads * kKeysPerThread);
  EXPECT_EQ(memo.evictions(), 0u);
}

TEST(MemoShardTest, StatisticsFoldExactlyUnderHammering) {
  // The per-shard relaxed counters must fold to exact totals: counts
  // are increments, only the fold order is relaxed.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kLookups = 1000;
  GlobalMemo memo;
  const GlobalMemoKey key = synthetic_key(42);
  memo.publish(key, solution_with_cost(1.0));
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memo, &key] {
      for (std::uint32_t i = 0; i < kLookups; ++i) {
        ASSERT_TRUE(memo.lookup(key).has_value());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(memo.probes(), kThreads * kLookups);
  EXPECT_EQ(memo.hits(), kThreads * kLookups);
  EXPECT_EQ(memo.publishes(), 1u);
}

}  // namespace
}  // namespace brel
