#include "brel/global_memo.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "brel/memo_exchange.hpp"

namespace brel {

namespace {

constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

// Process-global creation sequence (see the member-block comment in the
// header): created_seq values are the verification tokens handles carry
// across memo instances, so they must be unique process-wide, not
// per-memo.
std::atomic<std::uint64_t> g_insert_seq{0};

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

std::size_t resolve_shard_count(std::size_t capacity, std::size_t shards) {
  if (shards == 0) {
    // Auto policy: shard the unlimited (service) configuration; keep a
    // finite capacity on one shard for exact global-LRU semantics.
    shards = capacity == kUnlimited ? GlobalMemo::kDefaultShards : 1;
  }
  return std::min(round_up_pow2(shards), GlobalMemo::kMaxShards);
}

std::size_t resolve_shard_capacity(std::size_t capacity,
                                   std::size_t shard_count) {
  if (capacity == kUnlimited) {
    return kUnlimited;
  }
  return (capacity + shard_count - 1) / shard_count;  // ceil; 0 stays 0
}

/// Does `candidate` beat `incumbent` under the publish rules (strictly
/// cheaper, or equal cost and canonically earlier, or incumbent empty)?
bool improves(const PortableSolution& candidate,
              const PortableSolution& incumbent) {
  if (!incumbent.has_solution()) {
    return candidate.has_solution();
  }
  return candidate.cost < incumbent.cost ||
         (candidate.cost == incumbent.cost &&
          canonically_before(candidate, incumbent));
}

}  // namespace

GlobalMemo::GlobalMemo(std::size_t capacity, std::size_t shards)
    : capacity_(capacity),
      shard_capacity_(
          resolve_shard_capacity(capacity,
                                 resolve_shard_count(capacity, shards))) {
  const std::size_t count = resolve_shard_count(capacity, shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::size_t GlobalMemo::shard_of_hash(
    const CanonicalHash128& h) const noexcept {
  if (shards_.size() == 1) {
    return 0;
  }
  // TOP bits of the low word: the map's buckets consume the same word
  // from the bottom (Hash128Hasher), and the word is already a
  // splitmix64 digest, so the top byte is an independent uniform mix —
  // no extra multiply needed.
  return static_cast<std::size_t>(h.lo >> 56) & (shards_.size() - 1);
}

std::size_t GlobalMemo::shard_of(const GlobalMemoKey& key) const noexcept {
  return shard_of_hash(memo_key_hash128(key));
}

std::size_t GlobalMemo::shard_size(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  const std::scoped_lock lock(s.mutex);
  return s.map.size();
}

void GlobalMemo::bind(const MemoFingerprint& fp) {
  const std::scoped_lock lock(meta_mutex_);
  if (!fingerprint_.has_value()) {
    fingerprint_ = fp;
    return;
  }
  if (*fingerprint_ != fp) {
    throw std::invalid_argument(
        "GlobalMemo: memo was stamped for cost '" + fingerprint_->cost_id +
        "' (exact=" + (fingerprint_->exact ? "1" : "0") +
        ") and cannot serve a run with cost '" + fp.cost_id +
        "' or different mode — memoized solutions are only comparable "
        "under the configuration that produced them");
  }
}

std::optional<MemoFingerprint> GlobalMemo::fingerprint() const {
  const std::scoped_lock lock(meta_mutex_);
  return fingerprint_;
}

GlobalMemo::Shard::Map::iterator GlobalMemo::find_verified(
    Shard& shard, std::unique_lock<TimedMutex>& lk,
    const LazyMemoKey& handle) const {
  for (;;) {
    const auto it = shard.map.find(handle.hash);
    if (it == shard.map.end()) {
      // The common case: a hash-only miss.  Nothing was serialized.
      return it;
    }
    Entry& entry = it->second;
    if (handle.verified_seq.load(std::memory_order_relaxed) ==
        entry.created_seq) {
      // This handle already compared equal against this exact entry
      // (created_seq is process-unique); skip even the word-compare.
      return it;
    }
    if (handle.materialized()) {
      if (handle.get() == *entry.key) {
        handle.verified_seq.store(entry.created_seq,
                                  std::memory_order_relaxed);
        return it;
      }
      shard.collisions.fetch_add(1, std::memory_order_relaxed);
      return shard.map.end();
    }
    // Candidate hit on a HASHED handle: materialize OUTSIDE the lock
    // (manager work never runs under a shard mutex) and re-find — the
    // entry may have been evicted or replaced while unlocked.
    lk.unlock();
    (void)handle.get();
    lk.lock();
  }
}

GlobalMemo::Shard::Map::iterator GlobalMemo::find_verified(
    Shard& shard, const CanonicalHash128& hash,
    const GlobalMemoKey& key) const {
  const auto it = shard.map.find(hash);
  if (it == shard.map.end()) {
    return it;
  }
  if (*it->second.key == key) {
    return it;
  }
  shard.collisions.fetch_add(1, std::memory_order_relaxed);
  return shard.map.end();
}

std::optional<PortableSolution> GlobalMemo::serve(const Shard& shard,
                                                  const Entry& entry) const {
  touch(shard, entry);
  if (!entry.solution.has_solution()) {
    return std::nullopt;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  shard.hits_by_origin[static_cast<std::size_t>(entry.origin)].fetch_add(
      1, std::memory_order_relaxed);
  return entry.solution;
}

std::optional<PortableSolution> GlobalMemo::pull_from_peer(
    MemoExchange& exchange, const GlobalMemoKey& key,
    const CanonicalHash128& hash) {
  std::optional<MemoExportEntry> record = exchange.pull(key);
  if (!record.has_value() || !record->solution.has_solution()) {
    return std::nullopt;
  }
  // Installed before serving, so the next identical probe is a plain
  // local hit.  The local probe already counted this probe's miss.
  (void)install(*record, MemoOrigin::kPeer);
  const Shard& shard = *shards_[shard_of_hash(hash)];
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  shard.hits_by_origin[static_cast<std::size_t>(MemoOrigin::kPeer)].fetch_add(
      1, std::memory_order_relaxed);
  return std::move(record->solution);
}

void GlobalMemo::notify_inserted(const GlobalMemoKey& key) const {
  if (MemoExchange* const exchange = peer_.load(std::memory_order_acquire)) {
    exchange->enqueue_push(key);
  }
}

std::optional<PortableSolution> GlobalMemo::lookup(const MemoKeyHandle& key) {
  Shard& shard = *shards_[shard_of_hash(key->hash)];
  shard.probes.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock lk(shard.mutex);
    if (const auto it = find_verified(shard, lk, *key);
        it != shard.map.end()) {
      return serve(shard, it->second);
    }
  }
  // The wire needs the full canonical form, so a miss materializes the
  // handle only when a peer is wired; a plain local miss stays hash-only.
  MemoExchange* const exchange = peer_.load(std::memory_order_acquire);
  if (exchange == nullptr) {
    return std::nullopt;
  }
  return pull_from_peer(*exchange, key->get(), key->hash);
}

std::optional<PortableSolution> GlobalMemo::lookup(const GlobalMemoKey& key) {
  const CanonicalHash128 hash = memo_key_hash128(key);
  Shard& shard = *shards_[shard_of_hash(hash)];
  shard.probes.fetch_add(1, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(shard.mutex);
    if (const auto it = find_verified(shard, hash, key);
        it != shard.map.end()) {
      return serve(shard, it->second);
    }
  }
  MemoExchange* const exchange = peer_.load(std::memory_order_acquire);
  if (exchange == nullptr) {
    return std::nullopt;
  }
  return pull_from_peer(*exchange, key, hash);
}

GlobalMemo::Entry* GlobalMemo::emplace_entry(
    Shard& shard, const CanonicalHash128& hash,
    std::shared_ptr<const GlobalMemoKey> key, MemoOrigin origin) {
  if (shard_capacity_ == 0) {
    return nullptr;
  }
  if (shard.map.size() >= shard_capacity_) {
    // LRU eviction, per shard: the victim is this shard's entry longest
    // untouched by any lookup/publish.
    shard.map.erase(shard.lru.back());
    shard.lru.pop_back();
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  Entry fresh;
  fresh.key = std::move(key);
  fresh.origin = origin;
  fresh.created_seq = g_insert_seq.fetch_add(1) + 1;
  fresh.lru = shard.lru.end();
  const auto it = shard.map.emplace(hash, std::move(fresh)).first;
  shard.lru.push_front(hash);
  it->second.lru = shard.lru.begin();
  return &it->second;
}

void GlobalMemo::publish(const MemoKeyHandle& key,
                         const PortableSolution& solution) {
  Shard& shard = *shards_[shard_of_hash(key->hash)];
  shard.publishes.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lk(shard.mutex);
  for (;;) {
    const auto it = find_verified(shard, lk, *key);
    if (it != shard.map.end()) {
      touch(shard, it->second);
      if (improves(solution, it->second.solution)) {
        it->second.solution = solution;
      }
      return;
    }
    if (shard.map.find(key->hash) != shard.map.end()) {
      // The hash is held by a DIFFERENT key (find_verified counted the
      // collision): first key wins, the publish is dropped.  Costs a
      // memo entry, never correctness.
      return;
    }
    if (key->materialized()) {
      break;
    }
    // First insert of a HASHED handle: this is the one sanctioned
    // materialization point of the publish path — outside the lock,
    // re-checking for a raced insert after relocking.
    lk.unlock();
    (void)key->get();
    lk.lock();
  }
  Entry* entry =
      emplace_entry(shard, key->hash, key->shared_key(), MemoOrigin::kRun);
  if (entry == nullptr) {
    return;
  }
  entry->solution = solution;
  key->verified_seq.store(entry->created_seq, std::memory_order_relaxed);
  lk.unlock();
  notify_inserted(key->get());
}

GlobalMemo::Upsert GlobalMemo::upsert(const CanonicalHash128& hash,
                                      const GlobalMemoKey& key,
                                      const PortableSolution& solution,
                                      std::uint64_t complete_depth,
                                      bool root_exact, MemoOrigin origin) {
  Shard& shard = *shards_[shard_of_hash(hash)];
  const std::scoped_lock lock(shard.mutex);
  if (const auto it = find_verified(shard, hash, key);
      it != shard.map.end()) {
    // Improvements to present entries never evict and keep the entry's
    // mark.  Cost ties fall through to the canonical order so the
    // accumulated winner is independent of which run/worker published
    // first — a served entry must reproduce the exact function a cold
    // deterministic solve would keep.
    touch(shard, it->second);
    if (!improves(solution, it->second.solution)) {
      return Upsert::kUnchanged;
    }
    it->second.solution = solution;
    return Upsert::kImproved;
  }
  if (shard.map.find(hash) != shard.map.end()) {
    return Upsert::kUnchanged;  // collision: first key wins
  }
  Entry* entry = emplace_entry(
      shard, hash, std::make_shared<const GlobalMemoKey>(key), origin);
  if (entry == nullptr) {
    return Upsert::kUnchanged;
  }
  entry->solution = solution;
  entry->complete_depth = complete_depth;
  entry->root_exact = root_exact;
  return Upsert::kInserted;
}

void GlobalMemo::publish(const GlobalMemoKey& key,
                         const PortableSolution& solution) {
  const CanonicalHash128 hash = memo_key_hash128(key);
  shards_[shard_of_hash(hash)]->publishes.fetch_add(1,
                                                    std::memory_order_relaxed);
  if (upsert(hash, key, solution, 0, true, MemoOrigin::kRun) ==
      Upsert::kInserted) {
    notify_inserted(key);
  }
}

bool GlobalMemo::install(const MemoExportEntry& record, MemoOrigin origin) {
  return upsert(memo_key_hash128(record.key), record.key, record.solution,
                record.complete_depth, record.root_exact,
                origin) != Upsert::kUnchanged;
}

void GlobalMemo::export_entries(
    const std::function<void(const MemoExportEntry&)>& sink) const {
  for (const auto& shard : shards_) {
    // Copy the entries out under the lock, emit after: the sink
    // serializes (snapshot) — never under a shard mutex the hot path
    // contends on.
    std::vector<MemoExportEntry> batch;
    {
      const std::scoped_lock lock(shard->mutex);
      for (const auto& [hash, entry] : shard->map) {
        if (entry.solution.has_solution()) {
          batch.push_back(to_export(entry));
        }
      }
    }
    for (const MemoExportEntry& record : batch) {
      sink(record);
    }
  }
}

std::optional<MemoExportEntry> GlobalMemo::export_entry(
    const GlobalMemoKey& key) const {
  const CanonicalHash128 hash = memo_key_hash128(key);
  Shard& shard = *shards_[shard_of_hash(hash)];
  const std::scoped_lock lock(shard.mutex);
  const auto it = find_verified(shard, hash, key);
  if (it == shard.map.end() || !it->second.solution.has_solution()) {
    return std::nullopt;
  }
  return to_export(it->second);
}

void GlobalMemo::set_peer(MemoExchange* exchange) {
  peer_.store(exchange, std::memory_order_release);
}

std::size_t GlobalMemo::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

std::uint64_t GlobalMemo::hits() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->hits.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t GlobalMemo::probes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->probes.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t GlobalMemo::publishes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->publishes.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t GlobalMemo::evictions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->evictions.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t GlobalMemo::collisions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->collisions.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t GlobalMemo::hits_from(MemoOrigin origin) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->hits_by_origin[static_cast<std::size_t>(origin)].load(
        std::memory_order_relaxed);
  }
  return total;
}

}  // namespace brel
