#include "brel/global_memo.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "brel/memo_exchange.hpp"

namespace brel {

namespace {

constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

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

std::size_t GlobalMemo::shard_of(const GlobalMemoKey& key) const {
  if (shards_.size() == 1) {
    return 0;
  }
  // TOP bits: FNV-1a's multiply carries every fed word upward, so the
  // high byte is the best-mixed part of the hash.
  return static_cast<std::size_t>(memo_key_hash(key) >> 56) &
         (shards_.size() - 1);
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

std::optional<PortableSolution> GlobalMemo::pull_from_peer(
    MemoExchange& exchange, const GlobalMemoKey& key) {
  std::optional<MemoExportEntry> record = exchange.pull(key);
  if (!record.has_value() || !record->solution.has_solution()) {
    return std::nullopt;
  }
  // Installed before serving, so the next identical probe is a plain
  // local hit.  The local probe already counted this probe's miss.
  (void)install(*record, MemoOrigin::kPeer);
  const Shard& shard = shard_for(key);
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  shard.hits_by_origin[static_cast<std::size_t>(MemoOrigin::kPeer)].fetch_add(
      1, std::memory_order_relaxed);
  return std::move(record->solution);
}

std::optional<PortableSolution> GlobalMemo::lookup(const GlobalMemoKey& key) {
  Shard& shard = shard_for(key);
  shard.probes.fetch_add(1, std::memory_order_relaxed);
  {
    const std::scoped_lock lock(shard.mutex);
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      const Entry& entry = it->second;
      touch(shard, entry);
      if (!entry.solution.has_solution()) {
        return std::nullopt;
      }
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      shard.hits_by_origin[static_cast<std::size_t>(entry.origin)].fetch_add(
          1, std::memory_order_relaxed);
      return entry.solution;
    }
  }
  MemoExchange* const exchange = peer_.load(std::memory_order_acquire);
  if (exchange == nullptr) {
    return std::nullopt;
  }
  return pull_from_peer(*exchange, key);
}

GlobalMemo::Upsert GlobalMemo::upsert(const GlobalMemoKey& key,
                                      const PortableSolution& solution,
                                      std::uint64_t complete_depth,
                                      bool root_exact, MemoOrigin origin) {
  if (shard_capacity_ == 0) {
    return Upsert::kUnchanged;
  }
  Shard& shard = shard_for(key);
  const std::scoped_lock lock(shard.mutex);
  const auto [it, inserted] = shard.map.try_emplace(key);
  Entry& entry = it->second;
  if (!inserted) {
    // Improvements to present entries never evict and keep the entry's
    // mark.  Cost ties fall through to the canonical order so the
    // accumulated winner is independent of which run/worker published
    // first — a served entry must reproduce the exact function a cold
    // deterministic solve would keep.
    touch(shard, entry);
    if (!improves(solution, entry.solution)) {
      return Upsert::kUnchanged;
    }
    entry.solution = solution;
    return Upsert::kImproved;
  }
  entry.solution = solution;
  entry.complete_depth = complete_depth;
  entry.root_exact = root_exact;
  entry.origin = origin;
  shard.lru.push_front(&it->first);
  entry.lru = shard.lru.begin();
  if (shard.map.size() > shard_capacity_) {
    // LRU eviction, per shard: the victim is this shard's entry longest
    // untouched by any lookup/publish (never the one just inserted, which
    // is at the front).
    shard.map.erase(shard.map.find(*shard.lru.back()));
    shard.lru.pop_back();
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return Upsert::kInserted;
}

void GlobalMemo::publish(const GlobalMemoKey& key,
                         const PortableSolution& solution) {
  shard_for(key).publishes.fetch_add(1, std::memory_order_relaxed);
  if (upsert(key, solution, 0, true, MemoOrigin::kRun) == Upsert::kInserted) {
    if (MemoExchange* const exchange =
            peer_.load(std::memory_order_acquire)) {
      exchange->enqueue_push(key);
    }
  }
}

bool GlobalMemo::install(const MemoExportEntry& record, MemoOrigin origin) {
  return upsert(record.key, record.solution, record.complete_depth,
                record.root_exact, origin) != Upsert::kUnchanged;
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
      for (const auto& [key, entry] : shard->map) {
        if (entry.solution.has_solution()) {
          batch.push_back(to_export(key, entry));
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
  const Shard& shard = shard_for(key);
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end() || !it->second.solution.has_solution()) {
    return std::nullopt;
  }
  return to_export(it->first, it->second);
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

std::uint64_t GlobalMemo::hits_from(MemoOrigin origin) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->hits_by_origin[static_cast<std::size_t>(origin)].load(
        std::memory_order_relaxed);
  }
  return total;
}

}  // namespace brel
