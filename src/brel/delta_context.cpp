#include "brel/delta_context.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace brel {

namespace {

bool ranks_equal(const std::vector<std::uint32_t>& a,
                 std::span<const std::uint32_t> b) noexcept {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

const SerializedBdd* DeltaRegistry::find_base(
    std::span<const std::uint32_t> input_ranks,
    std::span<const std::uint32_t> output_ranks) const {
  for (const BaseEntry& base : bases_) {
    if (base.has_chi && ranks_equal(base.input_ranks, input_ranks) &&
        ranks_equal(base.output_ranks, output_ranks)) {
      return &base.chi;
    }
  }
  return nullptr;
}

const std::vector<std::uint32_t>* DeltaRegistry::find_order(
    const std::vector<std::uint32_t>& input_ranks,
    const std::vector<std::uint32_t>& output_ranks) const {
  for (const BaseEntry& base : bases_) {
    if (base.input_ranks == input_ranks &&
        base.output_ranks == output_ranks) {
      return base.order.empty() ? nullptr : &base.order;
    }
  }
  return nullptr;
}

DeltaRegistry::BaseEntry& DeltaRegistry::entry_for(
    std::span<const std::uint32_t> input_ranks,
    std::span<const std::uint32_t> output_ranks) {
  ++next_stamp_;
  for (BaseEntry& base : bases_) {
    if (ranks_equal(base.input_ranks, input_ranks) &&
        ranks_equal(base.output_ranks, output_ranks)) {
      base.stamp = next_stamp_;
      return base;
    }
  }
  if (bases_.size() >= capacity_) {
    const auto victim = std::min_element(
        bases_.begin(), bases_.end(),
        [](const BaseEntry& a, const BaseEntry& b) {
          return a.stamp < b.stamp;
        });
    bases_.erase(victim);
  }
  BaseEntry fresh;
  fresh.input_ranks.assign(input_ranks.begin(), input_ranks.end());
  fresh.output_ranks.assign(output_ranks.begin(), output_ranks.end());
  fresh.stamp = next_stamp_;
  bases_.push_back(std::move(fresh));
  return bases_.back();
}

void DeltaRegistry::remember(const GlobalMemoKey& key) {
  BaseEntry& base = entry_for(key.input_ranks(), key.output_ranks());
  base.chi = key.chi();
  base.has_chi = true;
}

void DeltaRegistry::remember_order(
    const std::vector<std::uint32_t>& input_ranks,
    const std::vector<std::uint32_t>& output_ranks,
    std::vector<std::uint32_t> order) {
  BaseEntry& base = entry_for(input_ranks, output_ranks);
  base.order = std::move(order);
}

bool resolve_incremental(bool configured) {
  const char* env = std::getenv("BREL_INCREMENTAL");
  if (env == nullptr) {
    return configured;
  }
  if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0) {
    return false;
  }
  if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0) {
    return true;
  }
  return configured;  // unknown value: keep the configured mode
}

}  // namespace brel
