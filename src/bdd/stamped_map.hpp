#pragma once
/// \file stamped_map.hpp
/// Reusable traversal scratch for the BDD manager: an open-addressing map
/// whose entries are forgotten in O(1) between traversals.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace brel::detail {

/// Open-addressing map from a 32-bit key (a node index or an edge) to a
/// 64-bit value.  Every slot carries the stamp of the traversal that
/// wrote it, so clear() forgets all entries by bumping the stamp instead
/// of touching memory.  The slot array only grows — to twice the largest
/// entry count any traversal reached — so a warm map allocates nothing,
/// and its footprint follows the largest DAG walked, not the node store.
class StampedMap {
 public:
  /// Forget every entry.  O(1) except once every 2^32 calls, when the
  /// stamp wraps and the slot stamps are reset.
  void clear() noexcept {
    count_ = 0;
    if (++stamp_ == 0) {
      for (Slot& slot : slots_) {
        slot.stamp = 0;
      }
      stamp_ = 1;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// The value stored under `key`, or nullptr.  The pointer is
  /// invalidated by the next insert().
  [[nodiscard]] std::uint64_t* find(std::uint32_t key) noexcept {
    if (slots_.empty()) {
      return nullptr;
    }
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_) {
        return nullptr;
      }
      if (slot.key == key) {
        return &slot.value;
      }
    }
  }

  /// Insert (key, value) unless `key` is present; true iff inserted.
  bool insert(std::uint32_t key, std::uint64_t value) {
    if ((count_ + 1) * 2 > slots_.size()) {
      grow();
    }
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_) {
        slot = Slot{stamp_, key, value};
        ++count_;
        return true;
      }
      if (slot.key == key) {
        return false;
      }
    }
  }

 private:
  struct Slot {
    std::uint32_t stamp = 0;
    std::uint32_t key = 0;
    std::uint64_t value = 0;
  };
  static constexpr unsigned kInitialLog2 = 8;

  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  [[nodiscard]] std::size_t home(std::uint32_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    (64 - log2_));
  }

  /// Double the slot array and re-insert the current traversal's entries.
  void grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    log2_ = old.empty() ? kInitialLog2 : log2_ + 1;
    slots_.assign(std::size_t{1} << log2_, Slot{});
    mask_ = slots_.size() - 1;
    const std::uint32_t stamp = stamp_;
    stamp_ = 1;
    count_ = 0;
    for (const Slot& slot : old) {
      if (slot.stamp == stamp) {
        insert(slot.key, slot.value);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned log2_ = 0;
  std::uint32_t stamp_ = 1;  ///< fresh slots carry stamp 0: never valid
  std::size_t count_ = 0;
};

}  // namespace brel::detail
