#pragma once
/// \file truth_table.hpp
/// Word-parallel truth tables: the word format shared by the truth-table
/// ISOP (BddManager::isop_function) and the relation kernels
/// (relation/relation_table.hpp).
///
/// A table over k positions holds one bit per assignment: bit i is the
/// value at the assignment whose position p is bit p of i.  A table over
/// k <= 6 positions is one 64-bit word, replicated above bit 2^k (it does
/// not depend on the positions it lacks); a wider one is 2^(k-6) words,
/// position p >= 6 selecting the upper half of each block of 2^(p-5)
/// words.  Which variable a position stands for is the caller's layout:
/// BddManager::table_of and BddManager::bdd_of_table convert between a
/// BDD and a table over an explicit layout.

#include <cstddef>
#include <cstdint>

namespace brel::tt {

/// kVarMask[p]: the bits (assignments) of a word where position p is 1.
inline constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
inline constexpr std::uint64_t kAllOnes = ~0ull;

/// Words of a table over k positions.
constexpr std::size_t table_words(std::uint32_t k) noexcept {
  return k <= 6 ? 1 : std::size_t{1} << (k - 6);
}

/// Cofactors of a word at position p < 6, replicated over p.
constexpr std::uint64_t word_cofactor0(std::uint64_t t,
                                       std::uint32_t p) noexcept {
  const std::uint64_t half = t & ~kVarMask[p];
  return half | (half << (1u << p));
}
constexpr std::uint64_t word_cofactor1(std::uint64_t t,
                                       std::uint32_t p) noexcept {
  const std::uint64_t half = t & kVarMask[p];
  return half | (half >> (1u << p));
}

/// The word whose low 2^k bits are those of `w`, replicated above (k < 6).
constexpr std::uint64_t replicate(std::uint64_t w, std::uint32_t k) noexcept {
  for (std::uint32_t p = k; p < 6; ++p) {
    w = (w & ~kVarMask[p]) | ((w & ~kVarMask[p]) << (1u << p));
  }
  return w;
}

/// Calls visit(lo, hi) for every pair of words of a table over k
/// positions that differ only in position p >= 6 (lo at p = 0).
template <typename Word, typename Visit>
void for_each_half(Word* t, std::uint32_t k, std::uint32_t p, Visit&& visit) {
  const std::size_t stride = std::size_t{1} << (p - 6);
  const std::size_t n = table_words(k);
  for (std::size_t j = 0; j < n; j += 2 * stride) {
    for (std::size_t s = j; s < j + stride; ++s) {
      visit(t[s], t[s + stride]);
    }
  }
}

/// True iff the table over k positions depends on position p.
inline bool depends_on(const std::uint64_t* t, std::uint32_t k,
                       std::uint32_t p) {
  if (p < 6) {
    for (std::size_t i = 0; i < table_words(k); ++i) {
      if (word_cofactor0(t[i], p) != word_cofactor1(t[i], p)) {
        return true;
      }
    }
    return false;
  }
  bool differ = false;
  for_each_half(t, k, p, [&](std::uint64_t lo, std::uint64_t hi) {
    differ = differ || lo != hi;
  });
  return differ;
}

/// l <= u with position p flipped in u: l|p=1 <= u|p=0 and l|p=0 <= u|p=1
/// (the essential-variable test of ISF support reduction).
inline bool leq_flipped(const std::uint64_t* l, const std::uint64_t* u,
                        std::uint32_t k, std::uint32_t p) {
  const std::size_t n = table_words(k);
  if (p < 6) {
    const std::uint32_t shift = 1u << p;
    for (std::size_t i = 0; i < n; ++i) {
      // Swapping the halves of u at p flips p.
      const std::uint64_t flipped = ((u[i] & kVarMask[p]) >> shift) |
                                    ((u[i] & ~kVarMask[p]) << shift);
      if ((l[i] & ~flipped) != 0) {
        return false;
      }
    }
    return true;
  }
  const std::size_t stride = std::size_t{1} << (p - 6);
  for (std::size_t j = 0; j < n; j += 2 * stride) {
    for (std::size_t s = j; s < j + stride; ++s) {
      if ((l[s] & ~u[s + stride]) != 0 || (l[s + stride] & ~u[s]) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// ∃p (resp. ∀p) of a table over k positions, in place.
inline void exists_position(std::uint64_t* t, std::uint32_t k,
                            std::uint32_t p) {
  if (p < 6) {
    for (std::size_t i = 0; i < table_words(k); ++i) {
      t[i] = word_cofactor0(t[i], p) | word_cofactor1(t[i], p);
    }
    return;
  }
  for_each_half(t, k, p, [](std::uint64_t& lo, std::uint64_t& hi) {
    lo = hi = lo | hi;
  });
}
inline void forall_position(std::uint64_t* t, std::uint32_t k,
                            std::uint32_t p) {
  if (p < 6) {
    for (std::size_t i = 0; i < table_words(k); ++i) {
      t[i] = word_cofactor0(t[i], p) & word_cofactor1(t[i], p);
    }
    return;
  }
  for_each_half(t, k, p, [](std::uint64_t& lo, std::uint64_t& hi) {
    lo = hi = lo & hi;
  });
}

/// The ISOP function of the interval [l, u] (tables over k positions)
/// into f: the same function as BddManager::isop_function of the two
/// bounds under a layout whose positions ascend with the level from the
/// deepest (positions neither bound depends on are skipped, so a layout
/// wider than the support changes nothing).  `scratch` holds
/// 3 * table_words(k) words.
void isop_words(const std::uint64_t* l, const std::uint64_t* u,
                std::uint64_t* f, std::uint32_t k, std::uint64_t* scratch);

}  // namespace brel::tt
