#pragma once
/// \file isf.hpp
/// Incompletely specified functions (Def. 4.4): an interval of Boolean
/// functions given by ON / DC / OFF sets over the input variables.

#include <cstdint>
#include <optional>

#include "bdd/bdd.hpp"

namespace brel {

/// An ISF f : B^n -> {0, 1, -}.  Invariants: the three sets are pairwise
/// disjoint and jointly cover the full input space (OFF is derived).
class Isf {
 public:
  /// Build from ON and DC sets; OFF = !(ON | DC).  Throws if ON ∧ DC != 0.
  Isf(Bdd on, Bdd dc);

  /// The ISF that fixes exactly the function `f` (empty DC).
  static Isf exact(const Bdd& f) { return Isf(f, f.manager()->zero()); }

  [[nodiscard]] const Bdd& on() const noexcept { return on_; }
  [[nodiscard]] const Bdd& dc() const noexcept { return dc_; }
  [[nodiscard]] const Bdd& off() const noexcept { return off_; }

  /// Interval bounds: every implementation f satisfies min <= f <= max.
  [[nodiscard]] const Bdd& min() const noexcept { return on_; }
  [[nodiscard]] Bdd max() const { return on_ | dc_; }

  /// True iff `f` is an implementation of this ISF (ON ⊆ f ⊆ ON ∪ DC).
  [[nodiscard]] bool contains(const Bdd& f) const;

  /// True iff the interval pins down a single function (DC empty).
  [[nodiscard]] bool is_completely_specified() const { return dc_.is_zero(); }

  /// Existentially/universally abstract `var` from the interval bounds,
  /// i.e. the tightened ISF [∃var ON, ∀var (ON ∪ DC)].  That interval is
  /// non-empty — `var` is non-essential (Sec. 7.5) — iff
  /// ∃var ON ⊆ ∀var (ON ∪ DC); for an essential `var` the result is
  /// std::nullopt.
  [[nodiscard]] std::optional<Isf> eliminate_var(std::uint32_t var) const;

 private:
  Bdd on_;
  Bdd dc_;
  Bdd off_;
};

}  // namespace brel
