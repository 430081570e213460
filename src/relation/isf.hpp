#pragma once
/// \file isf.hpp
/// Incompletely specified functions (Def. 4.4): an interval of Boolean
/// functions over the input variables.

#include "bdd/bdd.hpp"

namespace brel {

/// An ISF f : B^n -> {0, 1, -}, stored as the interval [lower, upper] of
/// its implementations: ON = lower, DC = upper ∧ ¬lower, OFF = ¬upper.
/// Invariant: lower ⊆ upper, so the three sets are pairwise disjoint and
/// jointly cover the input space.
class Isf {
 public:
  /// Build from ON and DC sets.  Throws if ON ∧ DC != 0.
  Isf(const Bdd& on, const Bdd& dc);

  /// The ISF of all functions in [lower, upper].  Throws if the interval
  /// is empty (lower ⊄ upper).
  static Isf interval(Bdd lower, Bdd upper);

  /// The ISF that fixes exactly the function `f` (empty DC).
  static Isf exact(const Bdd& f) { return interval(f, f); }

  [[nodiscard]] const Bdd& on() const noexcept { return lower_; }
  /// Computed on each call (one AND); callers that only need bounds use
  /// min()/max().
  [[nodiscard]] Bdd dc() const { return upper_ & !lower_; }
  [[nodiscard]] Bdd off() const { return !upper_; }

  /// Interval bounds: every implementation f satisfies min <= f <= max.
  [[nodiscard]] const Bdd& min() const noexcept { return lower_; }
  [[nodiscard]] const Bdd& max() const noexcept { return upper_; }

  /// True iff `f` is an implementation of this ISF (ON ⊆ f ⊆ ON ∪ DC).
  [[nodiscard]] bool contains(const Bdd& f) const;

  /// True iff the interval pins down a single function (DC empty).
  [[nodiscard]] bool is_completely_specified() const {
    return lower_ == upper_;
  }

 private:
  Isf() = default;

  Bdd lower_;
  Bdd upper_;
};

}  // namespace brel
