#pragma once
/// \file isf_minimizer.hpp
/// BDD-based ISF minimization strategies (Sec. 7.5, Table 1).
///
/// Every strategy returns an implementation of the ISF — a completely
/// specified function inside [ON, ON ∪ DC] — using the don't-care
/// flexibility to reduce complexity.  The paper's default (and Table 1
/// reference) is ISOP extraction after greedily eliminating non-essential
/// variables.

#include "bdd/bdd.hpp"
#include "relation/isf.hpp"

namespace brel {

/// The minimization kernels compared in Table 1.
enum class IsfMethod {
  Isop,         ///< Minato-Morreale irredundant SOP [24]
  Constrain,    ///< generalized cofactor constrain [13], [14]
  Restrict,     ///< sibling-substitution restrict [13], [14]
  SafeRestrict, ///< interval-safe, never-larger restrict (LICompact [19]
                ///< substitute; see DESIGN.md substitution 6)
};

/// Configuration + entry point for ISF minimization.
struct IsfMinimizer {
  IsfMethod method = IsfMethod::Isop;
  /// Greedy top-to-bottom elimination of non-essential variables before
  /// the kernel runs (Sec. 7.5; rows "+elim" of Table 1).
  bool eliminate_nonessential = true;

  /// Minimize `isf`; the result always lies in [isf.min(), isf.max()].
  [[nodiscard]] Bdd minimize(const Isf& isf) const;

  /// The default settings (ISOP after elimination): the only ones the
  /// relation tables implement (relation/relation_table.hpp), so the
  /// only ones under which the search and quick_solve run on them.
  [[nodiscard]] bool has_table_path() const noexcept {
    return method == IsfMethod::Isop && eliminate_nonessential;
  }

  /// Like minimize() but also reports the ISOP cover when the kernel
  /// produces one (other kernels get a cover via a final exact ISOP).
  [[nodiscard]] IsopResult minimize_to_cover(const Isf& isf) const;
};

}  // namespace brel
