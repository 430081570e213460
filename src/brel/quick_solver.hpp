#pragma once
/// \file quick_solver.hpp
/// The naive BR solver of Fig. 4 (Sec. 6.2): minimize the outputs one by
/// one, each time propagating the chosen function as a constraint on the
/// remaining relation.  Fast, always returns a compatible function for a
/// well-defined relation, but order-dependent and often unbalanced — the
/// weaknesses that motivate the recursive paradigm (Example 6.1).
///
/// The BREL solver also runs QuickSolver on every subrelation it creates
/// so that a compatible solution exists no matter where the exploration
/// budget runs out (Secs. 7.2 and 7.6).

#include "brel/isf_minimizer.hpp"
#include "relation/relation.hpp"
#include "relation/relation_table.hpp"

namespace brel {

/// Solve `r` output-by-output in index order.  Throws std::invalid_argument
/// when `r` is not well defined (IF(R) is empty then).  Under the default
/// minimizer a narrow relation is solved on its truth table
/// (RelationTable::quick_solve, the same edges); the overload taking
/// `table` loads r into it, reusing its storage.
[[nodiscard]] MultiFunction quick_solve(const BooleanRelation& r,
                                        const IsfMinimizer& minimizer = {});
[[nodiscard]] MultiFunction quick_solve(const BooleanRelation& r,
                                        const IsfMinimizer& minimizer,
                                        RelationTable& table);
/// quick_solve on BDDs at every width — the reference the table path is
/// tested and measured against.
[[nodiscard]] MultiFunction quick_solve_bdd(const BooleanRelation& r,
                                            const IsfMinimizer& minimizer = {});

}  // namespace brel
