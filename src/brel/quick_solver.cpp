#include "brel/quick_solver.hpp"

#include <stdexcept>

namespace brel {

MultiFunction quick_solve(const BooleanRelation& r,
                          const IsfMinimizer& minimizer) {
  RelationTable table;
  return quick_solve(r, minimizer, table);
}

MultiFunction quick_solve(const BooleanRelation& r,
                          const IsfMinimizer& minimizer,
                          RelationTable& table) {
  if (!minimizer.has_table_path() || !table.load(r)) {
    return quick_solve_bdd(r, minimizer);
  }
  if (!table.well_defined()) {
    throw std::invalid_argument("quick_solve: relation is not well defined");
  }
  return table.quick_solve();
}

MultiFunction quick_solve_bdd(const BooleanRelation& r,
                              const IsfMinimizer& minimizer) {
  if (!r.is_well_defined()) {
    throw std::invalid_argument("quick_solve: relation is not well defined");
  }
  BddManager& mgr = r.manager();
  BooleanRelation current = r;
  MultiFunction result;
  result.outputs.reserve(r.num_outputs());
  for (std::size_t i = 0; i < r.num_outputs(); ++i) {
    const Isf isf = current.project_output(i);
    Bdd f = minimizer.minimize(isf);
    result.outputs.push_back(f);
    // Propagate the choice: R := R ∧ (y_i ≡ F_i).  The projection interval
    // guarantees the constrained relation stays well defined.
    current = current.constrain_with(mgr.var(r.outputs()[i]).iff(f));
  }
  return result;
}

}  // namespace brel
