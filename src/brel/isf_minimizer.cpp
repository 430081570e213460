#include "brel/isf_minimizer.hpp"

#include <span>
#include <stdexcept>
#include <utility>

namespace brel {

namespace {

/// Greedy support reduction (Sec. 7.5): for each variable in ascending
/// variable-id order, drop it when the tightened interval stays
/// non-empty.  The walk is by id, not by the manager's current level
/// order, on purpose: it keeps the reduced interval independent of
/// dynamic reordering (a level walk would eliminate a different set).
/// The node-free leq_flipped test decides each variable; only the ones
/// it passes pay for the ∃/∀ pair.
Isf eliminate_nonessential_vars(const Isf& isf) {
  BddManager& mgr = *isf.min().manager();
  Bdd lower = isf.min();
  Bdd upper = isf.max();
  // Candidate variables: the support of the upper bound, fixed up front.
  const std::vector<std::uint32_t> vars = upper.support();
  for (const std::uint32_t var : vars) {
    if (!mgr.leq_flipped(lower, upper, var)) {
      continue;  // essential
    }
    const std::span<const std::uint32_t> abstracted(&var, 1);
    Bdd new_lower = mgr.exists(lower, abstracted);
    Bdd new_upper = mgr.forall(upper, abstracted);
    if (!mgr.leq(new_lower, new_upper)) {
      throw std::logic_error(
          "eliminate_nonessential_vars: leq_flipped passed an essential "
          "variable");
    }
    lower = std::move(new_lower);
    upper = std::move(new_upper);
  }
  return Isf::interval(std::move(lower), std::move(upper));
}

Bdd run_kernel(IsfMethod method, const Isf& isf) {
  BddManager& mgr = *isf.on().manager();
  switch (method) {
    case IsfMethod::Isop:
      return mgr.isop_function(isf.min(), isf.max());
    case IsfMethod::Constrain: {
      const Bdd care = isf.on() | isf.off();
      return care.is_zero() ? mgr.zero() : mgr.constrain(isf.on(), care);
    }
    case IsfMethod::Restrict: {
      const Bdd care = isf.on() | isf.off();
      return care.is_zero() ? mgr.zero() : mgr.restrict_to(isf.on(), care);
    }
    case IsfMethod::SafeRestrict: {
      const Bdd care = isf.on() | isf.off();
      if (care.is_zero()) {
        return mgr.zero();
      }
      const Bdd candidate = mgr.restrict_to(isf.on(), care);
      // Safe: only accept when the interval holds and the BDD shrank.
      if (isf.contains(candidate) && candidate.size() <= isf.on().size()) {
        return candidate;
      }
      return isf.on();
    }
  }
  throw std::logic_error("IsfMinimizer: unknown method");
}

}  // namespace

Bdd IsfMinimizer::minimize(const Isf& isf) const {
  // Results are memoized in the manager's computed table, keyed on the
  // interval (ON, upper) with the settings as the tag.  An entry lives
  // only until the next garbage collection empties the table, so the
  // memo catches only repeats inside one collection epoch.  The search
  // and quick_solve reach this call only on their BDD path — relations
  // too wide for a relation table, orders that put an output above an
  // input, non-default settings (relation_table.hpp) — so on narrow
  // relations the memo serves direct callers (the service benchmark's
  // minimize probe, say), not the search.
  BddManager& mgr = *isf.on().manager();
  const std::uint32_t tag = (static_cast<std::uint32_t>(method) << 1) |
                            (eliminate_nonessential ? 1u : 0u);
  if (Bdd hit = mgr.minimize_memo_lookup(isf.min(), isf.max(), tag);
      !hit.is_null()) {
    return hit;
  }
  const Isf reduced =
      eliminate_nonessential ? eliminate_nonessential_vars(isf) : isf;
  // Postcondition: the implementation honours the *original* interval.
  // (Support elimination only tightens it, so this always holds.)
  Bdd result = run_kernel(method, reduced);
  mgr.minimize_memo_insert(isf.min(), isf.max(), tag, result);
  return result;
}

IsopResult IsfMinimizer::minimize_to_cover(const Isf& isf) const {
  BddManager& mgr = *isf.on().manager();
  if (method == IsfMethod::Isop) {
    const Isf reduced =
        eliminate_nonessential ? eliminate_nonessential_vars(isf) : isf;
    return mgr.isop(reduced.min(), reduced.max());
  }
  const Bdd f = minimize(isf);
  return mgr.isop(f, f);
}

}  // namespace brel
