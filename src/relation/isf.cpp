#include "relation/isf.hpp"

#include <stdexcept>
#include <utility>

namespace brel {

namespace {

BddManager& shared_manager(const Bdd& a, const Bdd& b, const char* what) {
  if (a.is_null() || b.is_null() || a.manager() != b.manager()) {
    throw std::invalid_argument(what);
  }
  return *a.manager();
}

}  // namespace

Isf::Isf(const Bdd& on, const Bdd& dc) {
  BddManager& mgr = shared_manager(on, dc, "Isf: ON/DC must share a manager");
  if (!mgr.leq(on, !dc)) {
    throw std::invalid_argument("Isf: ON and DC sets must be disjoint");
  }
  lower_ = on;
  upper_ = on | dc;
}

Isf Isf::interval(Bdd lower, Bdd upper) {
  BddManager& mgr = shared_manager(lower, upper,
                                   "Isf: bounds must share a manager");
  if (!mgr.leq(lower, upper)) {
    throw std::invalid_argument("Isf: empty interval (lower not in upper)");
  }
  Isf isf;
  isf.lower_ = std::move(lower);
  isf.upper_ = std::move(upper);
  return isf;
}

bool Isf::contains(const Bdd& f) const {
  return lower_.subset_of(f) && f.subset_of(upper_);
}

}  // namespace brel
