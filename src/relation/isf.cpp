#include "relation/isf.hpp"

#include <stdexcept>
#include <utility>

namespace brel {

Isf::Isf(Bdd on, Bdd dc) : on_(std::move(on)), dc_(std::move(dc)) {
  if (on_.is_null() || dc_.is_null() || on_.manager() != dc_.manager()) {
    throw std::invalid_argument("Isf: ON/DC must share a manager");
  }
  if (!(on_ & dc_).is_zero()) {
    throw std::invalid_argument("Isf: ON and DC sets must be disjoint");
  }
  off_ = !(on_ | dc_);
}

bool Isf::contains(const Bdd& f) const {
  return on_.subset_of(f) && f.subset_of(max());
}

std::optional<Isf> Isf::eliminate_var(std::uint32_t var) const {
  BddManager& mgr = *on_.manager();
  const std::span<const std::uint32_t> vars(&var, 1);
  Bdd new_min = mgr.exists(on_, vars);
  const Bdd new_max = mgr.forall(max(), vars);
  if (!new_min.subset_of(new_max)) {
    return std::nullopt;
  }
  Bdd new_dc = new_max & !new_min;
  return Isf(std::move(new_min), std::move(new_dc));
}

}  // namespace brel
