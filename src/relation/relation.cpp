#include "relation/relation.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace brel {

namespace {

/// Minterm BDD for a full assignment restricted to `vars`.
Bdd vertex_bdd(BddManager& mgr, const std::vector<std::uint32_t>& vars,
               const std::vector<bool>& assignment) {
  Bdd acc = mgr.one();
  for (const std::uint32_t v : vars) {
    acc = acc & mgr.literal(v, assignment.at(v));
  }
  return acc;
}

}  // namespace

BooleanRelation::BooleanRelation(BddManager& mgr,
                                 std::vector<std::uint32_t> inputs,
                                 std::vector<std::uint32_t> outputs,
                                 Bdd characteristic)
    : mgr_(&mgr),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)),
      chi_(std::move(characteristic)) {
  if (chi_.is_null() || chi_.manager() != mgr_) {
    throw std::invalid_argument(
        "BooleanRelation: characteristic from a different manager");
  }
  std::vector<std::uint32_t> all = inputs_;
  all.insert(all.end(), outputs_.begin(), outputs_.end());
  std::sort(all.begin(), all.end());
  if (std::adjacent_find(all.begin(), all.end()) != all.end()) {
    throw std::invalid_argument(
        "BooleanRelation: input/output variables must be distinct");
  }
  for (const std::uint32_t v : all) {
    if (v >= mgr_->num_vars()) {
      throw std::out_of_range("BooleanRelation: unknown variable");
    }
  }
}

BooleanRelation BooleanRelation::full(BddManager& mgr,
                                      std::vector<std::uint32_t> inputs,
                                      std::vector<std::uint32_t> outputs) {
  return BooleanRelation(mgr, std::move(inputs), std::move(outputs),
                         mgr.one());
}

BooleanRelation BooleanRelation::from_table(
    BddManager& mgr, std::vector<std::uint32_t> inputs,
    std::vector<std::uint32_t> outputs,
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        rows) {
  Bdd chi = mgr.zero();
  for (const auto& [input_text, output_texts] : rows) {
    const Cube input_cube = Cube::parse(input_text);
    if (input_cube.num_vars() != inputs.size()) {
      throw std::invalid_argument("from_table: input vertex width mismatch");
    }
    const Bdd x = mgr.cube_bdd(input_cube, inputs);
    Bdd image = mgr.zero();
    for (const std::string& output_text : output_texts) {
      const Cube output_cube = Cube::parse(output_text);
      if (output_cube.num_vars() != outputs.size()) {
        throw std::invalid_argument(
            "from_table: output vertex width mismatch");
      }
      image = image | mgr.cube_bdd(output_cube, outputs);
    }
    chi = chi | (x & image);
  }
  return BooleanRelation(mgr, std::move(inputs), std::move(outputs),
                         std::move(chi));
}

bool BooleanRelation::operator==(const BooleanRelation& other) const {
  return mgr_ == other.mgr_ && inputs_ == other.inputs_ &&
         outputs_ == other.outputs_ && chi_ == other.chi_;
}

namespace {

void require_same_spaces(const BooleanRelation& a, const BooleanRelation& b,
                         const char* op) {
  if (&a.manager() != &b.manager() || a.inputs() != b.inputs() ||
      a.outputs() != b.outputs()) {
    throw std::invalid_argument(std::string(op) +
                                ": relations over different spaces");
  }
}

}  // namespace

BooleanRelation BooleanRelation::intersect_with(
    const BooleanRelation& other) const {
  require_same_spaces(*this, other, "intersect_with");
  return BooleanRelation(*mgr_, inputs_, outputs_,
                         chi_ & other.chi_);
}

BooleanRelation BooleanRelation::union_with(
    const BooleanRelation& other) const {
  require_same_spaces(*this, other, "union_with");
  return BooleanRelation(*mgr_, inputs_, outputs_,
                         chi_ | other.chi_);
}

bool BooleanRelation::subset_of(const BooleanRelation& other) const {
  require_same_spaces(*this, other, "subset_of");
  return chi_.subset_of(other.chi_);
}

bool BooleanRelation::is_well_defined() const {
  return input_domain().is_one();
}

Bdd BooleanRelation::input_domain() const {
  return mgr_->exists(chi_, outputs_);
}

bool BooleanRelation::is_function() const {
  if (!is_well_defined()) {
    return false;
  }
  const std::uint32_t total =
      static_cast<std::uint32_t>(inputs_.size() + outputs_.size());
  double expected = 1.0;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    expected *= 2.0;
  }
  return mgr_->sat_count(chi_, total) == expected;
}

MultiFunction BooleanRelation::extract_function() const {
  if (!is_function()) {
    throw std::logic_error("extract_function: relation is not a function");
  }
  MultiFunction f;
  f.outputs.reserve(outputs_.size());
  for (const std::uint32_t y : outputs_) {
    f.outputs.push_back(mgr_->exists(chi_ & mgr_->var(y), outputs_));
  }
  return f;
}

Isf BooleanRelation::project_output(std::size_t output_index) const {
  const std::uint32_t y = outputs_.at(output_index);
  std::vector<std::uint32_t> others;
  for (const std::uint32_t v : outputs_) {
    if (v != y) {
      others.push_back(v);
    }
  }
  const Bdd projection = mgr_->exists(chi_, others);  // P(X, y_i)
  // Single-variable cofactors: the dedicated kernel, not the generalized
  // constrain over a literal (identical result, far cheaper recursion).
  const Bdd allows_one = mgr_->cofactor(projection, y, true);
  const Bdd allows_zero = mgr_->cofactor(projection, y, false);
  // ON: only 1 allowed; OFF: only 0 allowed; DC: both — so the interval
  // is [allows_one ∧ ¬allows_zero, allows_one].
  return Isf::interval(allows_one & !allows_zero, allows_one);
}

BooleanRelation BooleanRelation::misf() const {
  Bdd chi = mgr_->one();
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    const Isf isf = project_output(i);
    const Bdd y = mgr_->var(outputs_[i]);
    // F_yi as a relation (Def. 4.8): y=1 allowed on ON ∪ DC (the upper
    // bound), y=0 on OFF ∪ DC (the complement of ON).
    chi = chi & ((y & isf.max()) | ((!y) & !isf.on()));
  }
  return BooleanRelation(*mgr_, inputs_, outputs_, std::move(chi));
}

bool BooleanRelation::is_misf() const { return chi_ == misf().chi_; }

Bdd BooleanRelation::function_characteristic(const MultiFunction& f) const {
  if (f.outputs.size() != outputs_.size()) {
    throw std::invalid_argument(
        "function_characteristic: output count mismatch");
  }
  Bdd chi = mgr_->one();
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    chi = chi & mgr_->var(outputs_[i]).iff(f.outputs[i]);
  }
  return chi;
}

bool BooleanRelation::is_compatible(const MultiFunction& f) const {
  return incompatibilities(f).is_zero();
}

Bdd BooleanRelation::incompatibilities(const MultiFunction& f) const {
  return function_characteristic(f) & !chi_;
}

bool BooleanRelation::can_split(const std::vector<bool>& x,
                                std::size_t output_index) const {
  // Theorem 5.2: (R ↓ y_i)(x) = {0, 1}, i.e. the image R(x) — χ
  // cofactored along x — holds a point with y_i = 1 and one with y_i = 0.
  const std::uint32_t y = outputs_.at(output_index);
  Bdd image = chi_;
  for (const std::uint32_t v : inputs_) {
    image = mgr_->cofactor(image, v, x.at(v));
  }
  return !mgr_->cofactor(image, y, true).is_zero() &&
         !mgr_->cofactor(image, y, false).is_zero();
}

std::pair<Bdd, Bdd> BooleanRelation::split_removals(
    const std::vector<bool>& x, std::size_t output_index) const {
  const Bdd vertex = vertex_bdd(*mgr_, inputs_, x);
  const Bdd y = mgr_->var(outputs_.at(output_index));
  return {vertex & y, vertex & !y};
}

std::pair<BooleanRelation, BooleanRelation> BooleanRelation::split(
    const std::vector<bool>& x, std::size_t output_index) const {
  const auto [removed0, removed1] = split_removals(x, output_index);
  BooleanRelation r0(*mgr_, inputs_, outputs_, chi_ & !removed0);
  BooleanRelation r1(*mgr_, inputs_, outputs_, chi_ & !removed1);
  return {std::move(r0), std::move(r1)};
}

BooleanRelation BooleanRelation::constrain_with(const Bdd& constraint) const {
  return BooleanRelation(*mgr_, inputs_, outputs_, chi_ & constraint);
}

BooleanRelation BooleanRelation::totalized() const {
  const Bdd domain = input_domain();
  return BooleanRelation(*mgr_, inputs_, outputs_, chi_ | !domain);
}

std::set<std::uint64_t> BooleanRelation::image_of(
    const std::vector<bool>& x) const {
  if (outputs_.size() > 20) {
    throw std::logic_error("image_of: too many outputs to enumerate");
  }
  const Bdd vertex = vertex_bdd(*mgr_, inputs_, x);
  // Cofactor the relation at x, then enumerate output minterms.
  const Bdd image = mgr_->constrain(chi_, vertex);
  std::vector<std::uint32_t> sorted_outputs = outputs_;
  std::sort(sorted_outputs.begin(), sorted_outputs.end());
  std::set<std::uint64_t> result;
  mgr_->foreach_minterm(image, sorted_outputs,
                        [&](const std::vector<bool>& point) {
                          std::uint64_t code = 0;
                          for (std::size_t i = 0; i < outputs_.size(); ++i) {
                            if (point[outputs_[i]]) {
                              code |= (std::uint64_t{1} << i);
                            }
                          }
                          result.insert(code);
                        });
  return result;
}

std::string BooleanRelation::to_table() const {
  if (inputs_.size() > 16) {
    throw std::logic_error("to_table: too many inputs to enumerate");
  }
  std::ostringstream os;
  const std::size_t n = inputs_.size();
  std::vector<bool> x(mgr_->num_vars(), false);
  for (std::uint64_t code = 0; code < (std::uint64_t{1} << n); ++code) {
    for (std::size_t i = 0; i < n; ++i) {
      x[inputs_[i]] = ((code >> i) & 1u) != 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      os << (x[inputs_[i]] ? '1' : '0');
    }
    os << " : {";
    bool first = true;
    for (const std::uint64_t y : image_of(x)) {
      if (!first) {
        os << ", ";
      }
      first = false;
      for (std::size_t i = 0; i < outputs_.size(); ++i) {
        os << (((y >> i) & 1u) != 0 ? '1' : '0');
      }
    }
    os << "}\n";
  }
  return os.str();
}

}  // namespace brel
