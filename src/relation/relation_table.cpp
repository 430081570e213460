#include "relation/relation_table.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "bdd/truth_table.hpp"

namespace brel {

using tt::kVarMask;
using tt::table_words;

namespace {

/// The bits of one image in a word, for |Y| = m < 6.
constexpr std::uint64_t image_field(std::uint32_t m) noexcept {
  return (std::uint64_t{1} << (1u << m)) - 1;
}

}  // namespace

bool RelationTable::load(const BooleanRelation& rel) {
  if (holds(rel)) {
    return true;
  }
  BddManager& mgr = rel.manager();
  mgr_ = nullptr;  // unloaded until the table below is complete
  const std::size_t n = rel.num_inputs();
  const std::size_t m = rel.num_outputs();
  if (n == 0 || n > BddManager::kIsopTableVars || m == 0 ||
      n + m > kMaxVars) {
    return false;
  }
  // Layout: outputs deepest first, then inputs deepest first; valid only
  // when the shallowest output is still below the deepest input.
  const auto deeper = [&mgr](std::uint32_t a, std::uint32_t b) {
    return mgr.level_of_var(a) > mgr.level_of_var(b);
  };
  vars_ = rel.outputs();
  std::sort(vars_.begin(), vars_.end(), deeper);
  vars_.insert(vars_.end(), rel.inputs().begin(), rel.inputs().end());
  std::sort(vars_.begin() + static_cast<std::ptrdiff_t>(m), vars_.end(),
            deeper);
  if (!mgr.valid_table_layout(vars_)) {
    return false;  // an output sits above an input
  }
  chi_.resize(table_words(static_cast<std::uint32_t>(n + m)));
  if (!mgr.table_of(rel.characteristic(), vars_, chi_.data())) {
    return false;  // χ depends on a variable outside X ∪ Y
  }
  n_ = static_cast<std::uint32_t>(n);
  m_ = static_cast<std::uint32_t>(m);
  const auto position = [this](std::uint32_t var) {
    return static_cast<std::uint8_t>(
        std::find(vars_.begin(), vars_.end(), var) - vars_.begin());
  };
  output_pos_.clear();
  for (const std::uint32_t y : rel.outputs()) {
    output_pos_.push_back(position(y));
  }
  input_pos_.clear();
  for (const std::uint32_t x : rel.inputs()) {
    input_pos_.push_back(static_cast<std::uint8_t>(position(x) - m_));
  }
  by_var_id_.resize(n);
  std::iota(by_var_id_.begin(), by_var_id_.end(), std::uint8_t{0});
  std::sort(by_var_id_.begin(), by_var_id_.end(),
            [this](std::uint8_t a, std::uint8_t b) {
              return vars_[m_ + a] < vars_[m_ + b];
            });
  scratch_.resize((4 + 2 * m) * input_words());
  chi_bdd_ = rel.characteristic();
  inputs_ = rel.inputs();
  outputs_ = rel.outputs();
  mgr_ = &mgr;
  return true;
}

bool RelationTable::holds(const BooleanRelation& rel) const {
  // The table holds χ over vars_; the conversions also need the layout
  // to still be deepest-first (a reorder may have moved it).
  return mgr_ == &rel.manager() && chi_bdd_ == rel.characteristic() &&
         inputs_ == rel.inputs() && outputs_ == rel.outputs() &&
         mgr_->valid_table_layout(vars_);
}

std::size_t RelationTable::input_words() const { return table_words(n_); }

void RelationTable::replicate_inputs(std::uint64_t* t) const {
  if (n_ < 6) {
    t[0] = tt::replicate(t[0], n_);
  }
}

std::uint64_t RelationTable::image_slots() const {
  return std::max(std::uint64_t{1} << n_,
                  std::uint64_t{64} >> std::min(m_, 6u));
}

RelationTable::Image RelationTable::image_of(const std::uint64_t* t,
                                             std::uint64_t x) const {
  Image image;
  if (m_ < 6) {
    // The image is the 2^m-bit field of one word at bit x·2^m.
    const std::uint64_t bit = x << m_;
    const std::uint64_t points = (t[bit >> 6] >> (bit & 63)) & image_field(m_);
    // q < 6 follows from m_ < 6; spelled out for -Warray-bounds.
    for (std::uint32_t q = 0; q < m_ && q < 6; ++q) {
      image.one |= std::uint32_t{(points & kVarMask[q]) != 0} << q;
      image.zero |= std::uint32_t{(points & ~kVarMask[q]) != 0} << q;
    }
    return image;
  }
  // The image is 2^(m-6) words: positions below 6 inside each word, the
  // others across them.
  const std::uint64_t* const points = t + (x << (m_ - 6));
  std::uint64_t any = 0;
  for (std::size_t j = 0; j < table_words(m_); ++j) {
    any |= points[j];
  }
  for (std::uint32_t q = 0; q < 6; ++q) {
    image.one |= std::uint32_t{(any & kVarMask[q]) != 0} << q;
    image.zero |= std::uint32_t{(any & ~kVarMask[q]) != 0} << q;
  }
  for (std::uint32_t q = 6; q < m_; ++q) {
    std::uint64_t zero = 0;
    std::uint64_t one = 0;
    tt::for_each_half(points, m_, q, [&](std::uint64_t lo, std::uint64_t hi) {
      zero |= lo;
      one |= hi;
    });
    image.one |= std::uint32_t{one != 0} << q;
    image.zero |= std::uint32_t{zero != 0} << q;
  }
  return image;
}

void RelationTable::project(const std::uint64_t* t, std::uint32_t q,
                            std::uint64_t* lower,
                            std::uint64_t* upper) const {
  const std::size_t words = input_words();
  std::fill(lower, lower + words, 0);
  std::fill(upper, upper + words, 0);
  const std::uint64_t vertices = std::uint64_t{1} << n_;
  const auto emit = [&](std::uint64_t x, bool zero, bool one) {
    upper[x >> 6] |= std::uint64_t{one} << (x & 63);
    lower[x >> 6] |= std::uint64_t{one && !zero} << (x & 63);
  };
  if (m_ < 6) {
    for (std::uint64_t x = 0; x < vertices; ++x) {
      const std::uint64_t bit = x << m_;
      const std::uint64_t points =
          (t[bit >> 6] >> (bit & 63)) & image_field(m_);
      emit(x, (points & ~kVarMask[q]) != 0, (points & kVarMask[q]) != 0);
    }
  } else if (q < 6) {
    const std::size_t image_words = table_words(m_);
    for (std::uint64_t x = 0; x < vertices; ++x) {
      std::uint64_t any = 0;
      for (std::size_t j = 0; j < image_words; ++j) {
        any |= t[x * image_words + j];
      }
      emit(x, (any & ~kVarMask[q]) != 0, (any & kVarMask[q]) != 0);
    }
  } else {
    for (std::uint64_t x = 0; x < vertices; ++x) {
      std::uint64_t zero = 0;
      std::uint64_t one = 0;
      tt::for_each_half(t + (x << (m_ - 6)), m_, q,
                        [&](std::uint64_t lo, std::uint64_t hi) {
                          zero |= lo;
                          one |= hi;
                        });
      emit(x, zero != 0, one != 0);
    }
  }
  replicate_inputs(lower);
  replicate_inputs(upper);
}

void RelationTable::minimize_table(std::uint64_t* lower, std::uint64_t* upper,
                                   std::uint64_t* f) {
  // eliminate_nonessential_vars (isf_minimizer.cpp) on tables: the
  // candidates are the upper bound's support, fixed up front, in
  // ascending variable id; each that passes the essential-variable test
  // is quantified out (∃ in the lower bound, ∀ in the upper).
  std::uint32_t candidates = 0;
  for (std::uint32_t p = 0; p < n_; ++p) {
    if (tt::depends_on(upper, n_, p)) {
      candidates |= 1u << p;
    }
  }
  for (const std::uint8_t p : by_var_id_) {
    if ((candidates >> p & 1u) != 0 && tt::leq_flipped(lower, upper, n_, p)) {
      tt::exists_position(lower, n_, p);
      tt::forall_position(upper, n_, p);
    }
  }
  tt::isop_words(lower, upper, f, n_, f + input_words());
}

Bdd RelationTable::minimize_interval(std::uint64_t* lower,
                                     std::uint64_t* upper, std::uint64_t* f) {
  minimize_table(lower, upper, f);
  return mgr_->bdd_of_table(f, input_vars());
}

MultiFunction RelationTable::misf_candidate() {
  // One pass over the images projects every output at once.
  const std::size_t words = input_words();
  std::uint64_t* const f = scratch_.data();
  std::uint64_t* const bounds = f + 4 * words;  // [lower, upper] per position
  std::fill(bounds, bounds + 2 * m_ * words, 0);
  const std::uint64_t vertices = std::uint64_t{1} << n_;
  for (std::uint64_t x = 0; x < vertices; ++x) {
    const Image image = image_of(chi_.data(), x);
    const std::uint32_t only_one = image.one & ~image.zero;
    std::uint64_t* bound = bounds + (x >> 6);
    for (std::uint32_t q = 0; q < m_; ++q, bound += 2 * words) {
      bound[0] |= std::uint64_t{(only_one >> q) & 1u} << (x & 63);
      bound[words] |= std::uint64_t{(image.one >> q) & 1u} << (x & 63);
    }
  }
  MultiFunction candidate;
  candidate.outputs.reserve(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    std::uint64_t* const lower = bounds + 2 * output_pos_[i] * words;
    std::uint64_t* const upper = lower + words;
    replicate_inputs(lower);
    replicate_inputs(upper);
    candidate.outputs.push_back(minimize_interval(lower, upper, f));
  }
  return candidate;
}

void RelationTable::restrict_image(std::uint64_t* t, std::uint64_t x,
                                   std::uint32_t q, bool value) const {
  if (m_ < 6) {
    const std::uint64_t bit = x << m_;
    const std::uint64_t drop =
        image_field(m_) & (value ? ~kVarMask[q] : kVarMask[q]);
    t[bit >> 6] &= ~(drop << (bit & 63));
    return;
  }
  std::uint64_t* const points = t + (x << (m_ - 6));
  if (q < 6) {
    const std::uint64_t keep = value ? kVarMask[q] : ~kVarMask[q];
    for (std::size_t j = 0; j < table_words(m_); ++j) {
      points[j] &= keep;
    }
  } else {
    tt::for_each_half(points, m_, q,
                      [value](std::uint64_t& lo, std::uint64_t& hi) {
                        (value ? lo : hi) = 0;
                      });
  }
}

void RelationTable::restrict_output(std::uint64_t* t, std::uint32_t q,
                                    const std::uint64_t* f) const {
  // f is replicated like the table, so every copy stays in step.
  for (std::uint64_t x = 0; x < image_slots(); ++x) {
    restrict_image(t, x, q, (f[x >> 6] >> (x & 63) & 1u) != 0);
  }
}

bool RelationTable::well_defined() const {
  const std::uint64_t vertices = std::uint64_t{1} << n_;
  for (std::uint64_t x = 0; x < vertices; ++x) {
    const Image image = image_of(chi_.data(), x);
    if ((image.zero | image.one) == 0) {
      return false;
    }
  }
  return true;
}

MultiFunction RelationTable::quick_solve() {
  work_ = chi_;
  return solve_work();
}

void RelationTable::copy_image(const std::uint64_t* t, std::uint64_t x,
                               std::uint64_t* image) const {
  if (m_ < 6) {
    const std::uint64_t bit = x << m_;
    image[0] = (t[bit >> 6] >> (bit & 63)) & image_field(m_);
    return;
  }
  const std::uint64_t* const points = t + (x << (m_ - 6));
  std::copy(points, points + table_words(m_), image);
}

void RelationTable::load_split(std::uint64_t x, std::uint32_t q, bool value) {
  work_ = chi_;
  for (std::uint64_t copy = x; copy < image_slots();
       copy += std::uint64_t{1} << n_) {
    restrict_image(work_.data(), copy, q, value);
  }
}

MultiFunction RelationTable::quick_solve_split(
    const std::vector<bool>& x, std::size_t i, bool value,
    const QuickSolution* parent) {
  const std::uint64_t vertex = vertex_index(x);
  const std::uint32_t split_pos = output_pos_.at(i);
  const std::size_t image_words = table_words(m_);
  images_.resize(2 * image_words);
  std::uint64_t* const parent_image = images_.data();
  std::uint64_t* const child_image = parent_image + image_words;
  copy_image(chi_.data(), vertex, parent_image);
  copy_image(chi_.data(), vertex, child_image);
  restrict_image(child_image, 0, split_pos, value);
  const Image split_image = image_of(child_image, 0);
  if ((split_image.zero | split_image.one) == 0) {
    throw std::invalid_argument(
        "quick_solve_split: the split empties the image of x");
  }
  if (parent == nullptr || parent->reorders != mgr_->stats().reorders) {
    load_split(vertex, split_pos, value);
    return solve_work();
  }
  // The half's table is the parent's without some points of x.  While
  // the half's chain has chosen the parent's F_1..F_{k-1}, its working
  // table is the parent's except at x, so step k's interval can differ
  // only in its bit at x: where that bit agrees, so do the interval and
  // F_k.  The walk therefore follows x's two images alone and brings
  // work_ up to a step only where the bits differ.
  const std::size_t words = input_words();
  std::uint64_t* const f = scratch_.data();
  std::uint64_t* const lower = f + 4 * words;
  std::uint64_t* const upper = lower + words;
  const auto projection_bits = [](const Image& image, std::uint32_t q) {
    const std::uint32_t one = image.one >> q & 1u;
    const std::uint32_t zero = image.zero >> q & 1u;
    return one << 1 | (one & ~zero);  // upper, lower
  };
  MultiFunction result;
  result.outputs.reserve(m_);
  bool loaded = false;     // work_ holds the half's table
  std::size_t applied = 0;  // outputs work_ is restricted by
  for (std::size_t k = 0; k < m_; ++k) {
    const std::uint32_t q = output_pos_[k];
    const Bdd& parent_f = parent->function.outputs.at(k);
    if (projection_bits(image_of(parent_image, 0), q) !=
        projection_bits(image_of(child_image, 0), q)) {
      if (!loaded) {
        load_split(vertex, split_pos, value);
        loaded = true;
      }
      for (; applied < k; ++applied) {
        (void)mgr_->table_of(result.outputs[applied], input_vars(), f);
        restrict_output(work_.data(), output_pos_[applied], f);
      }
      project(work_.data(), q, lower, upper);
      minimize_table(lower, upper, f);
      (void)mgr_->table_of(parent_f, input_vars(), lower);
      if (!std::equal(f, f + words, lower)) {
        // A different F_k: the rest of the chain is the half's own.
        result.outputs.push_back(mgr_->bdd_of_table(f, input_vars()));
        restrict_output(work_.data(), q, f);
        return solve_work(std::move(result));
      }
    }
    result.outputs.push_back(parent_f);
    const bool fx = parent_f.eval(x);
    restrict_image(parent_image, 0, q, fx);
    restrict_image(child_image, 0, q, fx);
  }
  return result;
}

MultiFunction RelationTable::solve_work(MultiFunction result) {
  // Fig. 4 on the table: minimize the outputs in index order, each time
  // constraining the relation to the chosen function, R ∧ (y_i ≡ F_i).
  const std::size_t words = input_words();
  std::uint64_t* const f = scratch_.data();
  std::uint64_t* const lower = f + 4 * words;
  std::uint64_t* const upper = lower + words;
  result.outputs.reserve(m_);
  for (std::size_t i = result.outputs.size(); i < m_; ++i) {
    project(work_.data(), output_pos_[i], lower, upper);
    result.outputs.push_back(minimize_interval(lower, upper, f));
    restrict_output(work_.data(), output_pos_[i], f);
  }
  return result;
}

std::optional<Bdd> RelationTable::conflict_inputs(const MultiFunction& f) {
  const std::size_t words = input_words();
  std::uint64_t* const conflicts = scratch_.data();
  std::uint64_t* const outputs = conflicts + 4 * words;
  for (std::size_t i = 0; i < m_; ++i) {
    if (!mgr_->table_of(f.outputs.at(i), input_vars(), outputs + i * words)) {
      return std::nullopt;
    }
  }
  std::fill(conflicts, conflicts + words, 0);
  const std::uint64_t vertices = std::uint64_t{1} << n_;
  for (std::uint64_t x = 0; x < vertices; ++x) {
    std::uint64_t point = x << m_;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::uint64_t fx = outputs[i * words + (x >> 6)] >> (x & 63) & 1u;
      point |= fx << output_pos_[i];
    }
    if ((chi_[point >> 6] >> (point & 63) & 1u) == 0) {
      conflicts[x >> 6] |= std::uint64_t{1} << (x & 63);
    }
  }
  replicate_inputs(conflicts);
  return mgr_->bdd_of_table(conflicts, input_vars());
}

std::uint64_t RelationTable::vertex_index(const std::vector<bool>& x) const {
  std::uint64_t vertex = 0;
  for (std::size_t j = 0; j < inputs_.size(); ++j) {
    if (x.at(inputs_[j])) {
      vertex |= std::uint64_t{1} << input_pos_[j];
    }
  }
  return vertex;
}

bool RelationTable::can_split(const std::vector<bool>& x,
                              std::size_t i) const {
  const Image image = image_of(chi_.data(), vertex_index(x));
  const std::uint32_t both = image.zero & image.one;
  return (both >> output_pos_.at(i) & 1u) != 0;
}

}  // namespace brel
