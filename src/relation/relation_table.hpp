#pragma once
/// \file relation_table.hpp
/// The characteristic function χ of a narrow relation as one word-
/// parallel truth table, and the per-node kernels of the BREL search run
/// on it: output projection (Def. 5.1) with ISF minimization (Sec. 7.5),
/// the QuickSolver of Fig. 4, the compatibility check (Def. 5.3) and the
/// Split guard (Theorem 5.2).
///
/// Table positions 0..|Y|-1 are the outputs, deepest level first, and the
/// positions above them the inputs, deepest level first — so the image of
/// an input vertex x is the 2^|Y|-bit block starting at bit x·2^|Y|
/// (truth_table.hpp has the word format).  Every kernel computes the same
/// function as its BDD counterpart and rebuilds it through
/// BddManager::bdd_of_table, so by canonicity it returns the same edge.
/// A relation that does not qualify (see load) keeps the BDD path.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "relation/relation.hpp"

namespace brel {

/// A relation's quick solution (Fig. 4) as the search keeps it: the
/// functions and BddStats::reorders when they were computed.
struct QuickSolution {
  MultiFunction function;
  std::uint64_t reorders = 0;
};

class RelationTable {
 public:
  /// Widest relation, |X| + |Y|, that loads (chosen from bench_bdd_ops's
  /// relation-kernel ladder; DESIGN.md "Relation tables").
  static constexpr std::uint32_t kMaxVars = 20;

  /// Load rel's χ.  Returns false, and the caller takes the BDD path,
  /// unless 1 <= |X| <= BddManager::kIsopTableVars, |Y| >= 1,
  /// |X| + |Y| <= kMaxVars, every output sits below every input in the
  /// current order, and χ depends on no other variable.  Reloading the
  /// relation already held costs a comparison, not a load.
  [[nodiscard]] bool load(const BooleanRelation& rel);

  /// True when the table holds rel's χ under a still-valid layout (what
  /// makes load(rel) free).
  [[nodiscard]] bool holds(const BooleanRelation& rel) const;

  /// Every input vertex of the loaded relation has a non-empty image.
  [[nodiscard]] bool well_defined() const;

  /// The MISF candidate of Fig. 6 line 4: output i is
  /// IsfMinimizer{}.minimize(rel.project_output(i)), the default
  /// minimizer (ISOP after eliminating non-essential variables).
  [[nodiscard]] MultiFunction misf_candidate();

  /// quick_solve(rel) under the default minimizer.  Requires
  /// well_defined().
  [[nodiscard]] MultiFunction quick_solve();

  /// quick_solve of one half of the loaded relation's split(x, i): the
  /// relation without its points (x, y_i = !value), so value = false is
  /// split's first half.  Derived from the loaded table, which stays
  /// loaded.  Requires can_split(x, i).
  ///
  /// `parent`, when given, is the loaded relation's quick solution.
  /// Unless the manager has sifted since it was computed (the ISOP
  /// follows the level order), the half's Fig. 4 chain is walked against
  /// it: a step whose projection agrees with the parent's at x keeps the
  /// parent's function without touching the table, and the parent's
  /// functions come back whole when every step agrees (DESIGN.md
  /// "Relation tables" has the argument).  Same edges either way.
  [[nodiscard]] MultiFunction quick_solve_split(
      const std::vector<bool>& x, std::size_t i, bool value,
      const QuickSolution* parent = nullptr);

  /// ∃Y rel.incompatibilities(f): the input vertices x whose image lacks
  /// f(x).  nullopt when some f_i depends on a variable outside X.
  [[nodiscard]] std::optional<Bdd> conflict_inputs(const MultiFunction& f);

  /// rel.can_split(x, i): the image of x admits both values of output i.
  [[nodiscard]] bool can_split(const std::vector<bool>& x,
                               std::size_t i) const;

 private:
  /// The image of input vertex x in table t, summarized per output
  /// position q: bit q of `one` (`zero`) is set when the image holds a
  /// point whose output at position q is 1 (0).
  struct Image {
    std::uint32_t zero = 0;
    std::uint32_t one = 0;
  };
  [[nodiscard]] Image image_of(const std::uint64_t* t, std::uint64_t x) const;
  /// Projection of table t on the output at position q (Def. 5.1): the
  /// interval [lower, upper] over the inputs — upper holds the vertices
  /// whose image allows y = 1, lower those whose image allows only that.
  void project(const std::uint64_t* t, std::uint32_t q, std::uint64_t* lower,
               std::uint64_t* upper) const;
  /// Support reduction and ISOP of the interval [lower, upper] (both
  /// reduced in place); the result's table goes to f.
  void minimize_table(std::uint64_t* lower, std::uint64_t* upper,
                      std::uint64_t* f);
  /// minimize_table, then the rebuild of f's BDD.
  [[nodiscard]] Bdd minimize_interval(std::uint64_t* lower,
                                      std::uint64_t* upper, std::uint64_t* f);
  /// Keep only the points of the image of x in table t whose output at
  /// position q equals `value`.
  void restrict_image(std::uint64_t* t, std::uint64_t x, std::uint32_t q,
                      bool value) const;
  /// restrict_image at every input vertex x with value f(x): t ∧ (y_q ≡ f).
  void restrict_output(std::uint64_t* t, std::uint32_t q,
                       const std::uint64_t* f) const;
  /// Copy the image of input vertex x in table t to `image` (a one-image
  /// table: the image of vertex 0).
  void copy_image(const std::uint64_t* t, std::uint64_t x,
                  std::uint64_t* image) const;
  /// work_ := the loaded table without the points of input vertex x
  /// (every copy of it) whose output at position q differs from value.
  void load_split(std::uint64_t x, std::uint32_t q, bool value);
  /// Fig. 4 on work_: minimize output by output, restricting work_.
  /// `result` holds the functions already chosen for the outputs before
  /// index result.outputs.size(), which work_ is restricted by.
  [[nodiscard]] MultiFunction solve_work(MultiFunction result = {});
  /// The input vertex of a full assignment, as a table index.
  [[nodiscard]] std::uint64_t vertex_index(const std::vector<bool>& x) const;
  /// The input part of the layout: variable of each input table position.
  [[nodiscard]] std::span<const std::uint32_t> input_vars() const {
    return {vars_.data() + m_, n_};
  }
  /// Words of a table over the inputs.
  [[nodiscard]] std::size_t input_words() const;
  /// Replicate a one-word input table (|X| < 6) above bit 2^|X|.
  void replicate_inputs(std::uint64_t* t) const;
  /// Image slots of a relation table: 2^|X|, or 64 / 2^|Y| when the table
  /// is one replicated word (|X| + |Y| < 6) and slot x holds a copy of
  /// image x mod 2^|X|.
  [[nodiscard]] std::uint64_t image_slots() const;

  BddManager* mgr_ = nullptr;
  Bdd chi_bdd_;                        ///< the loaded χ (kept alive)
  std::vector<std::uint32_t> inputs_;  ///< the loaded relation's spaces
  std::vector<std::uint32_t> outputs_;
  std::uint32_t n_ = 0;  ///< |X|
  std::uint32_t m_ = 0;  ///< |Y|
  /// Layout: table position -> variable (outputs, then inputs).
  std::vector<std::uint32_t> vars_;
  std::vector<std::uint8_t> output_pos_;  ///< output index -> position
  std::vector<std::uint8_t> input_pos_;   ///< input index -> position - |Y|
  /// Input table positions by ascending variable id (the order of
  /// support reduction, IsfMinimizer's).
  std::vector<std::uint8_t> by_var_id_;
  std::vector<std::uint64_t> chi_;   ///< χ's table
  std::vector<std::uint64_t> work_;  ///< quick_solve's constrained copy
  /// quick_solve_split's walk: the split vertex's image in the parent's
  /// chain, then in the half's.
  std::vector<std::uint64_t> images_;
  /// Input tables: result and ISOP scratch (4), then a [lower, upper]
  /// pair per output position (quick_solve uses the first pair only;
  /// conflict_inputs puts the candidate's per-output tables there).
  std::vector<std::uint64_t> scratch_;
};

}  // namespace brel
