// Unit tests for the Boolean relation layer: well-definedness, projection,
// MISF covering, compatibility, Split, totalization.

#include <gtest/gtest.h>

#include "benchgen/paper_relations.hpp"
#include "relation/enumeration.hpp"
#include "relation/relation.hpp"

namespace brel {
namespace {

class RelationTest : public ::testing::Test {
 protected:
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);

  BooleanRelation fig1() { return fig1_relation(mgr, space); }
  BooleanRelation fig10() { return fig10_relation(mgr, space); }

  std::vector<bool> vertex(bool x1, bool x2) {
    std::vector<bool> v(mgr.num_vars(), false);
    v[space.inputs[0]] = x1;
    v[space.inputs[1]] = x2;
    return v;
  }
};

TEST_F(RelationTest, FromTableImagesMatch) {
  const BooleanRelation r = fig1();
  EXPECT_EQ(r.image_of(vertex(false, false)), (std::set<std::uint64_t>{0b00}));
  EXPECT_EQ(r.image_of(vertex(false, true)),
            (std::set<std::uint64_t>{0b10}));  // "01" = y1=0,y2=1 -> bit1 set
  EXPECT_EQ(r.image_of(vertex(true, false)),
            (std::set<std::uint64_t>{0b00, 0b11}));
  EXPECT_EQ(r.image_of(vertex(true, true)),
            (std::set<std::uint64_t>{0b01, 0b11}));
}

TEST_F(RelationTest, WellDefinedChecks) {
  EXPECT_TRUE(fig1().is_well_defined());
  // Removing every pair for one input vertex breaks left-totality.
  const BooleanRelation r = fig1();
  const Bdd x10 = mgr.literal(space.inputs[0], true) &
                  mgr.literal(space.inputs[1], false);
  const BooleanRelation broken = r.constrain_with(!x10);
  EXPECT_FALSE(broken.is_well_defined());
  EXPECT_TRUE(broken.input_domain() == !x10);
}

TEST_F(RelationTest, TotalizedRestoresLeftTotality) {
  const BooleanRelation r = fig1();
  const Bdd x10 = mgr.literal(space.inputs[0], true) &
                  mgr.literal(space.inputs[1], false);
  const BooleanRelation broken = r.constrain_with(!x10);
  const BooleanRelation fixed = broken.totalized();
  EXPECT_TRUE(fixed.is_well_defined());
  // Outside the hole the relation is unchanged.
  EXPECT_EQ(fixed.image_of(vertex(false, false)),
            r.image_of(vertex(false, false)));
  // Inside the hole every output vertex is allowed.
  EXPECT_EQ(fixed.image_of(vertex(true, false)).size(), 4u);
}

TEST_F(RelationTest, FullRelationIsWellDefinedButNotFunction) {
  const BooleanRelation r =
      BooleanRelation::full(mgr, space.inputs, space.outputs);
  EXPECT_TRUE(r.is_well_defined());
  EXPECT_FALSE(r.is_function());
}

TEST_F(RelationTest, FunctionalRelationRoundTrip) {
  // Build the relation of the function (y1 ⇔ x1, y2 ⇔ x1 ^ x2).
  const Bdd x1 = mgr.var(space.inputs[0]);
  const Bdd x2 = mgr.var(space.inputs[1]);
  MultiFunction f;
  f.outputs = {x1, x1 ^ x2};
  const BooleanRelation any =
      BooleanRelation::full(mgr, space.inputs, space.outputs);
  const BooleanRelation rf =
      any.constrain_with(any.function_characteristic(f));
  EXPECT_TRUE(rf.is_well_defined());
  EXPECT_TRUE(rf.is_function());
  const MultiFunction g = rf.extract_function();
  EXPECT_TRUE(g.outputs[0] == f.outputs[0]);
  EXPECT_TRUE(g.outputs[1] == f.outputs[1]);
}

TEST_F(RelationTest, ExtractFunctionRejectsNonFunction) {
  EXPECT_THROW((void)fig1().extract_function(), std::logic_error);
}

TEST_F(RelationTest, ProjectionsMatchExample51) {
  // Example 5.1/5.3: the projections of the Fig. 1 relation produce the
  // ISFs whose minimization yields (y1 ⇔ x1)(y2 ⇔ x2).
  const BooleanRelation r = fig1();
  const Bdd x1 = mgr.var(space.inputs[0]);
  const Bdd x2 = mgr.var(space.inputs[1]);

  const Isf p1 = r.project_output(0);
  // y1: forced 1 at 11; free at 10; forced 0 at 00, 01.
  EXPECT_TRUE(p1.on() == (x1 & x2));
  EXPECT_TRUE(p1.dc() == (x1 & !x2));
  EXPECT_TRUE(p1.off() == !x1);

  const Isf p2 = r.project_output(1);
  // y2: forced 1 at 01; free at 10 and 11; forced 0 at 00.
  EXPECT_TRUE(p2.on() == ((!x1) & x2));
  EXPECT_TRUE(p2.dc() == x1);
  EXPECT_TRUE(p2.off() == ((!x1) & !x2));
}

TEST_F(RelationTest, MisfCoversRelationProperty52) {
  for (const BooleanRelation& r : {fig1(), fig10()}) {
    const BooleanRelation m = r.misf();
    EXPECT_TRUE(r.characteristic().subset_of(m.characteristic()));
  }
}

TEST_F(RelationTest, MisfExpandsNonCubeImages) {
  // Example 5.2: MISF_R expands R(10) = {00, 11} to all four vertices.
  const BooleanRelation m = fig1().misf();
  EXPECT_EQ(m.image_of(vertex(true, false)).size(), 4u);
  // The don't-care-expressible image {10, 11} of vertex 11 stays put.
  EXPECT_EQ(m.image_of(vertex(true, true)),
            (std::set<std::uint64_t>{0b01, 0b11}));
}

TEST_F(RelationTest, MisfIsIdempotent) {
  const BooleanRelation m = fig1().misf();
  EXPECT_TRUE(m.is_misf());
  EXPECT_TRUE(m.misf() == m);
  EXPECT_FALSE(fig1().is_misf());
}

TEST_F(RelationTest, CompatibilityExample42) {
  // Example 4.2/5.4: (y1 ⇔ x1)(y2 ⇔ x2) has exactly the conflict (10, 10).
  const BooleanRelation r = fig1();
  MultiFunction f;
  f.outputs = {mgr.var(space.inputs[0]), mgr.var(space.inputs[1])};
  EXPECT_FALSE(r.is_compatible(f));
  const Bdd incomp = r.incompatibilities(f);
  const Bdd expected = mgr.literal(space.inputs[0], true) &
                       mgr.literal(space.inputs[1], false) &
                       mgr.literal(space.outputs[0], true) &
                       mgr.literal(space.outputs[1], false);
  EXPECT_TRUE(incomp == expected);
}

TEST_F(RelationTest, CompatibleFunctionAccepted) {
  // 00->00, 01->01, 10->00, 11->11: pick y1 = x1 x2, y2 = x2.
  const BooleanRelation r = fig1();
  MultiFunction f;
  f.outputs = {mgr.var(space.inputs[0]) & mgr.var(space.inputs[1]),
               mgr.var(space.inputs[1])};
  EXPECT_TRUE(r.is_compatible(f));
  EXPECT_TRUE(r.incompatibilities(f).is_zero());
}

TEST_F(RelationTest, SplitExample55) {
  // Split(R, 10, y1): images of vertex 10 become {00} and {11}.
  const BooleanRelation r = fig1();
  const auto [r0, r1] = r.split(vertex(true, false), 0);
  EXPECT_EQ(r0.image_of(vertex(true, false)), (std::set<std::uint64_t>{0b00}));
  EXPECT_EQ(r1.image_of(vertex(true, false)), (std::set<std::uint64_t>{0b11}));
  // All other vertices keep their images.
  for (const auto& v : {vertex(false, false), vertex(false, true),
                        vertex(true, true)}) {
    EXPECT_EQ(r0.image_of(v), r.image_of(v));
    EXPECT_EQ(r1.image_of(v), r.image_of(v));
  }
  // Both halves stay well defined and strictly shrink (Theorem 5.2).
  EXPECT_TRUE(r.can_split(vertex(true, false), 0));
  EXPECT_TRUE(r0.is_well_defined());
  EXPECT_TRUE(r1.is_well_defined());
  EXPECT_TRUE(r0.characteristic().subset_of(r.characteristic()));
  EXPECT_TRUE(r1.characteristic().subset_of(r.characteristic()));
  EXPECT_FALSE(r0.characteristic() == r.characteristic());
  EXPECT_FALSE(r1.characteristic() == r.characteristic());
}

TEST_F(RelationTest, SplitUnionRestoresRelation) {
  const BooleanRelation r = fig1();
  const auto [r0, r1] = r.split(vertex(true, false), 0);
  EXPECT_TRUE((r0.characteristic() | r1.characteristic()) ==
              r.characteristic());
}

TEST_F(RelationTest, SplitExample56FailsTheorem52Guard) {
  // Splitting vertex 11 on y1 is invalid: y1 is forced to 1 there.
  const BooleanRelation r = fig1();
  EXPECT_FALSE(r.can_split(vertex(true, true), 0));
  const auto [r0, r1] = r.split(vertex(true, true), 0);
  // r0 (forcing y1(11) = 0) loses left-totality; r1 equals R.
  EXPECT_FALSE(r0.is_well_defined());
  EXPECT_TRUE(r1.characteristic() == r.characteristic());
}

TEST_F(RelationTest, SplitPartitionsCompatibleFunctionsProperty54) {
  // Property 5.4: IF(R) = IF(R0) ⊎ IF(R1).
  const BooleanRelation r = fig1();
  const auto [r0, r1] = r.split(vertex(true, false), 0);
  const double whole = count_compatible_functions(r);
  const double part0 = count_compatible_functions(r0);
  const double part1 = count_compatible_functions(r1);
  EXPECT_DOUBLE_EQ(whole, part0 + part1);
  // Disjointness: no function can be compatible with both halves.
  std::uint64_t overlap = 0;
  enumerate_compatible_functions(r0, [&](const MultiFunction& f) {
    if (r1.is_compatible(f)) {
      ++overlap;
    }
    return true;
  });
  EXPECT_EQ(overlap, 0u);
}

TEST_F(RelationTest, EnumerationCountsFig1) {
  // |IF(R)| = 1 * 1 * 2 * 2 = 4 for the Fig. 1 relation.
  EXPECT_DOUBLE_EQ(count_compatible_functions(fig1()), 4.0);
  std::uint64_t seen = 0;
  enumerate_compatible_functions(fig1(), [&](const MultiFunction& f) {
    EXPECT_TRUE(fig1().is_compatible(f));
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 4u);
}

TEST_F(RelationTest, EnumerationCountsFig10) {
  // The Fig. 10 relation has exactly eight compatible functions (Sec. 9.1).
  EXPECT_DOUBLE_EQ(count_compatible_functions(fig10()), 8.0);
}

TEST_F(RelationTest, EnumerationOfIllDefinedRelationIsEmpty) {
  const BooleanRelation r = fig1();
  const Bdd x10 = mgr.literal(space.inputs[0], true) &
                  mgr.literal(space.inputs[1], false);
  const BooleanRelation broken = r.constrain_with(!x10);
  std::uint64_t seen = 0;
  const std::uint64_t visited = enumerate_compatible_functions(
      broken, [&](const MultiFunction&) {
        ++seen;
        return true;
      });
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(visited, 0u);
}

TEST_F(RelationTest, ExactOptimumFindsCheapestFunction) {
  // Under cube-free cost = total BDD size, the optimum of Fig. 10 is the
  // balanced pair (x ⇔ !b)(y ⇔ !a).
  const BooleanRelation r = fig10();
  const auto cost = [](const MultiFunction& f) {
    double total = 0.0;
    for (const Bdd& g : f.outputs) {
      const double s = static_cast<double>(g.size());
      total += s * s;  // sum of squares favours balance
    }
    return total;
  };
  const ExactOptimum best = exact_optimum(r, cost);
  EXPECT_EQ(best.explored, 8u);
  const Bdd a = mgr.var(space.inputs[0]);
  const Bdd b = mgr.var(space.inputs[1]);
  EXPECT_TRUE(best.function.outputs[0] == !b);
  EXPECT_TRUE(best.function.outputs[1] == !a);
}

TEST_F(RelationTest, LatticeOperationsProperty51) {
  // (R, ⊆) is a lattice with union/intersection (Property 5.1).
  const BooleanRelation r = fig1();
  const BooleanRelation s = fig10();  // same spaces, different relation
  const BooleanRelation top =
      BooleanRelation::full(mgr, space.inputs, space.outputs);
  const BooleanRelation meet = r.intersect_with(s);
  const BooleanRelation join = r.union_with(s);
  // Order embedding.
  EXPECT_TRUE(meet.subset_of(r));
  EXPECT_TRUE(meet.subset_of(s));
  EXPECT_TRUE(r.subset_of(join));
  EXPECT_TRUE(s.subset_of(join));
  EXPECT_TRUE(join.subset_of(top));
  // Lattice laws.
  EXPECT_TRUE(r.intersect_with(r) == r);                  // idempotence
  EXPECT_TRUE(r.union_with(r) == r);
  EXPECT_TRUE(r.intersect_with(s) == s.intersect_with(r));  // commutativity
  EXPECT_TRUE(r.union_with(s) == s.union_with(r));
  EXPECT_TRUE(r.union_with(meet) == r);                   // absorption
  EXPECT_TRUE(r.intersect_with(join) == r);
  // Well-defined relations form a join-semilattice (Theorem 5.1): the
  // union of well-defined relations is well defined...
  EXPECT_TRUE(join.is_well_defined());
  // ...but the meet may not be (nothing guarantees left-totality).
  EXPECT_FALSE(meet.is_well_defined());
}

TEST_F(RelationTest, LatticeOperationsRejectMismatchedSpaces) {
  const BooleanRelation r = fig1();
  const RelationSpace other_space = make_space(mgr, 2, 2);
  const BooleanRelation other = fig1_relation(mgr, other_space);
  EXPECT_THROW((void)r.intersect_with(other), std::invalid_argument);
  EXPECT_THROW((void)r.union_with(other), std::invalid_argument);
  EXPECT_THROW((void)r.subset_of(other), std::invalid_argument);
}

TEST_F(RelationTest, MixedVariablesRejected) {
  EXPECT_THROW(BooleanRelation(mgr, {space.inputs[0], space.inputs[0]},
                               space.outputs, mgr.one()),
               std::invalid_argument);
}

TEST_F(RelationTest, ToTableRoundTrip) {
  const std::string table = fig1().to_table();
  EXPECT_NE(table.find("10 : {00, 11}"), std::string::npos);
  EXPECT_NE(table.find("11 : {10, 11}"), std::string::npos);
}

TEST_F(RelationTest, IsfNonessentialVarMatchesDefinition) {
  // Non-essential variable elimination (Sec. 7.5).
  const Bdd x1 = mgr.var(space.inputs[0]);
  const Bdd x2 = mgr.var(space.inputs[1]);
  // ON = x1 x2, DC = x1 !x2: x2 is non-essential (interval [x1·x2, x1]),
  // and abstracting it leaves the single function x1.
  const Isf isf(x1 & x2, x1 & !x2);
  EXPECT_TRUE(mgr.leq_flipped(isf.min(), isf.max(), space.inputs[1]));
  const std::uint32_t x2_var = space.inputs[1];
  EXPECT_TRUE(mgr.exists(isf.min(), {&x2_var, 1}) == x1);
  EXPECT_TRUE(mgr.forall(isf.max(), {&x2_var, 1}) == x1);
  // x1 is essential: abstracting it would make ON exceed MAX.
  EXPECT_FALSE(mgr.leq_flipped(isf.min(), isf.max(), space.inputs[0]));
}

TEST_F(RelationTest, IsfIntervalRejectsEmptyInterval) {
  const Bdd x1 = mgr.var(space.inputs[0]);
  const Bdd x2 = mgr.var(space.inputs[1]);
  EXPECT_THROW((void)Isf::interval(x1, x1 & x2), std::invalid_argument);
  EXPECT_THROW((void)Isf::interval(mgr.one(), x1), std::invalid_argument);
  EXPECT_THROW((void)Isf::interval(x1, Bdd{}), std::invalid_argument);
  const Isf isf = Isf::interval(x1 & x2, x1);
  EXPECT_TRUE(isf.min() == (x1 & x2));
  EXPECT_TRUE(isf.max() == x1);
  EXPECT_TRUE(Isf::interval(x1, x1).is_completely_specified());
}

TEST_F(RelationTest, IsfDerivedSetsMatchEagerFormulas) {
  // Every disjoint (ON, DC) pair over the two inputs: the interval form
  // must give back DC and the OFF = ¬(ON ∨ DC) the eager form stored,
  // and Isf::interval(ON, ON ∨ DC) must be the same ISF.
  const Bdd x1 = mgr.var(space.inputs[0]);
  const Bdd x2 = mgr.var(space.inputs[1]);
  const Bdd minterms[] = {x1 & x2, x1 & !x2, (!x1) & x2, (!x1) & !x2};
  for (unsigned code = 0; code < 81; ++code) {  // 3^4 labellings
    Bdd on = mgr.zero();
    Bdd dc = mgr.zero();
    unsigned rest = code;
    for (const Bdd& m : minterms) {
      on = rest % 3 == 1 ? on | m : on;
      dc = rest % 3 == 2 ? dc | m : dc;
      rest /= 3;
    }
    const Isf isf(on, dc);
    EXPECT_TRUE(isf.on() == on);
    EXPECT_TRUE(isf.dc() == dc);
    EXPECT_TRUE(isf.off() == !(on | dc));
    EXPECT_TRUE(isf.max() == (on | dc));
    EXPECT_EQ(isf.is_completely_specified(), dc.is_zero());
    const Isf same = Isf::interval(on, on | dc);
    EXPECT_TRUE(same.dc() == dc);
    EXPECT_TRUE(same.off() == isf.off());
  }
}

TEST_F(RelationTest, IsfInvariants) {
  const Bdd x1 = mgr.var(space.inputs[0]);
  EXPECT_THROW(Isf(x1, x1), std::invalid_argument);  // ON ∧ DC != 0
  const Isf isf(x1, !x1);
  EXPECT_TRUE(isf.off().is_zero());
  EXPECT_TRUE(isf.max().is_one());
  EXPECT_TRUE(isf.contains(mgr.one()));
  EXPECT_TRUE(isf.contains(x1));
  EXPECT_FALSE(isf.contains(!x1));
  EXPECT_FALSE(Isf::exact(x1).contains(mgr.one()));
  EXPECT_TRUE(Isf::exact(x1).is_completely_specified());
}

}  // namespace
}  // namespace brel
