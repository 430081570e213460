// Tests for the algorithmic BDD layer: quantification, compose, constrain,
// restrict, ISOP, satcount, shortest cube, minterm utilities.

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"

namespace brel {
namespace {

class BddAlgorithmsTest : public ::testing::Test {
 protected:
  BddManager mgr{8};

  Bdd v(std::uint32_t i) { return mgr.var(i); }
};

TEST_F(BddAlgorithmsTest, ExistsSingleVariable) {
  const Bdd f = (v(0) & v(1)) | ((!v(0)) & v(2));
  const std::vector<std::uint32_t> q{0};
  // ∃x0 f = f|x0=1 + f|x0=0 = x1 + x2
  EXPECT_TRUE(mgr.exists(f, q) == (v(1) | v(2)));
}

TEST_F(BddAlgorithmsTest, ForallSingleVariable) {
  const Bdd f = (v(0) & v(1)) | ((!v(0)) & v(2));
  const std::vector<std::uint32_t> q{0};
  // ∀x0 f = f|x0=1 · f|x0=0 = x1 · x2
  EXPECT_TRUE(mgr.forall(f, q) == (v(1) & v(2)));
}

TEST_F(BddAlgorithmsTest, ExistsMultipleVariables) {
  const Bdd f = (v(0) & v(1) & v(2)) | (v(3) & !v(1));
  const std::vector<std::uint32_t> q{1, 2};
  const Bdd expected = v(0) | v(3);
  EXPECT_TRUE(mgr.exists(f, q) == expected);
}

TEST_F(BddAlgorithmsTest, RepeatedQuantifiedVariablesCountOnce) {
  const Bdd f = (v(0) & v(1) & v(2)) | (v(3) & !v(1));
  const std::vector<std::uint32_t> once{1, 2};
  const std::vector<std::uint32_t> twice{2, 1, 2, 1};
  EXPECT_TRUE(mgr.exists(f, twice) == mgr.exists(f, once));
  EXPECT_TRUE(mgr.forall(f, twice) == mgr.forall(f, once));
  const Bdd g = v(1) | v(4);
  EXPECT_TRUE(mgr.and_exists(f, g, twice) == mgr.and_exists(f, g, once));
  mgr.check_integrity();
}

TEST_F(BddAlgorithmsTest, ExistsOfVariableNotInSupport) {
  const Bdd f = v(0) & v(1);
  const std::vector<std::uint32_t> q{5};
  EXPECT_TRUE(mgr.exists(f, q) == f);
  EXPECT_TRUE(mgr.forall(f, q) == f);
}

TEST_F(BddAlgorithmsTest, QuantifierDuality) {
  const Bdd f = (v(0) ^ v(1)) | (v(2) & v(3));
  const std::vector<std::uint32_t> q{1, 3};
  EXPECT_TRUE(mgr.forall(f, q) == !mgr.exists(!f, q));
}

TEST_F(BddAlgorithmsTest, AndExistsMatchesComposition) {
  const Bdd f = (v(0) & v(1)) | v(2);
  const Bdd g = ((!v(1)) | v(3)) & v(0);
  const std::vector<std::uint32_t> q{1, 2};
  EXPECT_TRUE(mgr.and_exists(f, g, q) == mgr.exists(f & g, q));
}

TEST_F(BddAlgorithmsTest, ComposeSubstitutesFunctions) {
  const Bdd f = v(0) ^ v(1);
  std::vector<Bdd> sub;
  for (std::uint32_t i = 0; i < mgr.num_vars(); ++i) {
    sub.push_back(v(i));
  }
  sub[0] = v(2) & v(3);
  sub[1] = v(4) | v(5);
  const Bdd composed = mgr.compose(f, sub);
  EXPECT_TRUE(composed == ((v(2) & v(3)) ^ (v(4) | v(5))));
}

TEST_F(BddAlgorithmsTest, ComposeIdentityIsNoop) {
  const Bdd f = (v(0) & v(1)) | (v(2) ^ v(3));
  std::vector<Bdd> sub;
  for (std::uint32_t i = 0; i < mgr.num_vars(); ++i) {
    sub.push_back(v(i));
  }
  EXPECT_TRUE(mgr.compose(f, sub) == f);
}

TEST_F(BddAlgorithmsTest, ComposeSwapsVariables) {
  const Bdd f = v(0) & !v(1);
  std::vector<Bdd> sub;
  for (std::uint32_t i = 0; i < mgr.num_vars(); ++i) {
    sub.push_back(v(i));
  }
  std::swap(sub[0], sub[1]);
  EXPECT_TRUE(mgr.compose(f, sub) == (v(1) & !v(0)));
}

TEST_F(BddAlgorithmsTest, ConstrainAgreesOnCareSet) {
  const Bdd f = (v(0) & v(1)) | (v(2) & !v(3));
  const Bdd care = v(0) ^ v(2);
  const Bdd g = mgr.constrain(f, care);
  // On the care set the generalized cofactor equals f.
  EXPECT_TRUE((care & (f ^ g)).is_zero());
}

TEST_F(BddAlgorithmsTest, ConstrainWithCubeIsCofactor) {
  const Bdd f = (v(0) & v(1)) | ((!v(0)) & v(2));
  EXPECT_TRUE(mgr.constrain(f, v(0)) == v(1));
  EXPECT_TRUE(mgr.constrain(f, !v(0)) == v(2));
}

TEST_F(BddAlgorithmsTest, RestrictAgreesOnCareSet) {
  const Bdd f = (v(0) & v(1)) | (v(2) & !v(3));
  const Bdd care = (v(0) & v(3)) | v(1);
  const Bdd g = mgr.restrict_to(f, care);
  EXPECT_TRUE((care & (f ^ g)).is_zero());
}

TEST_F(BddAlgorithmsTest, RestrictSupportStaysWithinOperands) {
  // Restrict smooths care variables above f's support instead of pulling
  // them into the result.
  const Bdd f = v(2) & v(3);
  const Bdd care = (v(0) & v(2)) | ((!v(0)) & v(3));
  const Bdd g = mgr.restrict_to(f, care);
  for (const std::uint32_t var : g.support()) {
    EXPECT_GE(var, 2u);
  }
  EXPECT_TRUE((care & (f ^ g)).is_zero());
}

TEST_F(BddAlgorithmsTest, ConstrainRejectsEmptyCare) {
  EXPECT_THROW((void)mgr.constrain(v(0), mgr.zero()), std::invalid_argument);
  EXPECT_THROW((void)mgr.restrict_to(v(0), mgr.zero()), std::invalid_argument);
}

TEST_F(BddAlgorithmsTest, SatCountSmallFunctions) {
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.zero(), 3), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.one(), 3), 8.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0), 3), 4.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0) & v(1), 3), 2.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0) ^ v(1), 3), 4.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(v(0) | v(1) | v(2), 3), 7.0);
}

TEST_F(BddAlgorithmsTest, ShortestCubeFindsFewestLiterals) {
  // f = x0·x1·x2 + x3 — the shortest cube is the single literal x3.
  const Bdd f = (v(0) & v(1) & v(2)) | v(3);
  const Cube cube = mgr.shortest_cube(f);
  EXPECT_EQ(cube.literal_count(), 1u);
  EXPECT_EQ(cube.lit(3), Lit::One);
}

TEST_F(BddAlgorithmsTest, ShortestCubeIsAnImplicant) {
  const Bdd f = (v(0) & !v(1)) | (v(2) & v(3) & v(4));
  const Cube cube = mgr.shortest_cube(f);
  std::vector<std::uint32_t> identity;
  for (std::uint32_t i = 0; i < mgr.num_vars(); ++i) {
    identity.push_back(i);
  }
  EXPECT_TRUE(mgr.cube_bdd(cube, identity).subset_of(f));
}

TEST_F(BddAlgorithmsTest, ShortestCubeOfZeroThrows) {
  EXPECT_THROW((void)mgr.shortest_cube(mgr.zero()), std::invalid_argument);
}

TEST_F(BddAlgorithmsTest, PickMintermSatisfies) {
  const Bdd f = ((!v(0)) & v(1)) | (v(2) & v(5));
  const std::vector<bool> point = mgr.pick_minterm(f);
  EXPECT_TRUE(f.eval(point));
}

TEST_F(BddAlgorithmsTest, CubeBddRoundTrip) {
  std::vector<std::uint32_t> identity;
  for (std::uint32_t i = 0; i < mgr.num_vars(); ++i) {
    identity.push_back(i);
  }
  const Cube cube = Cube::parse("1-0-----");
  const Bdd f = mgr.cube_bdd(cube, identity);
  EXPECT_TRUE(f == (v(0) & !v(2)));
}

TEST_F(BddAlgorithmsTest, CoverBddIsDisjunctionOfCubes) {
  std::vector<std::uint32_t> identity;
  for (std::uint32_t i = 0; i < mgr.num_vars(); ++i) {
    identity.push_back(i);
  }
  const Cover cover = Cover::parse(8, {"1-------", "-01-----"});
  const Bdd f = mgr.cover_bdd(cover, identity);
  EXPECT_TRUE(f == (v(0) | ((!v(1)) & v(2))));
}

TEST_F(BddAlgorithmsTest, IsopCoversExactFunction) {
  const Bdd f = (v(0) & v(1)) | ((!v(0)) & v(2)) | (v(1) & v(2));
  const IsopResult result = mgr.isop(f, f);
  EXPECT_TRUE(result.function == f);
  std::vector<std::uint32_t> identity;
  for (std::uint32_t i = 0; i < mgr.num_vars(); ++i) {
    identity.push_back(i);
  }
  EXPECT_TRUE(mgr.cover_bdd(result.cover, identity) == f);
}

TEST_F(BddAlgorithmsTest, IsopStaysInsideInterval) {
  const Bdd lower = v(0) & v(1);
  const Bdd upper = v(0);
  const IsopResult result = mgr.isop(lower, upper);
  EXPECT_TRUE(lower.subset_of(result.function));
  EXPECT_TRUE(result.function.subset_of(upper));
}

TEST_F(BddAlgorithmsTest, IsopUsesDontCaresToSimplify) {
  // ON = x0·x1, DC = x0·!x1 → the single-literal cover x0 is selectable.
  const Bdd lower = v(0) & v(1);
  const Bdd upper = v(0);
  const IsopResult result = mgr.isop(lower, upper);
  EXPECT_EQ(result.cover.cube_count(), 1u);
  EXPECT_EQ(result.cover.literal_count(), 1u);
  EXPECT_TRUE(result.function == v(0));
}

TEST_F(BddAlgorithmsTest, IsopRejectsBadInterval) {
  EXPECT_THROW((void)mgr.isop(v(0), v(1)), std::invalid_argument);
}

TEST_F(BddAlgorithmsTest, IsopOfConstants) {
  const IsopResult zero = mgr.isop(mgr.zero(), mgr.zero());
  EXPECT_EQ(zero.cover.cube_count(), 0u);
  EXPECT_TRUE(zero.function.is_zero());
  const IsopResult one = mgr.isop(mgr.one(), mgr.one());
  EXPECT_EQ(one.cover.cube_count(), 1u);
  EXPECT_EQ(one.cover.literal_count(), 0u);
  EXPECT_TRUE(one.function.is_one());
}

TEST_F(BddAlgorithmsTest, ForeachMintermEnumeratesOnSet) {
  const Bdd f = v(0) ^ v(1);
  const std::vector<std::uint32_t> vars{0, 1};
  std::size_t count = 0;
  mgr.foreach_minterm(f, vars, [&](const std::vector<bool>& point) {
    EXPECT_NE(point[0], point[1]);
    ++count;
  });
  EXPECT_EQ(count, 2u);
}

TEST_F(BddAlgorithmsTest, ForeachMintermRejectsUnsortedVars) {
  const Bdd f = v(0) & v(1);
  const std::vector<std::uint32_t> vars{1, 0};
  EXPECT_THROW(mgr.foreach_minterm(f, vars, [](const std::vector<bool>&) {}),
               std::invalid_argument);
}

TEST_F(BddAlgorithmsTest, ForeachMintermRejectsMissingSupport) {
  const Bdd f = v(0) & v(3);
  const std::vector<std::uint32_t> vars{0, 1};
  EXPECT_THROW(mgr.foreach_minterm(f, vars, [](const std::vector<bool>&) {}),
               std::logic_error);
}

}  // namespace
}  // namespace brel
