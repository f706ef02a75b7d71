#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "encode/cnf_builder.hpp"
#include "encode/pb.hpp"
#include "util/rng.hpp"

namespace lar::encode {
namespace {

using sat::Lit;
using sat::mkLit;
using sat::SolveResult;
using sat::Solver;

// Enumerates all models of `solver` projected onto `lits` by blocking; the
// count is compared against an expected predicate evaluated on all 2^n
// assignments. Assumes the solver contains no variables beyond `lits` that
// constrain the projection count (auxiliary encoding vars are fine — each
// projected assignment is counted once).
template <typename Predicate>
void expectModelCount(Solver& solver, const std::vector<Lit>& lits,
                      Predicate predicate) {
    // Expected count by brute force.
    const std::size_t n = lits.size();
    ASSERT_LE(n, 16u);
    std::size_t expected = 0;
    for (std::uint64_t bits = 0; bits < (1ULL << n); ++bits) {
        std::vector<bool> assignment(n);
        for (std::size_t i = 0; i < n; ++i) assignment[i] = ((bits >> i) & 1) != 0;
        if (predicate(assignment)) ++expected;
    }
    // Count projected models with blocking clauses.
    std::size_t found = 0;
    while (solver.solve() == SolveResult::Sat) {
        ++found;
        ASSERT_LE(found, expected) << "more projected models than expected";
        std::vector<bool> assignment(n);
        std::vector<Lit> block;
        for (std::size_t i = 0; i < n; ++i) {
            assignment[i] = solver.modelValue(lits[i]);
            block.push_back(assignment[i] ? ~lits[i] : lits[i]);
        }
        EXPECT_TRUE(predicate(assignment));
        solver.addClause(std::move(block));
    }
    EXPECT_EQ(found, expected);
}

std::vector<Lit> freshLits(CnfBuilder& b, int n) {
    std::vector<Lit> lits;
    for (int i = 0; i < n; ++i) lits.push_back(b.newLit());
    return lits;
}

TEST(CnfBuilder, TrueLitIsTrue) {
    Solver s;
    CnfBuilder b(s);
    const Lit t = b.trueLit();
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(t));
    EXPECT_FALSE(s.modelValue(b.falseLit()));
}

TEST(CnfBuilder, AndGateBothPolarities) {
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    const Lit y = b.newLit();
    const Lit g = b.mkAnd(x, y);
    // Force g true: both inputs must hold.
    b.assertLit(g);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x));
    EXPECT_TRUE(s.modelValue(y));
    // Force g false while x,y true: UNSAT.
    Solver s2;
    CnfBuilder b2(s2);
    const Lit x2 = b2.newLit();
    const Lit y2 = b2.newLit();
    const Lit g2 = b2.mkAnd(x2, y2);
    b2.assertLit(~g2);
    b2.assertLit(x2);
    b2.assertLit(y2);
    EXPECT_EQ(s2.solve(), SolveResult::Unsat);
}

TEST(CnfBuilder, OrGateBothPolarities) {
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    const Lit y = b.newLit();
    const Lit g = b.mkOr(x, y);
    b.assertLit(~g);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(x));
    EXPECT_FALSE(s.modelValue(y));
}

TEST(CnfBuilder, EmptyGates) {
    Solver s;
    CnfBuilder b(s);
    EXPECT_EQ(b.mkAnd(std::span<const Lit>{}), b.trueLit());
    EXPECT_EQ(b.mkOr(std::span<const Lit>{}), b.falseLit());
}

TEST(CnfBuilder, IffAndXorTruthTables) {
    for (const bool xv : {false, true}) {
        for (const bool yv : {false, true}) {
            Solver s;
            CnfBuilder b(s);
            const Lit x = b.newLit();
            const Lit y = b.newLit();
            const Lit iff = b.mkIff(x, y);
            const Lit xr = b.mkXor(x, y);
            b.assertLit(xv ? x : ~x);
            b.assertLit(yv ? y : ~y);
            ASSERT_EQ(s.solve(), SolveResult::Sat);
            EXPECT_EQ(s.modelValue(iff), xv == yv);
            EXPECT_EQ(s.modelValue(xr), xv != yv);
        }
    }
}

TEST(CnfBuilder, IteTruthTable) {
    for (const bool cv : {false, true}) {
        for (const bool tv : {false, true}) {
            for (const bool ev : {false, true}) {
                Solver s;
                CnfBuilder b(s);
                const Lit c = b.newLit();
                const Lit t = b.newLit();
                const Lit e = b.newLit();
                const Lit out = b.mkIte(c, t, e);
                b.assertLit(cv ? c : ~c);
                b.assertLit(tv ? t : ~t);
                b.assertLit(ev ? e : ~e);
                ASSERT_EQ(s.solve(), SolveResult::Sat);
                EXPECT_EQ(s.modelValue(out), cv ? tv : ev);
            }
        }
    }
}

// --- Cardinality: unit-weight PbSum, parameterized over (n, k) -------------

// The two PbSum constructions production bounds a sum with: the flat one
// (LinLeq's backward counter) and the exclusive-group one (LinLeq's forward
// counter and the MaxSAT objective; singleton groups here). The case-name
// prefixes `seq`/`tot` date from when the sweep covered the sequential
// counter and the totalizer; unit-weight PbSum is the totalizer.
enum class UnitCounter { Flat, Grouped };

// Asserts Σ lits ≤ bound through a PbSum clamped at bound+1, as production
// clamps its counters; a negative bound must make the formula unsatisfiable.
void assertUnitAtMost(CnfBuilder& b, UnitCounter counter,
                      const std::vector<Lit>& lits, int bound) {
    std::vector<PbTerm> terms;
    std::vector<std::vector<PbTerm>> groups;
    for (const Lit l : lits) {
        terms.push_back({1, l});
        groups.push_back({{1, l}});
    }
    const std::int64_t clampAt = bound >= 0 ? bound + 1 : kNoClamp;
    const PbSum sum = counter == UnitCounter::Flat
                          ? PbSum(b, terms, clampAt)
                          : PbSum(b, std::span<const std::vector<PbTerm>>(groups),
                                  clampAt);
    b.assertLit(sum.atMostLit(b, bound));
}

// Σ lits ≥ k  ⇔  Σ ¬lits ≤ n − k, as LinLeq compiles its backward direction.
void assertUnitAtLeast(CnfBuilder& b, UnitCounter counter,
                       const std::vector<Lit>& lits, int k) {
    std::vector<Lit> negated;
    for (const Lit l : lits) negated.push_back(~l);
    assertUnitAtMost(b, counter, negated, static_cast<int>(lits.size()) - k);
}

using CardParam = std::tuple<UnitCounter, int, int>; // counter, n, k

class CardinalityTest : public ::testing::TestWithParam<CardParam> {};

TEST_P(CardinalityTest, AtMostExactCount) {
    const auto [counter, n, k] = GetParam();
    Solver s;
    CnfBuilder b(s);
    const auto lits = freshLits(b, n);
    assertUnitAtMost(b, counter, lits, k);
    expectModelCount(s, lits, [k = k](const std::vector<bool>& a) {
        return std::count(a.begin(), a.end(), true) <= k;
    });
}

TEST_P(CardinalityTest, AtLeastExactCount) {
    const auto [counter, n, k] = GetParam();
    Solver s;
    CnfBuilder b(s);
    const auto lits = freshLits(b, n);
    assertUnitAtLeast(b, counter, lits, k);
    expectModelCount(s, lits, [k = k](const std::vector<bool>& a) {
        return std::count(a.begin(), a.end(), true) >= k;
    });
}

TEST_P(CardinalityTest, ExactlyExactCount) {
    const auto [counter, n, k] = GetParam();
    Solver s;
    CnfBuilder b(s);
    const auto lits = freshLits(b, n);
    assertUnitAtMost(b, counter, lits, k);
    assertUnitAtLeast(b, counter, lits, k);
    expectModelCount(s, lits, [k = k](const std::vector<bool>& a) {
        return std::count(a.begin(), a.end(), true) == k;
    });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CardinalityTest,
    ::testing::Combine(::testing::Values(UnitCounter::Flat, UnitCounter::Grouped),
                       ::testing::Values(1, 2, 4, 5, 7), // n
                       ::testing::Values(0, 1, 2, 3, 6)), // k
    [](const ::testing::TestParamInfo<CardParam>& info) {
        const char* name =
            std::get<0>(info.param) == UnitCounter::Flat ? "seq" : "tot";
        return std::string(name) + "_n" + std::to_string(std::get<1>(info.param)) +
               "_k" + std::to_string(std::get<2>(info.param));
    });

TEST(Totalizer, OutputsReflectCount) {
    Solver s;
    CnfBuilder b(s);
    const auto lits = freshLits(b, 6);
    std::vector<PbTerm> terms;
    for (const Lit l : lits) terms.push_back({1, l});
    const PbSum t(b, terms);
    ASSERT_EQ(t.outputs().size(), 6u);
    // Force exactly 3 inputs true; asserting ~output(3) (sum ≥ 4) must stay
    // satisfiable while ~output(2) (sum ≥ 3) must not.
    for (int i = 0; i < 3; ++i) b.assertLit(lits[static_cast<std::size_t>(i)]);
    for (int i = 3; i < 6; ++i) b.assertLit(~lits[static_cast<std::size_t>(i)]);
    b.assertLit(~t.outputs()[3]); // at most 3: consistent
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    b.assertLit(~t.outputs()[2]); // at most 2: contradiction
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Totalizer, AtMostLitBeyondSizeIsTrue) {
    Solver s;
    CnfBuilder b(s);
    const auto lits = freshLits(b, 3);
    std::vector<PbTerm> terms;
    for (const Lit l : lits) terms.push_back({1, l});
    const PbSum t(b, terms);
    EXPECT_EQ(t.atMostLit(b, 5), b.trueLit());
}

// --- Pseudo-Boolean ---------------------------------------------------------

TEST(Pb, WeightedAtMostExactCount) {
    Solver s;
    CnfBuilder b(s);
    const auto lits = freshLits(b, 5);
    const std::vector<std::int64_t> weights{3, 5, 2, 7, 1};
    std::vector<PbTerm> terms;
    for (std::size_t i = 0; i < lits.size(); ++i)
        terms.push_back({weights[i], lits[i]});
    addPbAtMost(b, terms, 9);
    expectModelCount(s, lits, [&weights](const std::vector<bool>& a) {
        std::int64_t sum = 0;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a[i]) sum += weights[i];
        return sum <= 9;
    });
}

TEST(Pb, OversizedWeightForcesFalse) {
    Solver s;
    CnfBuilder b(s);
    const Lit big = b.newLit();
    const Lit small = b.newLit();
    addPbAtMost(b, std::vector<PbTerm>{{10, big}, {2, small}}, 5);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(big));
}

TEST(Pb, TrivialBoundAddsNothing) {
    Solver s;
    CnfBuilder b(s);
    const auto lits = freshLits(b, 3);
    std::vector<PbTerm> terms;
    for (const Lit l : lits) terms.push_back({1, l});
    addPbAtMost(b, terms, 3); // can never be violated
    EXPECT_EQ(s.numClauses(), 0u);
}

TEST(Pb, RandomizedAgainstBruteForce) {
    util::Rng rng(99);
    for (int round = 0; round < 25; ++round) {
        const int n = 3 + static_cast<int>(rng.below(5));
        Solver s;
        CnfBuilder b(s);
        const auto lits = freshLits(b, n);
        std::vector<PbTerm> terms;
        std::vector<std::int64_t> weights;
        std::int64_t total = 0;
        for (const Lit l : lits) {
            const std::int64_t w = 1 + static_cast<std::int64_t>(rng.below(9));
            terms.push_back({w, l});
            weights.push_back(w);
            total += w;
        }
        const std::int64_t bound = static_cast<std::int64_t>(rng.below(
            static_cast<std::uint64_t>(total + 1)));
        addPbAtMost(b, terms, bound);
        expectModelCount(s, lits, [&](const std::vector<bool>& a) {
            std::int64_t sum = 0;
            for (std::size_t i = 0; i < a.size(); ++i)
                if (a[i]) sum += weights[i];
            return sum <= bound;
        });
    }
}

TEST(PbSum, GeqLitDetectsThreshold) {
    Solver s;
    CnfBuilder b(s);
    const auto lits = freshLits(b, 4);
    std::vector<PbTerm> terms;
    for (const Lit l : lits) terms.push_back({2, l});
    const PbSum sum(b, terms);
    EXPECT_EQ(sum.maxSum(), 8);
    // Set three inputs true → sum = 6 → geq(6) forced true, geq(8) free.
    b.assertLit(lits[0]);
    b.assertLit(lits[1]);
    b.assertLit(lits[2]);
    b.assertLit(~lits[3]);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(sum.geqLit(b, 6)));
    EXPECT_TRUE(s.modelValue(sum.geqLit(b, 5))); // rounds up to sum 6
    // Asserting ¬geq(6) now must be UNSAT.
    b.assertLit(~sum.geqLit(b, 6));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(PbSum, GroupedAtMostExactCount) {
    // The exclusive-group constructor, as LinLeq compilation and MaxSAT use
    // it: at most one literal per group (the caller's invariant, asserted
    // pairwise here) and a weighted sum bounded through atMostLit.
    Solver s;
    CnfBuilder b(s);
    const auto lits = freshLits(b, 9);
    const std::vector<std::int64_t> weights{3, 5, 2, 7, 1, 4, 6, 2, 9};
    std::vector<std::vector<PbTerm>> groups(3);
    for (std::size_t i = 0; i < lits.size(); ++i)
        groups[i / 3].push_back({weights[i], lits[i]});
    for (const std::vector<PbTerm>& group : groups)
        for (std::size_t i = 0; i < group.size(); ++i)
            for (std::size_t j = i + 1; j < group.size(); ++j)
                b.addClause(~group[i].lit, ~group[j].lit);
    const PbSum sum(b, std::span<const std::vector<PbTerm>>(groups));
    EXPECT_EQ(sum.maxSum(), 5 + 7 + 9);
    b.assertLit(sum.atMostLit(b, 10));
    expectModelCount(s, lits, [&weights](const std::vector<bool>& a) {
        std::int64_t total = 0;
        for (std::size_t g = 0; g < 3; ++g) {
            int chosen = 0;
            for (std::size_t i = 3 * g; i < 3 * g + 3; ++i) {
                if (!a[i]) continue;
                ++chosen;
                total += weights[i];
            }
            if (chosen > 1) return false;
        }
        return total <= 10;
    });
}

TEST(PbSum, EmptyTermsIsZero) {
    Solver s;
    CnfBuilder b(s);
    const PbSum sum(b, std::vector<PbTerm>{});
    EXPECT_EQ(sum.maxSum(), 0);
    EXPECT_EQ(sum.atMostLit(b, 0), b.trueLit());
}

} // namespace
} // namespace lar::encode
