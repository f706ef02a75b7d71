#include <gtest/gtest.h>

#include <algorithm>

#include "encode/cnf_builder.hpp"
#include "opt/maxsat.hpp"
#include "util/rng.hpp"

namespace lar::opt {
namespace {

using encode::CnfBuilder;
using sat::Lit;
using sat::Solver;
using sat::SolveResult;

TEST(MaxSat, AllSoftsSatisfiableCostZero) {
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    const Lit y = b.newLit();
    const std::vector<SoftConstraint> softs{{x, 1}, {y, 1}};
    const auto cost = minimizeAndLock(b, softs);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 0);
    EXPECT_TRUE(s.modelValue(x));
    EXPECT_TRUE(s.modelValue(y));
}

TEST(MaxSat, HardUnsatReturnsNullopt) {
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    b.assertLit(x);
    b.assertLit(~x);
    const std::vector<SoftConstraint> softs{{b.newLit(), 1}};
    EXPECT_FALSE(minimizeAndLock(b, softs).has_value());
}

TEST(MaxSat, PicksCheapestViolation) {
    // x ⊕ y forced; soft prefers both true; violating the lighter one wins.
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    const Lit y = b.newLit();
    b.addClause(x, y);
    b.addClause(~x, ~y);
    const std::vector<SoftConstraint> softs{{x, 5}, {y, 2}};
    const auto cost = minimizeAndLock(b, softs);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 2);
    EXPECT_TRUE(s.modelValue(x));
    EXPECT_FALSE(s.modelValue(y));
}

TEST(MaxSat, WeightedTradeoff) {
    // Mutually exclusive a,b,c with weights 3,4,5: keep c (violate 3+4=7)…
    // no wait — softs want each true, only one can hold: optimum keeps the
    // heaviest and pays the other two.
    Solver s;
    CnfBuilder b(s);
    const Lit a = b.newLit();
    const Lit bb = b.newLit();
    const Lit c = b.newLit();
    b.addClause(~a, ~bb);
    b.addClause(~a, ~c);
    b.addClause(~bb, ~c);
    const std::vector<SoftConstraint> softs{{a, 3}, {bb, 4}, {c, 5}};
    const auto cost = minimizeAndLock(b, softs);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 7);
    EXPECT_TRUE(s.modelValue(c));
}

TEST(MaxSat, ZeroWeightSoftsIgnored) {
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    b.assertLit(~x);
    const std::vector<SoftConstraint> softs{{x, 0}};
    const auto cost = minimizeAndLock(b, softs);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 0);
}

TEST(MaxSat, RespectsAssumptions) {
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    const Lit y = b.newLit();
    b.addClause(~x, ~y); // not both
    const std::vector<SoftConstraint> softs{{x, 10}, {y, 1}};
    // Without assumptions the optimum keeps x. Assume ¬x: optimum pays 10.
    const std::vector<Lit> assume{~x};
    const auto cost = minimizeAndLock(b, softs, assume);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 10);
    EXPECT_TRUE(s.modelValue(y));
}

TEST(MaxSat, RandomizedMatchesExhaustiveOptimum) {
    util::Rng rng(4242);
    for (int round = 0; round < 20; ++round) {
        const int n = 4 + static_cast<int>(rng.below(4));
        Solver s;
        CnfBuilder b(s);
        std::vector<Lit> lits;
        for (int i = 0; i < n; ++i) lits.push_back(b.newLit());
        // Random hard 2-clauses (kept satisfiable by construction: skip any
        // clause that would make the formula UNSAT — checked at the end).
        std::vector<std::vector<Lit>> hard;
        for (int c = 0; c < n; ++c) {
            const Lit l1 = lits[rng.below(static_cast<std::uint64_t>(n))];
            Lit l2 = lits[rng.below(static_cast<std::uint64_t>(n))];
            hard.push_back({rng.chance(0.5) ? l1 : ~l1, rng.chance(0.5) ? l2 : ~l2});
            b.addClause(hard.back());
        }
        std::vector<SoftConstraint> softs;
        std::vector<std::int64_t> weights;
        for (int i = 0; i < n; ++i) {
            const std::int64_t w = 1 + static_cast<std::int64_t>(rng.below(6));
            softs.push_back({lits[static_cast<std::size_t>(i)], w});
            weights.push_back(w);
        }
        // Exhaustive optimum.
        std::int64_t best = -1;
        for (std::uint64_t bits = 0; bits < (1ULL << n); ++bits) {
            std::vector<bool> a(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i) a[static_cast<std::size_t>(i)] = ((bits >> i) & 1) != 0;
            bool ok = true;
            for (const auto& clause : hard) {
                bool satc = false;
                for (const Lit l : clause)
                    if (a[static_cast<std::size_t>(l.var())] != l.sign()) satc = true;
                if (!satc) {
                    ok = false;
                    break;
                }
            }
            if (!ok) continue;
            std::int64_t cost = 0;
            for (int i = 0; i < n; ++i)
                if (!a[static_cast<std::size_t>(i)]) cost += weights[static_cast<std::size_t>(i)];
            if (best < 0 || cost < best) best = cost;
        }
        const std::uint64_t solvesBefore = s.stats().solves;
        const auto cost = minimizeAndLock(b, softs);
        // One plain solve for a first model, one improving solve for the
        // rest of the level — never a re-solve per improvement or a lock.
        EXPECT_LE(s.stats().solves - solvesBefore, 2u) << "round " << round;
        if (best < 0) {
            EXPECT_FALSE(cost.has_value()) << "round " << round;
        } else {
            ASSERT_TRUE(cost.has_value()) << "round " << round;
            EXPECT_EQ(*cost, best) << "round " << round;
        }
    }
}

/// Pigeons that each want a hole, at most one pigeon per hole: the soft
/// "pigeon i is placed" is violated for every pigeon left out. The optimum
/// leaves pigeons − holes out, and proving nothing better exists is a
/// pigeonhole refutation, which costs CDCL many conflicts.
std::vector<SoftConstraint> buildPigeonhole(CnfBuilder& b, int pigeons, int holes) {
    std::vector<std::vector<Lit>> in(static_cast<std::size_t>(pigeons));
    for (auto& row : in)
        for (int h = 0; h < holes; ++h) row.push_back(b.newLit());
    for (int h = 0; h < holes; ++h)
        for (int i = 0; i < pigeons; ++i)
            for (int k = i + 1; k < pigeons; ++k)
                b.addClause(~in[static_cast<std::size_t>(i)][static_cast<std::size_t>(h)],
                            ~in[static_cast<std::size_t>(k)][static_cast<std::size_t>(h)]);
    std::vector<SoftConstraint> softs;
    for (const auto& row : in) {
        const Lit placed = b.newLit();
        std::vector<Lit> clause{~placed};
        clause.insert(clause.end(), row.begin(), row.end());
        b.addClause(std::move(clause));
        softs.push_back({placed, 1});
    }
    return softs;
}

/// Exhaustive optimum of buildPigeonhole: every map pigeon → {no hole,
/// hole 0..holes-1}. Putting a pigeon in several holes never places more
/// pigeons, so these maps attain every achievable cost.
std::int64_t pigeonholeOptimum(int pigeons, int holes) {
    std::int64_t best = pigeons;
    std::vector<int> slot(static_cast<std::size_t>(pigeons), 0); // 0 = none
    while (true) {
        std::vector<int> used(static_cast<std::size_t>(holes), 0);
        bool ok = true;
        std::int64_t cost = 0;
        for (const int h : slot) {
            if (h == 0) {
                ++cost;
            } else if (used[static_cast<std::size_t>(h - 1)]++ > 0) {
                ok = false;
            }
        }
        if (ok) best = std::min(best, cost);
        std::size_t i = 0;
        while (i < slot.size() && ++slot[i] > holes) slot[i++] = 0;
        if (i == slot.size()) break;
    }
    return best;
}

TEST(MaxSat, BudgetStopAfterAnImprovementKeepsBestModel) {
    // Anytime behaviour: a conflict budget that runs out inside the
    // improving search, after at least one better model, must report
    // unknown and return the best cost found, with the model attaining it
    // loaded. The budget applies per solve(), i.e. to the whole level.
    constexpr int kPigeons = 6;
    constexpr int kHoles = 5;
    const std::int64_t optimum = pigeonholeOptimum(kPigeons, kHoles);
    ASSERT_EQ(optimum, kPigeons - kHoles);
    int stoppedAfterImproving = 0;
    for (std::int64_t budget = 1; budget <= 200; ++budget) {
        sat::SolverOptions opts;
        opts.conflictBudget = budget;
        // The first solve() of minimizeAndLock, replayed on an identical
        // solver: solving is deterministic, so this is its first model.
        Solver first(opts);
        CnfBuilder firstBuilder(first);
        const std::vector<SoftConstraint> firstSofts =
            buildPigeonhole(firstBuilder, kPigeons, kHoles);
        if (first.solve() != SolveResult::Sat) continue;
        std::int64_t firstCost = 0;
        for (const SoftConstraint& soft : firstSofts)
            if (!first.modelValue(soft.lit)) firstCost += soft.weight;

        Solver s(opts);
        CnfBuilder b(s);
        const std::vector<SoftConstraint> softs = buildPigeonhole(b, kPigeons, kHoles);
        bool unknown = false;
        const auto cost = minimizeAndLock(b, softs, {}, &unknown);
        ASSERT_TRUE(cost.has_value()) << "budget " << budget;
        std::int64_t loaded = 0;
        for (const SoftConstraint& soft : softs)
            if (!s.modelValue(soft.lit)) loaded += soft.weight;
        EXPECT_EQ(*cost, loaded) << "budget " << budget;
        EXPECT_GE(*cost, optimum) << "budget " << budget;
        if (!unknown) {
            EXPECT_EQ(*cost, optimum) << "budget " << budget;
        } else if (*cost < firstCost) {
            ++stoppedAfterImproving;
        }
    }
    EXPECT_GT(stoppedAfterImproving, 0)
        << "no budget ran out after an improvement";
}

TEST(Lex, TwoLevelPriority) {
    // Level 1 prefers x; level 2 prefers y and z. Hard: x excludes y and z.
    // Lexicographic: satisfy level 1 (keep x), pay the whole level 2.
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    const Lit y = b.newLit();
    const Lit z = b.newLit();
    b.addClause(~x, ~y);
    b.addClause(~x, ~z);
    const std::vector<Objective> objectives{
        {"level1", {{x, 1}}},
        {"level2", {{y, 1}, {z, 1}}},
    };
    const LexResult r = optimizeLex(b, objectives);
    ASSERT_TRUE(r.feasible);
    ASSERT_EQ(r.costs.size(), 2u);
    EXPECT_EQ(r.costs[0], 0);
    EXPECT_EQ(r.costs[1], 2);
    EXPECT_TRUE(s.modelValue(x));
}

TEST(Lex, ReversedPriorityFlipsOutcome) {
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    const Lit y = b.newLit();
    const Lit z = b.newLit();
    b.addClause(~x, ~y);
    b.addClause(~x, ~z);
    const std::vector<Objective> objectives{
        {"level1", {{y, 1}, {z, 1}}},
        {"level2", {{x, 1}}},
    };
    const LexResult r = optimizeLex(b, objectives);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.costs[0], 0);
    EXPECT_EQ(r.costs[1], 1); // x must be violated now
    EXPECT_FALSE(s.modelValue(x));
    EXPECT_TRUE(s.modelValue(y));
    EXPECT_TRUE(s.modelValue(z));
}

TEST(Lex, EmptyObjectivesJustChecksFeasibility) {
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    b.assertLit(x);
    const LexResult r = optimizeLex(b, std::vector<Objective>{});
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(r.costs.empty());
}

TEST(Lex, InfeasibleHardConstraints) {
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.newLit();
    b.assertLit(x);
    b.assertLit(~x);
    const std::vector<Objective> objectives{{"o", {{b.newLit(), 1}}}};
    const LexResult r = optimizeLex(b, objectives);
    EXPECT_FALSE(r.feasible);
}

TEST(Lex, ThreeLevelsCaseStudyShape) {
    // Mimics Listing 3: Optimize(latency > hardware_cost > monitoring).
    // latency wants fast=true; cost wants cheap=true; monitoring wants
    // mon=true. Hard: fast excludes cheap; cheap excludes mon is absent.
    Solver s;
    CnfBuilder b(s);
    const Lit fast = b.newLit();
    const Lit cheap = b.newLit();
    const Lit mon = b.newLit();
    b.addClause(~fast, ~cheap);
    const std::vector<Objective> objectives{
        {"latency", {{fast, 1}}},
        {"hardware_cost", {{cheap, 1}}},
        {"monitoring", {{mon, 1}}},
    };
    const LexResult r = optimizeLex(b, objectives);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.costs, (std::vector<std::int64_t>{0, 1, 0}));
    EXPECT_TRUE(s.modelValue(fast));
    EXPECT_FALSE(s.modelValue(cheap));
    EXPECT_TRUE(s.modelValue(mon));
}

} // namespace
} // namespace lar::opt
