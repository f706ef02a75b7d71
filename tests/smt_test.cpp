#include <gtest/gtest.h>

#include <algorithm>

#include "smt/backend.hpp"
#include "smt/formula.hpp"
#include "util/rng.hpp"

namespace lar::smt {
namespace {

TEST(FormulaStore, ConstantsAndFolding) {
    FormulaStore f;
    const NodeId t = f.constant(true);
    const NodeId fa = f.constant(false);
    EXPECT_EQ(f.mkNot(t), fa);
    EXPECT_EQ(f.mkNot(f.mkNot(f.var("x"))), f.var("x"));
    EXPECT_EQ(f.mkAnd(t, f.var("x")), f.var("x"));
    EXPECT_EQ(f.mkAnd(fa, f.var("x")), fa);
    EXPECT_EQ(f.mkOr(t, f.var("x")), t);
    EXPECT_EQ(f.mkOr(fa, f.var("x")), f.var("x"));
    EXPECT_EQ(f.mkAnd(std::vector<NodeId>{}), t);
    EXPECT_EQ(f.mkOr(std::vector<NodeId>{}), fa);
}

TEST(FormulaStore, VarInterning) {
    FormulaStore f;
    EXPECT_EQ(f.var("a"), f.var("a"));
    EXPECT_NE(f.var("a"), f.var("b"));
    EXPECT_TRUE(f.findVar("a").has_value());
    EXPECT_FALSE(f.findVar("zz").has_value());
}

TEST(FormulaStore, AsLiteral) {
    FormulaStore f;
    const NodeId x = f.var("x");
    const auto pos = f.asLiteral(x);
    ASSERT_TRUE(pos.has_value());
    EXPECT_EQ(pos->first, x);
    EXPECT_FALSE(pos->second);
    const auto neg = f.asLiteral(f.mkNot(x));
    ASSERT_TRUE(neg.has_value());
    EXPECT_TRUE(neg->second);
    EXPECT_FALSE(f.asLiteral(f.mkAnd(x, f.var("y"))).has_value());
}

TEST(FormulaStore, LinLeqFolding) {
    FormulaStore f;
    const NodeId x = f.var("x");
    const NodeId y = f.var("y");
    // Bound below zero → false; bound ≥ total → true.
    EXPECT_EQ(f.mkLinLeq({{1, x, false}, {1, y, false}}, -1), f.constant(false));
    EXPECT_EQ(f.mkLinLeq({{1, x, false}, {1, y, false}}, 2), f.constant(true));
    EXPECT_EQ(f.mkLinGeq({{2, x, false}}, 0), f.constant(true));
    EXPECT_EQ(f.mkLinGeq({{2, x, false}}, 3), f.constant(false));
    // Bound below every coefficient: every term false.
    EXPECT_EQ(f.toString(f.mkLinLeq({{2, x}, {3, y, true}}, 1)), "(!x & y)");
    // Total − bound ≤ smallest coefficient: some term false.
    EXPECT_EQ(f.toString(f.mkLinLeq({{2, x}, {3, y, true}}, 4)), "(!x | y)");
    // At least one of three is one clause, not a counter.
    const std::vector<NodeId> lits{x, y, f.var("z")};
    EXPECT_EQ(f.toString(f.mkAtLeast(lits, 1)), "(x | y | z)");
}

TEST(FormulaStore, LinLeqNormalizesNegatedVars) {
    FormulaStore f;
    const NodeId x = f.var("x");
    // Three unit terms ≤ 1 has no shorter form, so it stays a LinLeq.
    const NodeId atom =
        f.mkLinLeq({{1, f.mkNot(x), false}, {1, f.var("y")}, {1, f.var("z")}}, 1);
    const Node& n = f.node(atom);
    ASSERT_EQ(n.kind, NodeKind::LinLeq);
    ASSERT_EQ(n.terms.size(), 3u);
    EXPECT_EQ(n.terms[0].var, x);
    EXPECT_TRUE(n.terms[0].negated);
    // {1·¬x} ≤ 0 says ¬x is false: the literal x.
    EXPECT_EQ(f.mkLinLeq({{1, f.mkNot(x), false}}, 0), x);
}

TEST(FormulaStore, LinLeqFoldsPreserveSemantics) {
    // Every bound from −1 to total+1 on random term lists: whatever node
    // mkLinLeq returns must evaluate like Σ ≤ bound on every assignment, and
    // a LinLeq it returns must have no shorter form.
    util::Rng rng(2024);
    for (std::size_t n = 1; n <= 6; ++n) {
        for (int round = 0; round < 30; ++round) {
            FormulaStore f;
            std::vector<NodeId> vars;
            std::vector<LinTerm> terms;
            std::int64_t total = 0;
            for (std::size_t i = 0; i < n; ++i) {
                vars.push_back(f.var("v" + std::to_string(i)));
                LinTerm t{1 + static_cast<std::int64_t>(rng.below(5)), vars.back(),
                          rng.chance(0.5), static_cast<int>(rng.below(3)) - 1};
                // Reach negation through a Not node as often as the flag.
                if (rng.chance(0.5)) {
                    t.var = f.mkNot(t.var);
                    t.negated = !t.negated;
                }
                total += t.coef;
                terms.push_back(t);
            }
            for (std::int64_t bound = -1; bound <= total + 1; ++bound) {
                const NodeId atom = f.mkLinLeq(terms, bound);
                const Node& node = f.node(atom);
                if (node.kind == NodeKind::LinLeq) {
                    std::int64_t minCoef = total;
                    for (const LinTerm& t : node.terms)
                        minCoef = std::min(minCoef, t.coef);
                    EXPECT_GE(node.bound, minCoef);
                    EXPECT_GT(total - node.bound, minCoef);
                }
                for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
                    std::unordered_map<NodeId, bool> model;
                    std::int64_t sum = 0;
                    for (std::size_t i = 0; i < n; ++i) {
                        const bool value = ((bits >> i) & 1u) != 0;
                        model[vars[i]] = value;
                        const auto lit = f.asLiteral(terms[i].var);
                        const bool negated = terms[i].negated != lit->second;
                        if (value != negated) sum += terms[i].coef;
                    }
                    ASSERT_EQ(f.evaluate(atom, model), sum <= bound)
                        << "n=" << n << " bound=" << bound << " bits=" << bits
                        << " node=" << f.toString(atom);
                }
            }
        }
    }
}

TEST(FormulaStore, LinLeqInterning) {
    FormulaStore f;
    const NodeId x = f.var("x");
    const NodeId y = f.var("y");
    const NodeId z = f.var("z");
    const std::vector<LinTerm> terms{{1, x, false, 0}, {1, y, false, 0}, {1, z}};
    const NodeId atom = f.mkLinLeq(terms, 1);
    ASSERT_EQ(f.node(atom).kind, NodeKind::LinLeq);
    // Equal content, whether a term names its var or a Not of it.
    EXPECT_EQ(f.mkLinLeq(terms, 1), atom);
    EXPECT_EQ(f.mkLinLeq({{1, x, false, 0}, {1, f.mkNot(f.mkNot(y)), false, 0}, {1, z}}, 1),
              atom);
    // A different bound, group or negation is a different atom.
    const std::vector<LinTerm> wider{{1, x}, {1, y}, {1, z}, {1, f.var("w")}};
    EXPECT_NE(f.mkLinLeq(wider, 1), f.mkLinLeq(wider, 2));
    EXPECT_NE(f.mkLinLeq({{1, x, false, 0}, {1, y, false, 1}, {1, z}}, 1), atom);
    EXPECT_NE(f.mkLinLeq({{1, x, false, 0}, {1, y, true, 0}, {1, z}}, 1), atom);
    // A copy of the store knows the atoms made before the copy.
    FormulaStore copy = f;
    const std::size_t size = copy.size();
    EXPECT_EQ(copy.mkLinLeq(terms, 1), atom);
    EXPECT_EQ(copy.size(), size);
}

TEST(FormulaStore, EvaluateMatchesSemantics) {
    FormulaStore f;
    const NodeId x = f.var("x");
    const NodeId y = f.var("y");
    const NodeId expr = f.mkOr(f.mkAnd(x, f.mkNot(y)), f.mkLinLeq({{1, x, false}, {1, y, false}}, 1));
    std::unordered_map<NodeId, bool> m{{x, true}, {y, true}};
    EXPECT_FALSE(f.evaluate(f.mkAnd(x, f.mkNot(y)), m));
    EXPECT_FALSE(f.evaluate(f.mkLinLeq({{1, x, false}, {1, y, false}}, 1), m));
    EXPECT_FALSE(f.evaluate(expr, m));
    m[y] = false;
    EXPECT_TRUE(f.evaluate(expr, m));
}

TEST(FormulaStore, ToStringIsReadable) {
    FormulaStore f;
    const NodeId x = f.var("x");
    const NodeId y = f.var("y");
    EXPECT_EQ(f.toString(f.mkAnd(x, f.mkNot(y))), "(x & !y)");
    EXPECT_EQ(f.toString(f.mkLinLeq({{2, x, false}, {1, y, true}, {1, f.var("z")}}, 2)),
              "(2*x + !y + z <= 2)");
    // {2x, ¬y} ≤ 2 holds unless both terms are true.
    EXPECT_EQ(f.toString(f.mkLinLeq({{2, x, false}, {1, y, true}}, 2)), "(!x | y)");
}

// --- Backend conformance: both backends must behave identically -------------

std::vector<BackendKind> availableBackends() {
    std::vector<BackendKind> kinds{BackendKind::Cdcl};
    if (haveZ3()) kinds.push_back(BackendKind::Z3);
    return kinds;
}

class BackendTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BackendTest, SimpleSatAndModel) {
    FormulaStore f;
    const NodeId x = f.var("x");
    const NodeId y = f.var("y");
    auto backend = makeBackend(GetParam(), f);
    backend->addHard(f.mkOr(x, y));
    backend->addHard(f.mkNot(x));
    ASSERT_EQ(backend->check(), CheckStatus::Sat);
    EXPECT_FALSE(backend->modelValue(x));
    EXPECT_TRUE(backend->modelValue(y));
}

TEST_P(BackendTest, UnsatDetected) {
    FormulaStore f;
    const NodeId x = f.var("x");
    auto backend = makeBackend(GetParam(), f);
    backend->addHard(x);
    backend->addHard(f.mkNot(x));
    EXPECT_EQ(backend->check(), CheckStatus::Unsat);
}

TEST_P(BackendTest, AssumptionsAndCore) {
    FormulaStore f;
    const NodeId x = f.var("x");
    const NodeId y = f.var("y");
    const NodeId z = f.var("z");
    auto backend = makeBackend(GetParam(), f);
    backend->addHard(f.mkOr(f.mkNot(x), f.mkNot(y))); // ¬(x ∧ y)
    const std::vector<NodeId> assume{z, x, y};
    ASSERT_EQ(backend->check(assume), CheckStatus::Unsat);
    const CoreResult core = backend->unsatCore();
    // z is irrelevant; the core should name x and/or y only.
    for (const NodeId a : core.assumptions) EXPECT_NE(a, z);
    EXPECT_FALSE(core.assumptions.empty());
}

TEST_P(BackendTest, TrackedConstraintsAppearInCore) {
    FormulaStore f;
    const NodeId x = f.var("x");
    auto backend = makeBackend(GetParam(), f);
    backend->addHard(x, /*track=*/7);
    backend->addHard(f.mkNot(x), /*track=*/9);
    backend->addHard(f.var("unrelated"), /*track=*/13);
    ASSERT_EQ(backend->check(), CheckStatus::Unsat);
    const CoreResult core = backend->unsatCore();
    EXPECT_FALSE(core.tracks.empty());
    for (const int t : core.tracks) EXPECT_NE(t, 13);
    // Both sides of the contradiction should be present.
    EXPECT_NE(std::find(core.tracks.begin(), core.tracks.end(), 7),
              core.tracks.end());
    EXPECT_NE(std::find(core.tracks.begin(), core.tracks.end(), 9),
              core.tracks.end());
}

TEST_P(BackendTest, LinLeqBothPolarities) {
    FormulaStore f;
    const NodeId a = f.var("a");
    const NodeId b = f.var("b");
    const NodeId c = f.var("c");
    const NodeId atMostOne =
        f.mkLinLeq({{1, a, false}, {1, b, false}, {1, c, false}}, 1);
    auto backend = makeBackend(GetParam(), f);
    // Negated atom: at least two of a,b,c.
    backend->addHard(f.mkNot(atMostOne));
    ASSERT_EQ(backend->check(), CheckStatus::Sat);
    int count = 0;
    for (const NodeId v : {a, b, c})
        if (backend->modelValue(v)) ++count;
    EXPECT_GE(count, 2);
}

TEST_P(BackendTest, OptimizeLexicographic) {
    FormulaStore f;
    const NodeId x = f.var("x");
    const NodeId y = f.var("y");
    const NodeId z = f.var("z");
    auto backend = makeBackend(GetParam(), f);
    backend->addHard(f.mkOr(f.mkNot(x), f.mkNot(y))); // x excludes y
    backend->addHard(f.mkOr(f.mkNot(x), f.mkNot(z))); // x excludes z
    const std::vector<ObjectiveSpec> objectives{
        {"first", {{x, 1}}},
        {"second", {{y, 1}, {z, 1}}},
    };
    const OptimizeResult r = backend->optimize(objectives);
    ASSERT_TRUE(r.feasible);
    ASSERT_EQ(r.costs.size(), 2u);
    EXPECT_EQ(r.costs[0], 0);
    EXPECT_EQ(r.costs[1], 2);
    EXPECT_TRUE(backend->modelValue(x));
}

TEST_P(BackendTest, OptimizeInfeasible) {
    FormulaStore f;
    const NodeId x = f.var("x");
    auto backend = makeBackend(GetParam(), f);
    backend->addHard(x);
    backend->addHard(f.mkNot(x));
    const std::vector<ObjectiveSpec> objectives{{"o", {{f.var("y"), 1}}}};
    EXPECT_FALSE(backend->optimize(objectives).feasible);
}

TEST_P(BackendTest, OptimizeWeighted) {
    FormulaStore f;
    const NodeId x = f.var("x");
    const NodeId y = f.var("y");
    auto backend = makeBackend(GetParam(), f);
    backend->addHard(f.mkOr(f.mkNot(x), f.mkNot(y)));
    const std::vector<ObjectiveSpec> objectives{{"o", {{x, 7}, {y, 3}}}};
    const OptimizeResult r = backend->optimize(objectives);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.costs[0], 3);
    EXPECT_TRUE(backend->modelValue(x));
    EXPECT_FALSE(backend->modelValue(y));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::ValuesIn(availableBackends()),
                         [](const ::testing::TestParamInfo<BackendKind>& info) {
                             return info.param == BackendKind::Cdcl ? "cdcl" : "z3";
                         });

// --- Cross-backend agreement on random formulas -----------------------------

NodeId randomFormula(FormulaStore& f, util::Rng& rng, int depth,
                     const std::vector<NodeId>& vars) {
    if (depth == 0 || rng.chance(0.3)) {
        const NodeId v = vars[rng.below(vars.size())];
        return rng.chance(0.5) ? v : f.mkNot(v);
    }
    const double pick = rng.uniform();
    if (pick < 0.35) {
        return f.mkAnd(randomFormula(f, rng, depth - 1, vars),
                       randomFormula(f, rng, depth - 1, vars));
    }
    if (pick < 0.7) {
        return f.mkOr(randomFormula(f, rng, depth - 1, vars),
                      randomFormula(f, rng, depth - 1, vars));
    }
    if (pick < 0.85) {
        return f.mkNot(randomFormula(f, rng, depth - 1, vars));
    }
    // Linear atom over a random subset.
    std::vector<LinTerm> terms;
    for (const NodeId v : vars)
        if (rng.chance(0.6))
            terms.push_back({1 + static_cast<std::int64_t>(rng.below(3)), v,
                             rng.chance(0.3)});
    if (terms.empty()) terms.push_back({1, vars[0], false});
    std::int64_t total = 0;
    for (const auto& t : terms) total += t.coef;
    return f.mkLinLeq(std::move(terms),
                      static_cast<std::int64_t>(rng.below(
                          static_cast<std::uint64_t>(total + 1))));
}

TEST(BackendAgreement, RandomFormulasSameVerdict) {
    if (!haveZ3()) GTEST_SKIP() << "built without Z3";
    util::Rng rng(31337);
    int satSeen = 0;
    int unsatSeen = 0;
    for (int round = 0; round < 40; ++round) {
        FormulaStore f;
        std::vector<NodeId> vars;
        for (int i = 0; i < 5; ++i) vars.push_back(f.var("v" + std::to_string(i)));
        auto cdcl = makeBackend(BackendKind::Cdcl, f);
        auto z3b = makeBackend(BackendKind::Z3, f);
        for (int c = 0; c < 6; ++c) {
            const NodeId g = randomFormula(f, rng, 3, vars);
            cdcl->addHard(g);
            z3b->addHard(g);
        }
        const CheckStatus a = cdcl->check();
        const CheckStatus b = z3b->check();
        EXPECT_EQ(a, b) << "round " << round;
        if (a == CheckStatus::Sat) ++satSeen;
        if (a == CheckStatus::Unsat) ++unsatSeen;
    }
    EXPECT_GT(satSeen, 0);
    EXPECT_GT(unsatSeen, 0);
}

TEST(BackendAgreement, RandomOptimizationSameCosts) {
    if (!haveZ3()) GTEST_SKIP() << "built without Z3";
    util::Rng rng(2718);
    int feasibleSeen = 0;
    for (int round = 0; round < 25; ++round) {
        FormulaStore f;
        std::vector<NodeId> vars;
        for (int i = 0; i < 5; ++i) vars.push_back(f.var("v" + std::to_string(i)));
        auto cdcl = makeBackend(BackendKind::Cdcl, f);
        auto z3b = makeBackend(BackendKind::Z3, f);
        for (int c = 0; c < 4; ++c) {
            const NodeId g = randomFormula(f, rng, 2, vars);
            cdcl->addHard(g);
            z3b->addHard(g);
        }
        std::vector<ObjectiveSpec> objectives(2);
        objectives[0].name = "a";
        objectives[1].name = "b";
        for (int i = 0; i < 5; ++i)
            objectives[static_cast<std::size_t>(i % 2)].softs.push_back(
                {rng.chance(0.5) ? vars[static_cast<std::size_t>(i)]
                                 : f.mkNot(vars[static_cast<std::size_t>(i)]),
                 1 + static_cast<std::int64_t>(rng.below(4))});
        const OptimizeResult ra = cdcl->optimize(objectives);
        const OptimizeResult rb = z3b->optimize(objectives);
        ASSERT_EQ(ra.feasible, rb.feasible) << "round " << round;
        if (!ra.feasible) continue;
        ++feasibleSeen;
        ASSERT_EQ(ra.costs, rb.costs) << "round " << round;
    }
    EXPECT_GT(feasibleSeen, 5);
}

} // namespace
} // namespace lar::smt
