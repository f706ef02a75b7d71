#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "testsupport.hpp"
#include "util/rng.hpp"

namespace lar::sat {
namespace {

using test::bruteForceSat;
using test::randomKSat;
using test::satisfies;

TEST(Lit, EncodingRoundTrip) {
    const Lit p = mkLit(5);
    EXPECT_EQ(p.var(), 5);
    EXPECT_FALSE(p.sign());
    const Lit n = ~p;
    EXPECT_EQ(n.var(), 5);
    EXPECT_TRUE(n.sign());
    EXPECT_EQ(~n, p);
    EXPECT_EQ(Lit::fromIndex(p.index()), p);
    EXPECT_EQ(p.toDimacs(), 6);
    EXPECT_EQ(n.toDimacs(), -6);
}

TEST(Lit, UndefIsNotDefined) {
    EXPECT_FALSE(kUndefLit.isDefined());
    EXPECT_TRUE(mkLit(0).isDefined());
}

TEST(Solver, EmptyFormulaIsSat) {
    Solver s;
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Solver, SingleUnit) {
    Solver s;
    const Var x = s.newVar();
    ASSERT_TRUE(s.addClause(mkLit(x)));
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x));
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
    Solver s;
    const Var x = s.newVar();
    ASSERT_TRUE(s.addClause(mkLit(x)));
    EXPECT_FALSE(s.addClause(~mkLit(x)));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
    EXPECT_TRUE(s.inconsistent());
}

TEST(Solver, TautologyIgnored) {
    Solver s;
    const Var x = s.newVar();
    ASSERT_TRUE(s.addClause(std::vector<Lit>{mkLit(x), ~mkLit(x)}));
    EXPECT_EQ(s.numClauses(), 0u);
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Solver, DuplicateLiteralsCollapse) {
    Solver s;
    const Var x = s.newVar();
    ASSERT_TRUE(s.addClause(std::vector<Lit>{mkLit(x), mkLit(x), mkLit(x)}));
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x));
}

TEST(Solver, SimpleImplicationChain) {
    // x0 ∧ (x0→x1) ∧ (x1→x2) ∧ ... forces all true.
    Solver s;
    constexpr int n = 20;
    std::vector<Var> vars;
    for (int i = 0; i < n; ++i) vars.push_back(s.newVar());
    ASSERT_TRUE(s.addClause(mkLit(vars[0])));
    for (int i = 0; i + 1 < n; ++i)
        ASSERT_TRUE(s.addClause(~mkLit(vars[i]), mkLit(vars[i + 1])));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    for (const Var v : vars) EXPECT_TRUE(s.modelValue(v));
}

TEST(Solver, PigeonholeUnsat) {
    // 4 pigeons, 3 holes: classic small UNSAT instance needing real search.
    Solver s;
    constexpr int pigeons = 4;
    constexpr int holes = 3;
    Var p[pigeons][holes];
    for (auto& row : p)
        for (auto& v : row) v = s.newVar();
    for (int i = 0; i < pigeons; ++i) {
        std::vector<Lit> atLeastOne;
        for (int j = 0; j < holes; ++j) atLeastOne.push_back(mkLit(p[i][j]));
        ASSERT_TRUE(s.addClause(std::move(atLeastOne)));
    }
    for (int j = 0; j < holes; ++j)
        for (int i = 0; i < pigeons; ++i)
            for (int k = i + 1; k < pigeons; ++k)
                ASSERT_TRUE(s.addClause(~mkLit(p[i][j]), ~mkLit(p[k][j])));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Solver, AssumptionsSelectBranch) {
    Solver s;
    const Var a = s.newVar();
    const Var b = s.newVar();
    ASSERT_TRUE(s.addClause(mkLit(a), mkLit(b))); // a ∨ b
    const std::vector<Lit> assumeNotA{~mkLit(a)};
    ASSERT_EQ(s.solve(assumeNotA), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(a));
    EXPECT_TRUE(s.modelValue(b));
    const std::vector<Lit> assumeNotB{~mkLit(b)};
    ASSERT_EQ(s.solve(assumeNotB), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
}

TEST(Solver, UnsatCoreIsSubsetOfAssumptionsAndUnsat) {
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    const Var z = s.newVar();
    ASSERT_TRUE(s.addClause(~mkLit(x), ~mkLit(y))); // x ∧ y impossible
    // z is irrelevant.
    const std::vector<Lit> assumptions{mkLit(z), mkLit(x), mkLit(y)};
    ASSERT_EQ(s.solve(assumptions), SolveResult::Unsat);
    const auto& core = s.unsatCore();
    EXPECT_GE(core.size(), 2u);
    for (const Lit l : core) {
        EXPECT_TRUE(std::find(assumptions.begin(), assumptions.end(), l) !=
                    assumptions.end());
    }
    // The core itself (x, y) should exclude the irrelevant z.
    EXPECT_TRUE(std::find(core.begin(), core.end(), mkLit(z)) == core.end());
}

TEST(Solver, UnsatCoreWithPropagatedConflict) {
    // Assumption a forces chain to ¬b; assuming b too must fail with a core.
    Solver s;
    const Var a = s.newVar();
    const Var m = s.newVar();
    const Var b = s.newVar();
    ASSERT_TRUE(s.addClause(~mkLit(a), mkLit(m)));
    ASSERT_TRUE(s.addClause(~mkLit(m), ~mkLit(b)));
    const std::vector<Lit> assumptions{mkLit(a), mkLit(b)};
    ASSERT_EQ(s.solve(assumptions), SolveResult::Unsat);
    EXPECT_FALSE(s.unsatCore().empty());
}

TEST(Solver, IncrementalAddAfterSolve) {
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    ASSERT_TRUE(s.addClause(mkLit(x), mkLit(y)));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    ASSERT_TRUE(s.addClause(~mkLit(x)));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(x));
    EXPECT_TRUE(s.modelValue(y));
    s.addClause(~mkLit(y));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
    // A hard pigeonhole instance with a 1-conflict budget cannot finish.
    SolverOptions opts;
    opts.conflictBudget = 1;
    Solver s(opts);
    constexpr int pigeons = 7;
    constexpr int holes = 6;
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (auto& row : p)
        for (auto& v : row) v = s.newVar();
    for (int i = 0; i < pigeons; ++i) {
        std::vector<Lit> c;
        for (int j = 0; j < holes; ++j) c.push_back(mkLit(p[i][j]));
        s.addClause(std::move(c));
    }
    for (int j = 0; j < holes; ++j)
        for (int i = 0; i < pigeons; ++i)
            for (int k = i + 1; k < pigeons; ++k)
                s.addClause(~mkLit(p[i][j]), ~mkLit(p[k][j]));
    EXPECT_EQ(s.solve(), SolveResult::Unknown);
}

TEST(Solver, BudgetInterruptedResolveStaysSound) {
    // Regression for the mid-propagation budget stop: the interrupted
    // literal must keep its queue position. It used to be dequeued before
    // the limit check, so a learnt-unit cascade interrupted at decision
    // level 0 left that literal's watchers unexamined by every later
    // incremental solve() on the same Solver (backtrackTo(0) cannot rewind
    // qhead_ below the level-0 trail). Drive many budget-starved re-solves
    // and require any decided verdict — and any model — to agree with the
    // brute-force oracle. A budget too tight to ever converge is fine; a
    // wrong verdict is not.
    util::Rng rng(20240807);
    for (int round = 0; round < 6; ++round) {
        const Cnf cnf = randomKSat(rng, 10, 44, 3);
        const std::optional<std::vector<bool>> expected = bruteForceSat(cnf);
        for (const std::int64_t budget : {2, 3, 7, 33}) {
            SolverOptions opts;
            opts.propagationBudget = budget;
            Solver s(opts);
            loadCnf(s, cnf);
            SolveResult result = SolveResult::Unknown;
            for (int i = 0; i < 20000 && result == SolveResult::Unknown; ++i)
                result = s.solve();
            if (result == SolveResult::Unknown) continue;
            EXPECT_EQ(result == SolveResult::Sat, expected.has_value())
                << "round " << round << " budget " << budget;
            if (result == SolveResult::Sat) {
                std::vector<bool> model(static_cast<std::size_t>(cnf.numVars));
                for (Var v = 0; v < cnf.numVars; ++v)
                    model[static_cast<std::size_t>(v)] = s.modelValue(v);
                EXPECT_TRUE(satisfies(cnf, model))
                    << "round " << round << " budget " << budget;
            }
        }
    }
}

TEST(Solver, ManyConflictsTriggerRestartsWithoutHanging) {
    // Regression: instances crossing the restart threshold (100 conflicts by
    // default) must keep making progress through the Luby sequence. A
    // broken luby() implementation hangs here.
    util::Rng rng(4242);
    int restartsSeen = 0;
    for (int round = 0; round < 25; ++round) {
        const Cnf cnf = randomKSat(rng, 60, 255, 3); // near phase transition
        Solver s;
        loadCnf(s, cnf);
        const SolveResult result = s.solve();
        EXPECT_NE(result, SolveResult::Unknown);
        restartsSeen += static_cast<int>(s.stats().restarts);
    }
    EXPECT_GT(restartsSeen, 0) << "test must exercise the restart path";
}

TEST(Solver, LargePigeonholeCompletes) {
    // PHP(8,7): thousands of conflicts, multiple restarts, DB reductions.
    Solver s;
    constexpr int holes = 7;
    constexpr int pigeons = 8;
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (auto& row : p)
        for (auto& v : row) v = s.newVar();
    for (int i = 0; i < pigeons; ++i) {
        std::vector<Lit> c;
        for (int j = 0; j < holes; ++j) c.push_back(mkLit(p[i][j]));
        s.addClause(std::move(c));
    }
    for (int j = 0; j < holes; ++j)
        for (int i = 0; i < pigeons; ++i)
            for (int k = i + 1; k < pigeons; ++k)
                s.addClause(~mkLit(p[i][j]), ~mkLit(p[k][j]));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
    EXPECT_GT(s.stats().conflicts, 100u);
}

TEST(Solver, StatsAreTracked) {
    Solver s;
    sat::SolverOptions statOpts;
    statOpts.simplify.enable = false; // decisions must come from the search path
    s.setOptions(statOpts);
    const Var x = s.newVar();
    const Var y = s.newVar();
    s.addClause(mkLit(x), mkLit(y));
    s.addClause(~mkLit(x), mkLit(y));
    s.addClause(mkLit(x), ~mkLit(y));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_GE(s.stats().decisions, 1u);
    EXPECT_EQ(s.stats().solves, 1u);
}

TEST(Solver, ArenaCompactsUnderMemoryBudget) {
    // Flood the learnt database over the 1MB budget via clause import, then
    // require solve() to reduce + compact the arena back under budget instead
    // of giving up. 12000 imported 20-literal clauses occupy
    // 12000 * (3 header + 20 literal) words * 4 bytes ≈ 1.10 MB.
    constexpr int kVars = 200;
    constexpr int kImported = 12000;
    constexpr int kClauseLen = 20;
    SolverOptions opts;
    opts.memoryBudgetMb = 1;
    bool delivered = false;
    opts.importClausesFn = [&delivered](std::vector<ImportedClause>& out) {
        if (delivered) return;
        delivered = true;
        for (int i = 0; i < kImported; ++i) {
            ImportedClause imp;
            imp.lbd = 5;
            // Two leading negative literals keep each clause satisfied by the
            // all-false default phase, so the search stays conflict-free.
            for (int k = 0; k < kClauseLen; ++k) {
                const Var v = static_cast<Var>((i + k) % kVars);
                imp.lits.push_back(k < 2 ? ~mkLit(v) : mkLit(v));
            }
            out.push_back(std::move(imp));
        }
    };
    Solver s(opts);
    for (int i = 0; i < kVars; ++i) s.newVar();
    ASSERT_TRUE(s.addClause(~mkLit(0), ~mkLit(1)));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_EQ(s.stats().importedClauses, static_cast<std::uint64_t>(kImported));
    EXPECT_GE(s.stats().arenaGcs, 1u)
        << "over-budget import must compact the arena, not just unlink";
    EXPECT_LE(s.learntMemoryBytes(), std::size_t{1} << 20)
        << "solve() finished while still over the memory budget";
    EXPECT_GT(s.learntMemoryBytes(), 0u)
        << "reduction should halve the database, not empty it";
}

TEST(Solver, BinaryGraphDetachesOnLevelZeroSimplification) {
    // binaryClauses is a live gauge of the binary implication graph: binaries
    // satisfied by the level-0 trail are detached by the pre-search sweep.
    Solver s;
    const Var a = s.newVar();
    const Var b = s.newVar();
    const Var c = s.newVar();
    ASSERT_TRUE(s.addClause(mkLit(a), mkLit(b)));
    ASSERT_TRUE(s.addClause(~mkLit(a), mkLit(c)));
    EXPECT_EQ(s.stats().binaryClauses, 2u);
    EXPECT_EQ(s.numClauses(), 2u);
    ASSERT_TRUE(s.addClause(mkLit(a))); // level 0: a, then a → c
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
    EXPECT_TRUE(s.modelValue(c));
    EXPECT_EQ(s.stats().binaryClauses, 0u)
        << "both binaries are satisfied at level 0 and must be detached";
    EXPECT_EQ(s.numClauses(), 0u);
}

TEST(Solver, AnalyzeResolvesBinaryReasonsInFirstUipCut) {
    // The implication chain a → x → y runs entirely through the binary
    // graph, so conflict analysis over the two long clauses must resolve
    // tagged binary reasons (and analyzeFinal must walk them to reach the
    // assumption for the core).
    Solver s;
    const Var a = s.newVar();
    const Var x = s.newVar();
    const Var y = s.newVar();
    const Var z = s.newVar();
    ASSERT_TRUE(s.addClause(~mkLit(a), mkLit(x))); // a → x (binary reason)
    ASSERT_TRUE(s.addClause(~mkLit(x), mkLit(y))); // x → y (binary reason)
    ASSERT_TRUE(s.addClause(~mkLit(x), ~mkLit(y), mkLit(z)));
    ASSERT_TRUE(s.addClause(~mkLit(x), ~mkLit(y), ~mkLit(z)));
    const std::vector<Lit> assumptions{mkLit(a)};
    ASSERT_EQ(s.solve(assumptions), SolveResult::Unsat);
    const auto& core = s.unsatCore();
    ASSERT_EQ(core.size(), 1u) << "only the assumption a is to blame";
    EXPECT_EQ(core[0], mkLit(a));
    // Without the assumption the formula is satisfiable — and the learnt
    // units must have forced ¬x through the binary graph.
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(x));
    EXPECT_FALSE(s.modelValue(a));
}

/// Sinz sequential counter over `xs`, one direction only (enough for upper
/// bounds): returns geq where geq[j] is forced true whenever at least j+1
/// of `xs` are true. So ~geq[b] enforces "at most b true".
std::vector<Lit> countAtLeast(Solver& s, const std::vector<Lit>& xs) {
    std::vector<Lit> prev;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        std::vector<Lit> cur;
        for (std::size_t j = 0; j <= i; ++j) {
            const Lit out = mkLit(s.newVar());
            if (j < prev.size()) s.addClause(~prev[j], out);
            if (j == 0)
                s.addClause(~xs[i], out);
            else
                s.addClause(~xs[i], ~prev[j - 1], out);
            cur.push_back(out);
        }
        prev = std::move(cur);
    }
    return prev;
}

TEST(Solver, ImprovingSolveMatchesDescentOfSeparateSolves) {
    // Minimize the number of true variables over random 3-SAT, twice per
    // instance: by one solve() whose model hook swaps a tighter bound into
    // the last assumption, and by a plain descent of separate solve() calls
    // under ever tighter bounds. Both must reach the same optimum, in one
    // hooked solve() call, with the final model satisfying the formula and
    // attaining the optimum. restartBase 1 forces restarts (and inprocessing
    // rounds) in the middle of the hooked search, so the swapped-in bound is
    // re-placed after each of them.
    util::Rng rng(777);
    int improvements = 0;
    for (const int restartBase : {100, 1}) {
        for (int round = 0; round < 12; ++round) {
            const Cnf cnf = randomKSat(rng, 24, 80, 3);
            SolverOptions opts;
            opts.restartBase = restartBase;
            std::vector<Lit> objective;
            for (Var v = 0; v < cnf.numVars; ++v) objective.push_back(mkLit(v));
            const auto costOf = [&](const Solver& s) {
                int cost = 0;
                for (const Lit l : objective) cost += s.modelValue(l) ? 1 : 0;
                return cost;
            };

            Solver plain(opts);
            loadCnf(plain, cnf);
            const std::vector<Lit> plainGeq = countAtLeast(plain, objective);
            const SolveResult plainFirst = plain.solve();
            int best = costOf(plain);
            while (plainFirst == SolveResult::Sat && best > 0) {
                const std::vector<Lit> bound{~plainGeq[static_cast<std::size_t>(best - 1)]};
                if (plain.solve(bound) != SolveResult::Sat) break;
                best = costOf(plain);
            }

            Solver hooked(opts);
            loadCnf(hooked, cnf);
            const std::vector<Lit> geq = countAtLeast(hooked, objective);
            for (const Lit out : geq) hooked.freeze(out.var());
            ASSERT_EQ(hooked.solve(), plainFirst) << "round " << round;
            if (plainFirst != SolveResult::Sat) continue;
            int cost = costOf(hooked);
            if (cost > 0) {
                const std::uint64_t solvesBefore = hooked.stats().solves;
                const std::vector<Lit> bound{~geq[static_cast<std::size_t>(cost - 1)]};
                const SolveResult r =
                    hooked.solve(bound, [&]() -> std::optional<Lit> {
                        const int improved = costOf(hooked);
                        if (improved >= cost) {
                            ADD_FAILURE() << "the model under the bound did not improve";
                            return std::nullopt;
                        }
                        cost = improved;
                        ++improvements;
                        if (cost == 0) return std::nullopt;
                        return ~geq[static_cast<std::size_t>(cost - 1)];
                    });
                EXPECT_EQ(r, cost == 0 ? SolveResult::Sat : SolveResult::Unsat);
                EXPECT_EQ(hooked.stats().solves, solvesBefore + 1);
            }
            EXPECT_EQ(cost, best) << "restartBase " << restartBase << " round " << round;
            std::vector<bool> model(static_cast<std::size_t>(cnf.numVars));
            for (Var v = 0; v < cnf.numVars; ++v)
                model[static_cast<std::size_t>(v)] = hooked.modelValue(v);
            EXPECT_TRUE(satisfies(cnf, model)) << "round " << round;
            EXPECT_EQ(costOf(hooked), cost) << "round " << round;
        }
    }
    EXPECT_GT(improvements, 0) << "no instance exercised the hook";
}

// --- Parameterized property suite: solver configs × random instances -------

struct ConfigCase {
    const char* name;
    SolverOptions opts;
};

// Print a case by its name. Without this gtest dumps the struct's raw bytes
// into the listed test name, and those hold the name pointer and padding,
// which change from run to run.
void PrintTo(const ConfigCase& c, std::ostream* os) { *os << c.name; }

class SolverConfigTest : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(SolverConfigTest, AgreesWithBruteForceOnRandom3Sat) {
    util::Rng rng(2024);
    int satCount = 0;
    int unsatCount = 0;
    for (int round = 0; round < 60; ++round) {
        const int vars = 6 + static_cast<int>(rng.below(7));       // 6..12
        const int clauses = static_cast<int>(vars * (3.0 + rng.uniform() * 2.5));
        const Cnf cnf = randomKSat(rng, vars, clauses, 3);
        const auto expected = bruteForceSat(cnf);

        Solver s(GetParam().opts);
        loadCnf(s, cnf);
        const SolveResult result = s.solve();
        if (expected.has_value()) {
            ASSERT_EQ(result, SolveResult::Sat) << "round " << round;
            std::vector<bool> model(static_cast<std::size_t>(vars));
            for (Var v = 0; v < vars; ++v)
                model[static_cast<std::size_t>(v)] = s.modelValue(v);
            EXPECT_TRUE(satisfies(cnf, model)) << "round " << round;
            ++satCount;
        } else {
            ASSERT_EQ(result, SolveResult::Unsat) << "round " << round;
            ++unsatCount;
        }
    }
    // The clause-density range must exercise both outcomes.
    EXPECT_GT(satCount, 5);
    EXPECT_GT(unsatCount, 5);
}

TEST_P(SolverConfigTest, UnsatCoreIsActuallyUnsat) {
    // Random instances solved under random assumptions: whenever Unsat, the
    // returned core re-asserted as units must also be Unsat.
    util::Rng rng(777);
    int coresChecked = 0;
    for (int round = 0; round < 40; ++round) {
        const int vars = 8;
        const Cnf cnf = randomKSat(rng, vars, 30, 3);
        std::vector<Lit> assumptions;
        for (Var v = 0; v < 4; ++v)
            assumptions.push_back(mkLit(v, rng.chance(0.5)));

        Solver s(GetParam().opts);
        loadCnf(s, cnf);
        if (s.solve(assumptions) != SolveResult::Unsat) continue;
        const std::vector<Lit> core = s.unsatCore();
        Solver s2(GetParam().opts);
        loadCnf(s2, cnf);
        bool ok = true;
        for (const Lit l : core) ok = s2.addClause(l) && ok;
        EXPECT_TRUE(!ok || s2.solve() == SolveResult::Unsat) << "round " << round;
        ++coresChecked;
    }
    EXPECT_GT(coresChecked, 3);
}

SolverOptions makeOpts(bool phase) {
    SolverOptions o;
    o.usePhaseSaving = phase;
    return o;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SolverConfigTest,
    ::testing::Values(ConfigCase{"full_cdcl", makeOpts(true)},
                      ConfigCase{"no_phase_saving", makeOpts(false)}),
    [](const ::testing::TestParamInfo<ConfigCase>& info) {
        return std::string(info.param.name);
    });

// --- DIMACS -----------------------------------------------------------------

TEST(Dimacs, ParseBasic) {
    const Cnf cnf = parseDimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
    EXPECT_EQ(cnf.numVars, 3);
    ASSERT_EQ(cnf.clauses.size(), 2u);
    EXPECT_EQ(cnf.clauses[0][0], mkLit(0));
    EXPECT_EQ(cnf.clauses[0][1], ~mkLit(1));
}

TEST(Dimacs, RoundTrip) {
    util::Rng rng(5);
    const Cnf cnf = randomKSat(rng, 10, 25, 3);
    const Cnf parsed = parseDimacs(writeDimacs(cnf));
    EXPECT_EQ(parsed.numVars, cnf.numVars);
    ASSERT_EQ(parsed.clauses.size(), cnf.clauses.size());
    for (std::size_t i = 0; i < cnf.clauses.size(); ++i)
        EXPECT_EQ(parsed.clauses[i], cnf.clauses[i]);
}

TEST(Dimacs, ClauseSpanningLines) {
    const Cnf cnf = parseDimacs("p cnf 3 1\n1\n2\n3 0\n");
    ASSERT_EQ(cnf.clauses.size(), 1u);
    EXPECT_EQ(cnf.clauses[0].size(), 3u);
}

TEST(Dimacs, Malformed) {
    EXPECT_THROW(parseDimacs(""), ParseError);
    EXPECT_THROW(parseDimacs("1 2 0\n"), ParseError);
    EXPECT_THROW(parseDimacs("p cnf 2 1\n5 0\n"), ParseError);
    EXPECT_THROW(parseDimacs("p cnf 2 2\n1 0\n"), ParseError);
}

// ------------------------------------------------------------ inprocessing

/// Loads `cnf` into `solver` (shared variable numbering).
void loadCnfInstance(Solver& solver, const Cnf& cnf) {
    while (solver.numVars() < cnf.numVars) (void)solver.newVar();
    for (const auto& clause : cnf.clauses) (void)solver.addClause(clause);
}

/// Options with a single inprocessing technique enabled.
SolverOptions onlyTechnique(void (*set)(SimplifyOptions&)) {
    SolverOptions opts;
    opts.simplify.subsumption = false;
    opts.simplify.vivification = false;
    opts.simplify.probing = false;
    opts.simplify.equivalence = false;
    opts.simplify.elimination = false;
    set(opts.simplify);
    return opts;
}

TEST(Simplify, BruteForceAgreementWithReconstruction) {
    // Verdicts AND models are checked against the ORIGINAL formula: a model
    // read after variable elimination exercises the reconstruction stack.
    util::Rng rng(101);
    for (int round = 0; round < 60; ++round) {
        const Cnf cnf = randomKSat(rng, /*numVars=*/12, /*numClauses=*/50,
                                   /*k=*/3);
        const std::optional<std::vector<bool>> oracle = bruteForceSat(cnf);
        Solver s;
        loadCnfInstance(s, cnf);
        const SolveResult verdict = s.solve();
        ASSERT_EQ(verdict == SolveResult::Sat, oracle.has_value())
            << "round " << round;
        if (verdict != SolveResult::Sat) continue;
        std::vector<bool> model;
        for (int v = 0; v < cnf.numVars; ++v) model.push_back(s.modelValue(v));
        EXPECT_TRUE(satisfies(cnf, model)) << "round " << round;
    }
}

TEST(Simplify, RepeatedSolvesStayCorrectAcrossRounds) {
    // Incremental use: force a simplify round before every solve and keep
    // adding clauses (which restores any eliminated variable they mention).
    util::Rng rng(202);
    Cnf cnf = randomKSat(rng, 14, 40, 3);
    Solver s;
    SolverOptions opts;
    opts.simplify.conflictInterval = 0; // every solve simplifies
    s.setOptions(opts);
    loadCnfInstance(s, cnf);
    for (int round = 0; round < 8; ++round) {
        const std::optional<std::vector<bool>> oracle = bruteForceSat(cnf);
        const SolveResult verdict = s.solve();
        ASSERT_EQ(verdict == SolveResult::Sat, oracle.has_value())
            << "round " << round;
        if (verdict != SolveResult::Sat) break;
        std::vector<bool> model;
        for (int v = 0; v < cnf.numVars; ++v) model.push_back(s.modelValue(v));
        ASSERT_TRUE(satisfies(cnf, model)) << "round " << round;
        // Grow the instance: 3 fresh random clauses.
        const Cnf extra = randomKSat(rng, 14, 3, 3);
        for (const auto& clause : extra.clauses) {
            cnf.clauses.push_back(clause);
            (void)s.addClause(clause);
        }
    }
}

TEST(Simplify, AssumptionVerdictsAndCoresStayHonest) {
    // Same instance, random assumption sets: a simplifying solver and a
    // plain solver must agree on every verdict, and every unsat core must
    // be a subset of the assumptions that is itself unsatisfiable.
    util::Rng rng(303);
    for (int round = 0; round < 30; ++round) {
        const Cnf cnf = randomKSat(rng, 12, 45, 3);
        Solver simp;
        SolverOptions simpOpts;
        simpOpts.simplify.conflictInterval = 0;
        simp.setOptions(simpOpts);
        loadCnfInstance(simp, cnf);

        Solver plain;
        SolverOptions plainOpts;
        plainOpts.simplify.enable = false;
        plain.setOptions(plainOpts);
        loadCnfInstance(plain, cnf);

        for (int trial = 0; trial < 4; ++trial) {
            std::vector<Lit> assumptions;
            for (int v = 0; v < cnf.numVars; ++v)
                if (rng.chance(0.3))
                    assumptions.push_back(mkLit(v, rng.chance(0.5)));
            const SolveResult a = simp.solve(assumptions);
            const SolveResult b = plain.solve(assumptions);
            ASSERT_EQ(a, b) << "round " << round << " trial " << trial;
            if (a != SolveResult::Unsat) continue;
            const std::vector<Lit>& core = simp.unsatCore();
            for (const Lit l : core) {
                EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                          assumptions.end())
                    << "core literal not among the assumptions";
            }
            // The core alone must still be unsat on a fresh plain solver.
            Solver check;
            SolverOptions checkOpts;
            checkOpts.simplify.enable = false;
            check.setOptions(checkOpts);
            loadCnfInstance(check, cnf);
            EXPECT_EQ(check.solve(core), SolveResult::Unsat)
                << "round " << round << " trial " << trial;
        }
    }
}

TEST(Simplify, FrozenAssumptionVariablesAreNeverEliminated) {
    // A variable with tiny occurrence counts is elimination's first pick —
    // unless it is assumed. solve(assumptions) freezes assumption variables
    // before any simplify round.
    Solver s;
    const Var v = s.newVar();
    const Var a = s.newVar();
    const Var b = s.newVar();
    (void)s.addClause(mkLit(v), mkLit(a));
    (void)s.addClause(~mkLit(v), mkLit(b));
    (void)s.addClause(mkLit(a), mkLit(b));
    const std::vector<Lit> assumptions{mkLit(v)};
    ASSERT_EQ(s.solve(assumptions), SolveResult::Sat);
    EXPECT_TRUE(s.isFrozen(v));
    EXPECT_FALSE(s.isEliminated(v));
    EXPECT_TRUE(s.modelValue(v));
}

TEST(Simplify, EliminationReconstructsModelsAndRestoresOnReuse) {
    Solver s;
    const Var v = s.newVar();
    const Var a = s.newVar();
    const Var b = s.newVar();
    const Var c = s.newVar();
    // v occurs once per phase: a prime elimination candidate.
    (void)s.addClause(mkLit(v), mkLit(a));
    (void)s.addClause(~mkLit(v), mkLit(b));
    (void)s.addClause(mkLit(a), mkLit(c));
    ASSERT_TRUE(s.simplify());
    ASSERT_TRUE(s.isEliminated(v));
    EXPECT_GE(s.stats().eliminatedVars, 1u);

    // Models must still cover v via the reconstruction stack.
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    const bool mv = s.modelValue(v);
    const bool ma = s.modelValue(a);
    const bool mb = s.modelValue(b);
    EXPECT_TRUE(mv || ma);
    EXPECT_TRUE(!mv || mb);

    // A new clause over v transparently restores it.
    (void)s.addClause(~mkLit(v), mkLit(c));
    EXPECT_FALSE(s.isEliminated(v));
    EXPECT_GE(s.stats().restoredVars, 1u);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(!s.modelValue(v) || s.modelValue(c));

    // And assuming v (freeze-on-solve) keeps working after restoration.
    const std::vector<Lit> assumeV{mkLit(v)};
    ASSERT_EQ(s.solve(assumeV), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(v));
    EXPECT_TRUE(s.modelValue(b));
}

TEST(Simplify, SnapshotRoundTripAfterElimination) {
    // exportSnapshot from a solver that eliminated variables must import
    // cleanly into an identically-built solver and preserve verdicts.
    util::Rng rng(404);
    for (int round = 0; round < 10; ++round) {
        const Cnf cnf = randomKSat(rng, 20, 70, 3);
        Solver exporter;
        SolverOptions opts;
        opts.simplify.conflictInterval = 0;
        exporter.setOptions(opts);
        loadCnfInstance(exporter, cnf);
        exporter.markSnapshotBaseline();
        const SolveResult verdict = exporter.solve();
        const SolverSnapshot snap = exporter.exportSnapshot();

        Solver importer;
        importer.setOptions(opts);
        loadCnfInstance(importer, cnf);
        importer.markSnapshotBaseline();
        (void)importer.importSnapshot(snap);
        EXPECT_EQ(importer.solve(), verdict) << "round " << round;
        if (verdict != SolveResult::Sat) continue;
        std::vector<bool> model;
        for (int v = 0; v < cnf.numVars; ++v)
            model.push_back(importer.modelValue(v));
        EXPECT_TRUE(satisfies(cnf, model)) << "round " << round;
    }
}

TEST(Simplify, SubsumptionAndStrengtheningCounters) {
    Solver s;
    s.setOptions(onlyTechnique([](SimplifyOptions& o) { o.subsumption = true; }));
    const Var a = s.newVar();
    const Var b = s.newVar();
    const Var c = s.newVar();
    const Var d = s.newVar();
    const Var e = s.newVar();
    (void)s.addClause(mkLit(a), mkLit(b), mkLit(c));           // C
    (void)s.addClause({mkLit(a), mkLit(b), mkLit(c), mkLit(d)}); // C ⊂ D
    (void)s.addClause(~mkLit(a), mkLit(b), mkLit(e)); // strengthens vs (a∨b)
    (void)s.addClause(mkLit(a), mkLit(b));            // binary source
    ASSERT_TRUE(s.simplify());
    EXPECT_GE(s.stats().subsumedClauses, 1u);
    EXPECT_GE(s.stats().strengthenedClauses, 1u);
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Simplify, FailedLiteralProbingFindsUnits) {
    Solver s;
    s.setOptions(onlyTechnique([](SimplifyOptions& o) { o.probing = true; }));
    const Var p = s.newVar();
    const Var q = s.newVar();
    const Var r = s.newVar();
    (void)s.addClause(~mkLit(p), mkLit(q));  // p → q
    (void)s.addClause(~mkLit(p), ~mkLit(q)); // p → ¬q: probing p conflicts
    (void)s.addClause(mkLit(p), mkLit(r));   // keeps ¬p from ending it all
    ASSERT_TRUE(s.simplify());
    EXPECT_GE(s.stats().probedLiterals, 1u);
    EXPECT_GE(s.stats().failedLiterals, 1u);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(p));
    EXPECT_TRUE(s.modelValue(r));
}

TEST(Simplify, EquivalentLiteralsAreSubstituted) {
    Solver s;
    s.setOptions(onlyTechnique([](SimplifyOptions& o) { o.equivalence = true; }));
    const Var x = s.newVar();
    const Var y = s.newVar();
    const Var z = s.newVar();
    (void)s.addClause(~mkLit(x), mkLit(y)); // x → y
    (void)s.addClause(~mkLit(y), mkLit(x)); // y → x: x ≡ y
    (void)s.addClause(mkLit(y), mkLit(z));
    ASSERT_TRUE(s.simplify());
    EXPECT_GE(s.stats().equivalentLiterals, 1u);
    // The equivalence itself must survive substitution: x and y always agree.
    const std::vector<Lit> assumeX{mkLit(x)};
    ASSERT_EQ(s.solve(assumeX), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(y));
    const std::vector<Lit> assumeNotY{~mkLit(y)};
    ASSERT_EQ(s.solve(assumeNotY), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(x));
}

TEST(Simplify, VivificationShortensClauses) {
    Solver s;
    s.setOptions(
        onlyTechnique([](SimplifyOptions& o) { o.vivification = true; }));
    const Var x = s.newVar();
    const Var y = s.newVar();
    const Var z = s.newVar();
    const Var w = s.newVar();
    (void)s.addClause(mkLit(x), mkLit(y)); // ¬x propagates y …
    // … so vivifying (x ∨ y ∨ z ∨ w) shrinks it to (x ∨ y).
    (void)s.addClause({mkLit(x), mkLit(y), mkLit(z), mkLit(w)});
    (void)s.addClause(mkLit(z), mkLit(w), mkLit(x)); // keep z,w referenced
    ASSERT_TRUE(s.simplify());
    EXPECT_GE(s.stats().vivifiedClauses, 1u);
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Simplify, TickBudgetStopsCleanlyAndSearchContinues) {
    // A starved budget must halt the round benignly — the verdict still
    // comes out of the search, and the stop is recorded in the stats.
    util::Rng rng(505);
    const Cnf cnf = randomKSat(rng, 18, 76, 3);
    const std::optional<std::vector<bool>> oracle = bruteForceSat(cnf);
    Solver s;
    SolverOptions opts;
    opts.simplify.tickBudget = 1; // next to nothing
    s.setOptions(opts);
    loadCnfInstance(s, cnf);
    const SolveResult verdict = s.solve();
    ASSERT_EQ(verdict == SolveResult::Sat, oracle.has_value());
    EXPECT_GE(s.stats().simplifyStops, 1u);
    EXPECT_EQ(s.stats().lastSimplifyStop, SimplifyStop::Ticks);
}

} // namespace
} // namespace lar::sat
