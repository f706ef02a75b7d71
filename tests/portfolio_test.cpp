// Portfolio solving: clause exchange, import soundness, verdict agreement.
//
// The portfolio must never change an answer — only how fast it arrives. The
// suites here pin that down at every layer:
//   * sat::ClauseExchange delivers exactly what was published (minus honest
//     lap losses), never torn or invented clauses;
//   * a solver importing another solver's learnt clauses still agrees with
//     the brute-force oracle on small random instances;
//   * Engine verdicts with portfolioWorkers > 1 match single-solver verdicts
//     on the shared fuzz corpus, including budget-starved and cancelled runs;
//   * the Service budgets portfolio width against its pool and records the
//     granted width plus race figures in the v4 trace.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "catalog/catalog.hpp"
#include "fuzzcorpus.hpp"
#include "json/write.hpp"
#include "kb/objectives.hpp"
#include "reason/service.hpp"
#include "sat/clause_exchange.hpp"
#include "sat/solver.hpp"
#include "smt/backend.hpp"
#include "testsupport.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lar {
namespace {

using sat::ClauseExchange;
using sat::ImportedClause;
using sat::Lit;
using sat::SolveResult;
using sat::Solver;

std::vector<Lit> lits(std::initializer_list<int> dimacs) {
    std::vector<Lit> out;
    for (const int d : dimacs)
        out.push_back(Lit(std::abs(d) - 1, d < 0));
    return out;
}

// ------------------------------------------------------------- ClauseExchange

TEST(ClauseExchangeTest, DeliversToEveryOtherWorkerExactlyOnce) {
    ClauseExchange ex(3);
    ex.publish(0, lits({1, -2}), 2);
    ex.publish(0, lits({3, 4, -5}), 3);

    std::vector<ImportedClause> got;
    ex.collect(1, got);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].lits, lits({1, -2}));
    EXPECT_EQ(got[0].lbd, 2);
    EXPECT_EQ(got[1].lits, lits({3, 4, -5}));

    // Worker 2 sees the same clauses through its own cursor…
    got.clear();
    ex.collect(2, got);
    EXPECT_EQ(got.size(), 2u);
    // …the producer never reads its own ring…
    got.clear();
    ex.collect(0, got);
    EXPECT_TRUE(got.empty());
    // …and a second collect returns nothing new.
    ex.collect(1, got);
    EXPECT_TRUE(got.empty());
}

TEST(ClauseExchangeTest, OverlongAndEmptyClausesAreRejected) {
    ClauseExchange ex(2);
    std::vector<Lit> tooLong;
    for (int v = 0; v < static_cast<int>(ClauseExchange::kMaxLits) + 1; ++v)
        tooLong.push_back(Lit(v, false));
    ex.publish(0, tooLong, 5);
    ex.publish(0, {}, 1);

    std::vector<ImportedClause> got;
    ex.collect(1, got);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(ex.stats().rejected, 2u);
    EXPECT_EQ(ex.stats().published, 0u);
}

TEST(ClauseExchangeTest, LappedReaderLosesOldClausesHonestly) {
    ClauseExchange ex(2, /*slotsPerWorker=*/4);
    for (int i = 0; i < 10; ++i)
        ex.publish(0, lits({i + 1}), 1);

    std::vector<ImportedClause> got;
    ex.collect(1, got);
    // Only the newest ring-full survives; the rest are counted, not silently
    // dropped.
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got[0].lits, lits({7}));
    EXPECT_EQ(got[3].lits, lits({10}));
    EXPECT_EQ(ex.stats().lost, 6u);
    EXPECT_EQ(ex.stats().collected, 4u);
}

TEST(ClauseExchangeTest, CollectMergesAllForeignRings) {
    ClauseExchange ex(3);
    ex.publish(0, lits({1}), 1);
    ex.publish(2, lits({-2}), 1);
    std::vector<ImportedClause> got;
    ex.collect(1, got);
    ASSERT_EQ(got.size(), 2u);
}

// ------------------------------------------------------ import soundness

/// Loads `cnf` into a fresh solver (shared variable numbering).
void loadInstance(Solver& solver, const sat::Cnf& cnf) {
    for (int v = 0; v < cnf.numVars; ++v) (void)solver.newVar();
    for (const auto& clause : cnf.clauses) (void)solver.addClause(clause);
}

TEST(ClauseImportSoundnessTest, ImportingLearntClausesPreservesVerdicts) {
    // Teacher solves a random instance exporting everything it learns;
    // student imports the whole haul through a ClauseExchange before its
    // own search. The student's verdict must still match the brute-force
    // oracle — on SAT its model must actually satisfy the formula.
    util::Rng rng(7);
    int satSeen = 0;
    int unsatSeen = 0;
    std::uint64_t importsSeen = 0;
    for (int round = 0; round < 40; ++round) {
        const sat::Cnf cnf = test::randomKSat(rng, /*numVars=*/14,
                                              /*numClauses=*/60, /*k=*/3);
        const std::optional<std::vector<bool>> oracle = test::bruteForceSat(cnf);

        ClauseExchange exchange(2);
        Solver teacher;
        sat::SolverOptions teacherOpts;
        teacherOpts.exportClauseFn =
            [&exchange](std::span<const Lit> clause, int lbd) {
                exchange.publish(0, clause, lbd);
            };
        teacherOpts.shareLbdMax = 1000; // export every learnt
        // Inprocessing solves these small instances before search: turn it
        // off so clauses actually cross the exchange.
        teacherOpts.simplify.enable = false;
        teacher.setOptions(teacherOpts);
        loadInstance(teacher, cnf);
        const SolveResult teacherVerdict = teacher.solve();

        Solver student;
        sat::SolverOptions studentOpts;
        studentOpts.importClausesFn =
            [&exchange](std::vector<ImportedClause>& out) {
                exchange.collect(1, out);
            };
        studentOpts.simplify.enable = false;
        student.setOptions(studentOpts);
        loadInstance(student, cnf);
        const SolveResult studentVerdict = student.solve();

        EXPECT_EQ(studentVerdict == SolveResult::Sat, oracle.has_value())
            << "round " << round;
        EXPECT_EQ(studentVerdict, teacherVerdict) << "round " << round;
        if (studentVerdict == SolveResult::Sat) {
            ++satSeen;
            std::vector<bool> model;
            for (int v = 0; v < cnf.numVars; ++v)
                model.push_back(student.modelValue(v));
            EXPECT_TRUE(test::satisfies(cnf, model)) << "round " << round;
        } else {
            ++unsatSeen;
        }
        importsSeen += student.stats().importedClauses;
    }
    // The ratio is near the phase transition: both verdicts must show up or
    // the oracle comparison above proved nothing. Likewise, plenty of
    // clauses must actually have crossed (easy rounds may teach nothing).
    EXPECT_GT(satSeen, 0);
    EXPECT_GT(unsatSeen, 0);
    EXPECT_GT(importsSeen, 100u);
}

TEST(ClauseImportSoundnessTest, StaleUnitImportsCannotCorruptTheSolver) {
    // Importing a unit clause the level-0 assignment already falsifies must
    // flip the solver to Unsat — the clause database said so — not crash or
    // mis-answer.
    Solver solver;
    const sat::Var x = solver.newVar();
    (void)solver.addClause(Lit(x, false)); // x is true at level 0
    bool imported = false;
    sat::SolverOptions opts;
    opts.importClausesFn = [&](std::vector<ImportedClause>& out) {
        if (imported) return;
        imported = true;
        out.push_back({{Lit(x, true)}, 1}); // ¬x: contradicts level 0
    };
    solver.setOptions(opts);
    EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(SolverThreadingContractTest, ReentrantSolveIsRejected) {
    // The threading contract in SolverOptions: solve() never runs twice
    // concurrently on one instance. The cheapest violation is re-entering
    // from a callback on the same thread — the guard must reject it.
    util::Rng rng(3);
    const sat::Cnf cnf = test::randomKSat(rng, 12, 70, 3); // dense → conflicts
    Solver solver;
    sat::SolverOptions opts;
    opts.shareLbdMax = 1000;
    opts.simplify.enable = false; // keep the instance alive into search
    opts.exportClauseFn =
        [&solver](std::span<const Lit>, int) { (void)solver.solve(); };
    solver.setOptions(opts);
    loadInstance(solver, cnf);
    EXPECT_THROW((void)solver.solve(), LogicError);
}

// ------------------------------------------------- portfolio verdict parity

reason::QueryOptions portfolioOptions(int workers) {
    reason::QueryOptions options;
    options.portfolioWorkers = workers;
    return options;
}

TEST(PortfolioBackendTest, MakeBackendSelectsPortfolioPastWidthOne) {
    smt::FormulaStore store;
    smt::BackendConfig config;
    config.portfolioWorkers = 3;
    const auto portfolio = smt::makeBackend(smt::BackendKind::Cdcl, store, config);
    EXPECT_EQ(portfolio->name(), "cdcl-portfolio");
    config.portfolioWorkers = 1;
    const auto single = smt::makeBackend(smt::BackendKind::Cdcl, store, config);
    EXPECT_EQ(single->name(), "cdcl");
}

TEST(PortfolioVerdictAgreementTest, FuzzCorpusFeasibilityMatchesSingleSolver) {
    for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
        util::Rng rng(seed);
        for (int round = 0; round < 4; ++round) {
            const kb::KnowledgeBase kb = fuzz::randomKb(rng);
            const reason::Problem p = fuzz::randomProblem(rng, kb);

            reason::Engine single(p);
            const reason::FeasibilityReport expected = single.checkFeasible();

            reason::Engine raced(p, portfolioOptions(3));
            const reason::Answer actual =
                raced.run(reason::QueryKind::Feasibility);
            const bool actualFeasible = actual.verdict == reason::Verdict::Sat;

            EXPECT_EQ(actualFeasible, expected.feasible)
                << "seed " << seed << " round " << round;
            const auto& pstats = actual.portfolio;
            ASSERT_TRUE(pstats.has_value());
            EXPECT_EQ(pstats->workers, 3);
            EXPECT_GE(pstats->winner, 0);
        }
    }
}

TEST(PortfolioVerdictAgreementTest, OptimalCostsMatchSingleSolver) {
    // Lexicographic optimization is where clause sharing would be unsound —
    // the portfolio must disable it and still land on the same optimum.
    for (const std::uint64_t seed : {11u, 33u, 55u}) {
        util::Rng rng(seed + 500);
        const kb::KnowledgeBase kb = fuzz::randomKb(rng);
        const reason::Problem p = fuzz::randomProblem(rng, kb);

        const auto expected = reason::Engine(p).optimize();
        const auto actual = reason::Engine(p, portfolioOptions(3)).optimize();

        ASSERT_EQ(actual.has_value(), expected.has_value()) << "seed " << seed;
        if (actual.has_value())
            EXPECT_EQ(actual->objectiveCosts, expected->objectiveCosts)
                << "seed " << seed;
    }
}

TEST(PortfolioVerdictAgreementTest, EnumerationAfterOptimizeUsesSoleWinner) {
    // After an optimize() race only the winner holds the locked bounds; the
    // enumeration that follows must come out of that sole worker and match
    // the single-solver equivalence class size.
    util::Rng rng(22);
    const kb::KnowledgeBase kb = fuzz::randomKb(rng);
    const reason::Problem p = fuzz::randomProblem(rng, kb);

    reason::Engine single(p);
    const auto expected = single.enumerateDesigns(4, /*optimizeFirst=*/true);
    reason::Engine raced(p, portfolioOptions(2));
    const auto actual = raced.enumerateDesigns(4, /*optimizeFirst=*/true);
    EXPECT_EQ(actual.size(), expected.size());
}

TEST(PortfolioVerdictAgreementTest, BudgetStarvedRaceStaysUnknown) {
    // Every worker starves on a zero conflict budget: the race must report
    // Unknown (timedOut), never invent a verdict.
    util::Rng rng(44);
    const kb::KnowledgeBase kb = fuzz::randomKb(rng);
    const reason::Problem p = fuzz::randomProblem(rng, kb);

    reason::QueryOptions options = portfolioOptions(3);
    options.conflictBudget = 0;
    reason::Engine engine(p, options);
    const reason::FeasibilityReport report = engine.checkFeasible();
    EXPECT_FALSE(report.feasible);
    EXPECT_TRUE(report.timedOut);
    EXPECT_TRUE(engine.lastQueryUnknown());
}

TEST(PortfolioVerdictAgreementTest, PreCancelledRaceReturnsUnknown) {
    // A pigeonhole instance (8 pigeons, 7 holes) takes every CDCL config
    // through many conflicts before the Unsat proof, and the cancel flag is
    // polled at each one — a pre-cancelled race must give up with Unknown on
    // every worker rather than answer.
    constexpr int kHoles = 7;
    smt::FormulaStore store;
    smt::NodeId p[kHoles + 1][kHoles];
    for (int i = 0; i <= kHoles; ++i)
        for (int j = 0; j < kHoles; ++j)
            p[i][j] = store.var("p" + std::to_string(i) + "_" + std::to_string(j));

    std::atomic<bool> cancel{true}; // cancelled before the race starts
    smt::BackendConfig config;
    config.portfolioWorkers = 3;
    config.cancelFlag = &cancel;
    const auto backend = smt::makeBackend(smt::BackendKind::Cdcl, store, config);
    for (int i = 0; i <= kHoles; ++i) {
        std::vector<smt::NodeId> holes(std::begin(p[i]), std::end(p[i]));
        backend->addHard(store.mkOr(std::move(holes)));
    }
    for (int j = 0; j < kHoles; ++j)
        for (int a = 0; a <= kHoles; ++a)
            for (int b = a + 1; b <= kHoles; ++b)
                backend->addHard(
                    store.mkOr(store.mkNot(p[a][j]), store.mkNot(p[b][j])));

    EXPECT_EQ(backend->check(), smt::CheckStatus::Unknown);
    // Un-cancelled, the same backend proves the instance infeasible.
    cancel.store(false);
    EXPECT_EQ(backend->check(), smt::CheckStatus::Unsat);
}

// --------------------------------------------- verdict-unified service API

TEST(VerdictTest, NamesCoverEveryValue) {
    using reason::Verdict;
    EXPECT_STREQ(reason::verdictName(Verdict::Sat), "sat");
    EXPECT_STREQ(reason::verdictName(Verdict::Unsat), "unsat");
    EXPECT_STREQ(reason::verdictName(Verdict::Unknown), "unknown");
    EXPECT_STREQ(reason::verdictName(Verdict::TimedOut), "timed_out");
    EXPECT_STREQ(reason::verdictName(Verdict::Cancelled), "cancelled");
    EXPECT_STREQ(reason::verdictName(Verdict::Shed), "shed");
    EXPECT_STREQ(reason::verdictName(Verdict::Error), "error");
}

TEST(VerdictTest, GaveUpCoversExactlyTheIndefiniteVerdicts) {
    // gaveUp() is the one shared definition of "no proven verdict" — it
    // backs the historic `timed_out` wire field, so its coverage is load-
    // bearing: deadline expiry, budget exhaustion, and cancellation only.
    for (const auto v : {reason::Verdict::TimedOut, reason::Verdict::Unknown,
                         reason::Verdict::Cancelled})
        EXPECT_TRUE(reason::gaveUp(v)) << reason::verdictName(v);
    for (const auto v : {reason::Verdict::Sat, reason::Verdict::Unsat,
                         reason::Verdict::Shed, reason::Verdict::Error})
        EXPECT_FALSE(reason::gaveUp(v)) << reason::verdictName(v);
}

class PortfolioServiceTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        kb_ = new kb::KnowledgeBase(catalog::buildKnowledgeBase());
    }
    static void TearDownTestSuite() {
        delete kb_;
        kb_ = nullptr;
    }

    reason::QueryRequest feasibilityRequest(const std::string& id) const {
        reason::QueryRequest r;
        r.id = id;
        r.kind = reason::QueryKind::Feasibility;
        r.problem = reason::makeDefaultProblem(*kb_);
        r.problem.hardware[kb::HardwareClass::Server].count = 60;
        r.problem.hardware[kb::HardwareClass::Switch].count = 8;
        r.problem.hardware[kb::HardwareClass::Nic].count = 60;
        r.problem.workloads = {catalog::makeInferenceWorkload()};
        r.problem.objectivePriority = {kb::kObjLatency};
        return r;
    }

    static kb::KnowledgeBase* kb_;
};

kb::KnowledgeBase* PortfolioServiceTest::kb_ = nullptr;

TEST_F(PortfolioServiceTest, WidthIsBudgetedAgainstThePool) {
    // An idle 4-worker pool grants an 8-wide request exactly 4 threads: its
    // own plus three extras. The trace records the granted width, not the
    // requested one.
    reason::ServiceOptions options;
    options.workers = 4;
    reason::Service service(options);
    reason::QueryRequest r = feasibilityRequest("wide");
    r.options.portfolioWorkers = 8;
    const reason::QueryResult result = service.run(r);
    EXPECT_EQ(result.verdict, reason::Verdict::Sat);
    EXPECT_EQ(result.trace.portfolioWorkers, 4);
    EXPECT_FALSE(result.trace.portfolioWinner.empty());
}

TEST_F(PortfolioServiceTest, SingleWorkerPoolDegradesToPlainSolve) {
    reason::ServiceOptions options;
    options.workers = 1;
    reason::Service service(options);
    reason::QueryRequest r = feasibilityRequest("narrow");
    r.options.portfolioWorkers = 4;
    const reason::QueryResult result = service.run(r);
    EXPECT_EQ(result.verdict, reason::Verdict::Sat);
    // Budget exhausted by the query's own thread → no portfolio at all.
    EXPECT_EQ(result.trace.portfolioWorkers, 1);
    EXPECT_TRUE(result.trace.portfolioWinner.empty());
}

TEST_F(PortfolioServiceTest, TraceV5CarriesVerdictAndPortfolioFigures) {
    reason::ServiceOptions options;
    options.workers = 4;
    reason::Service service(options);
    reason::QueryRequest r = feasibilityRequest("traced");
    r.options.portfolioWorkers = 3;
    const reason::QueryResult result = service.run(r);
    ASSERT_EQ(result.verdict, reason::Verdict::Sat);

    const json::Value v = reason::toJson(result.trace);
    EXPECT_EQ(v.at("schema").asInt(), reason::kQueryTraceSchemaVersion);
    EXPECT_EQ(v.at("verdict").asString(), "sat");
    // Legacy booleans are still emitted, derived from the verdict.
    EXPECT_FALSE(v.at("timed_out").asBool());
    EXPECT_FALSE(v.at("shed").asBool());
    EXPECT_FALSE(v.at("cancelled").asBool());
    ASSERT_TRUE(v.asObject().contains("portfolio"));
    const json::Value& pf = v.at("portfolio");
    EXPECT_EQ(pf.at("workers").asInt(), 3);
    EXPECT_FALSE(pf.at("winner").asString().empty());
}

TEST_F(PortfolioServiceTest, BatchWithPortfolioAgreesWithSingleWidth) {
    reason::ServiceOptions options;
    options.workers = 4;
    reason::Service wide(options);
    reason::Service narrow; // defaults, queries run width 1

    std::vector<reason::QueryRequest> requests;
    for (int i = 0; i < 4; ++i) {
        reason::QueryRequest r = feasibilityRequest("q" + std::to_string(i));
        r.options.portfolioWorkers = 2;
        requests.push_back(std::move(r));
    }
    const auto raced = wide.runBatch(requests);
    for (reason::QueryRequest& r : requests) r.options.portfolioWorkers = 1;
    const auto plain = narrow.runBatch(requests);
    ASSERT_EQ(raced.size(), plain.size());
    for (std::size_t i = 0; i < raced.size(); ++i)
        EXPECT_EQ(raced[i].verdict, plain[i].verdict) << raced[i].id;
}

} // namespace
} // namespace lar
