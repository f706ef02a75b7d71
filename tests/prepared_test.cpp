// Prepared images: a session cloned from a Compilation's image must answer
// exactly like the session that prepared the same state fresh.
//
// The oracle runs every query kind three times over one shared Compilation:
// the miss (the first prepared session, which keeps no image), the first
// hit (prepares again and keeps the image) and a later hit (clones it),
// each with warm start off and on. It covers the eight case-study variants
// the feasible_hot benchmark workload cycles through and the random fuzz
// corpus. Each hit must give the miss's answer byte for byte, every SAT
// design must pass validateDesign, and verdicts and optimal costs must
// agree with Z3 where the build has it. Below the oracle, sat-level tests
// pin the clone to the prepared solver's exact search, and the
// PreparedConcurrency cases (also built under ThreadSanitizer) race eight
// threads over one Compilation's image.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.hpp"
#include "fuzzcorpus.hpp"
#include "json/parse.hpp"
#include "json/write.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "reason/engine.hpp"
#include "reason/problem_io.hpp"
#include "reason/service.hpp"
#include "reason/validate.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace lar::reason {
namespace {

constexpr QueryKind kKinds[] = {QueryKind::Feasibility, QueryKind::Explain,
                                QueryKind::Synthesize, QueryKind::Optimize,
                                QueryKind::Enumerate};
constexpr int kMaxDesigns = 3;

const kb::KnowledgeBase& caseStudyKb() {
    static const kb::KnowledgeBase kb = catalog::buildKnowledgeBase();
    return kb;
}

/// The §5.1 case study (data/inference_problem.json) with `servers`
/// servers and NICs and 8 switches — the shape of one feasible_hot variant.
Problem caseStudy(int servers, std::int64_t budgetUsd = 0) {
    const std::string count = std::to_string(servers);
    std::string text =
        R"({"hardware":{"server":{"count":)" + count +
        R"(},"switch":{"count":8},"nic":{"count":)" + count + R"(}},)"
        R"("workloads":[{"name":"inference_app",)"
        R"("properties":["dc_flows","short_flows","high_priority","latency_sensitive"],)"
        R"("deployed_at":[0,1,2],"peak_cores":2800,"peak_bandwidth_gbps":30.0,)"
        R"("num_flows":50000,"performance_bounds":)"
        R"([{"objective":"load_balancing","better_than":"PacketSpray"}]}],)"
        R"("objective_priority":["latency","hardware_cost","monitoring"],)"
        R"("required_capabilities":["detect_queue_length"])";
    if (budgetUsd > 0) text += R"(,"max_hardware_cost_usd":)" + std::to_string(budgetUsd);
    text += "}";
    return problemFromJson(json::parse(text), caseStudyKb());
}

/// Everything an answer says, as one string: verdict, designs, rules.
std::string answerKey(const Answer& answer) {
    std::string key = verdictName(answer.verdict);
    if (answer.design.has_value()) key += " " + json::write(toJson(*answer.design));
    for (const Design& d : answer.designs) key += " " + json::write(toJson(d));
    for (const std::string& rule : answer.conflictingRules) key += " | " + rule;
    return key;
}

/// Runs one Engine query; `spanNames` receives the span tree as JSON.
Answer runQuery(const std::shared_ptr<const Compilation>& compilation,
                QueryKind kind, const QueryOptions& options,
                std::string* spanNames = nullptr) {
    obs::Trace trace;
    Answer answer;
    {
        const obs::ScopedTrace scoped(trace);
        answer = Engine(compilation, options).run(kind, kMaxDesigns);
    }
    if (spanNames != nullptr) *spanNames = json::write(trace.toJson());
    return answer;
}

void expectValid(const Problem& problem, const Answer& answer,
                 const std::string& label) {
    std::vector<Design> designs = answer.designs;
    if (answer.design.has_value()) designs.push_back(*answer.design);
    for (const Design& d : designs) {
        const std::vector<std::string> violations = validateDesign(problem, d);
        EXPECT_TRUE(violations.empty())
            << label << ": " << (violations.empty() ? "" : violations.front());
    }
}

/// A warm-start snapshot for `problem` from an independent compilation.
std::shared_ptr<const sat::SolverSnapshot> snapshotOf(const Problem& problem) {
    QueryOptions options;
    options.captureSnapshot = true;
    return Engine(std::make_shared<const Compilation>(problem), options)
        .run(QueryKind::Feasibility)
        .snapshot;
}

/// The oracle on one problem; returns the number of warm sessions that
/// integrated snapshot clauses (so callers can check warm start was real).
std::size_t checkMissAndHits(const Problem& problem, const std::string& label) {
    const std::shared_ptr<const sat::SolverSnapshot> snapshot = snapshotOf(problem);
    std::size_t warmImports = 0;
    for (const QueryKind kind : kKinds) {
        std::optional<Answer> reference; // the cold miss, checked against Z3
        for (const bool warm : {false, true}) {
            const std::string where =
                label + " " + toString(kind) + (warm ? " warm" : " cold");
            QueryOptions options;
            if (warm) options.warmStart = snapshot;
            const auto compilation = std::make_shared<const Compilation>(problem);
            std::string spans;
            const Answer miss = runQuery(compilation, kind, options, &spans);
            EXPECT_NE(spans.find(R"("name":"prepare")"), std::string::npos) << where;
            EXPECT_EQ(compilation->preparedImage(), nullptr) << where;
            const Answer firstHit = runQuery(compilation, kind, options, &spans);
            EXPECT_NE(spans.find(R"("name":"prepare")"), std::string::npos) << where;
            if (miss.verdict == Verdict::Sat || miss.verdict == Verdict::Unsat) {
                EXPECT_NE(compilation->preparedImage(), nullptr) << where;
            }
            const Answer laterHit = runQuery(compilation, kind, options, &spans);
            if (compilation->preparedImage() != nullptr) {
                EXPECT_NE(spans.find(R"("name":"clone")"), std::string::npos) << where;
            }

            EXPECT_EQ(answerKey(firstHit), answerKey(miss)) << where << " first hit";
            EXPECT_EQ(answerKey(laterHit), answerKey(miss)) << where << " later hit";
            expectValid(problem, miss, where);
            if (warm) warmImports += laterHit.warmStartImported > 0 ? 1 : 0;
            if (!warm) reference = miss;
        }
        // Z3 settles the verdict (every kind's follows feasibility's) and
        // the optimal costs.
        if (!smt::haveZ3() ||
            (kind != QueryKind::Feasibility && kind != QueryKind::Optimize))
            continue;
        const Answer z3 = Engine(problem, withBackend(smt::BackendKind::Z3)).run(kind);
        EXPECT_EQ(z3.verdict, reference->verdict) << label << " " << toString(kind);
        if (z3.design.has_value() && reference->design.has_value()) {
            EXPECT_EQ(z3.design->objectiveCosts, reference->design->objectiveCosts)
                << label;
        }
    }
    return warmImports;
}

TEST(PreparedImage, HitsAnswerLikeTheMissOnTheCaseStudyVariants) {
    std::size_t warmImports = 0;
    for (const int servers : {40, 48, 56, 60, 64, 72, 80, 96})
        warmImports += checkMissAndHits(caseStudy(servers),
                                        "servers=" + std::to_string(servers));
    // An infeasible variant covers the Unsat paths (core, minimal core).
    warmImports += checkMissAndHits(caseStudy(60, /*budgetUsd=*/1000), "budget=1000");
    EXPECT_GT(warmImports, 0u) << "warm start never integrated a clause";
}

TEST(PreparedImage, HitsAnswerLikeTheMissOnTheFuzzCorpus) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        util::Rng rng(seed);
        const kb::KnowledgeBase kb = fuzz::randomKb(rng);
        const Problem problem = fuzz::randomProblem(rng, kb);
        (void)checkMissAndHits(problem, "fuzz seed " + std::to_string(seed));
    }
}

TEST(PreparedImage, SeededMissAndHitAnswerIdentically) {
    const Problem problem = caseStudy(60);
    for (const std::uint64_t seed : {7ULL, 123456789ULL}) {
        for (const QueryKind kind : {QueryKind::Synthesize, QueryKind::Optimize}) {
            QueryOptions seeded;
            seeded.seed = seed;
            const auto fresh = std::make_shared<const Compilation>(problem);
            const std::string miss = answerKey(runQuery(fresh, kind, seeded));
            EXPECT_EQ(answerKey(runQuery(fresh, kind, seeded)), miss);
            EXPECT_EQ(answerKey(runQuery(fresh, kind, seeded)), miss);

            // An image kept by unseeded sessions serves a seeded hit (a
            // reseeded retry, say): the clone takes the seed's phases.
            const auto shared = std::make_shared<const Compilation>(problem);
            (void)runQuery(shared, kind, {});
            (void)runQuery(shared, kind, {});
            ASSERT_NE(shared->preparedImage(), nullptr);
            EXPECT_EQ(answerKey(runQuery(shared, kind, seeded)), miss)
                << "seed " << seed << " " << toString(kind);
        }
    }
}

TEST(PreparedImage, CaseStudyImageIsAtMostSixTenthsOfAMegabyte) {
    const auto compilation = std::make_shared<const Compilation>(caseStudy(60));
    (void)runQuery(compilation, QueryKind::Feasibility, {});
    EXPECT_EQ(compilation->preparedBytes(), 0u);
    (void)runQuery(compilation, QueryKind::Feasibility, {});
    ASSERT_NE(compilation->preparedImage(), nullptr);
    const std::size_t bytes = compilation->preparedBytes();
    EXPECT_GT(bytes, 0u);
    EXPECT_LE(bytes, 600'000u);
}

TEST(PreparedImage, PrepareCutShortKeepsNoImage) {
    const auto compilation = std::make_shared<const Compilation>(caseStudy(60));
    std::atomic<bool> cancel{true};
    QueryOptions cancelled;
    cancelled.cancelFlag = &cancel;
    EXPECT_EQ(runQuery(compilation, QueryKind::Feasibility, cancelled).verdict,
              Verdict::Cancelled);
    EXPECT_EQ(runQuery(compilation, QueryKind::Feasibility, cancelled).verdict,
              Verdict::Cancelled);
    EXPECT_EQ(compilation->preparedImage(), nullptr);
    // The fingerprint has been seen: the next clean round keeps its image.
    EXPECT_EQ(runQuery(compilation, QueryKind::Feasibility, {}).verdict, Verdict::Sat);
    EXPECT_NE(compilation->preparedImage(), nullptr);
}

TEST(PreparedImage, ServiceGaugesCountKeptImages) {
    ServiceOptions options;
    options.workers = 1;
    Service service(options);
    QueryRequest request;
    request.kind = QueryKind::Feasibility;
    request.problem = caseStudy(48);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(service.run(request).verdict, Verdict::Sat);
    const PreparedTotals totals = service.preparedTotals();
    EXPECT_EQ(totals.images, 1u);
    EXPECT_EQ(totals.bytes, service.compilationFor(request.problem)->preparedBytes());
    obs::Registry& reg = obs::Registry::global();
    EXPECT_EQ(reg.gauge("lar_prepared_images", "").value(), 1.0);
    EXPECT_EQ(reg.gauge("lar_prepared_bytes", "").value(),
              static_cast<double>(totals.bytes));
    service.clearCache();
    EXPECT_EQ(service.preparedTotals().images, 0u);
    EXPECT_EQ(reg.gauge("lar_prepared_images", "").value(), 0.0);
}

// ---------------------------------------------------------------------------
// sat level: the clone is the prepared solver
// ---------------------------------------------------------------------------

/// Random 3-SAT near the threshold plus a few frozen "interface" variables.
void loadRandom(sat::Solver& solver, util::Rng& rng, int vars, int clauses) {
    for (int v = 0; v < vars; ++v) (void)solver.newVar();
    for (int v = 0; v < vars; v += 7) solver.freeze(v);
    for (int c = 0; c < clauses; ++c) {
        std::vector<sat::Lit> lits;
        for (int k = 0; k < 3; ++k)
            lits.push_back(sat::mkLit(static_cast<sat::Var>(rng.below(vars)),
                                      rng.chance(0.5)));
        (void)solver.addClause(std::move(lits));
    }
    for (int c = 0; c < vars / 4; ++c)
        (void)solver.addClause(sat::mkLit(static_cast<sat::Var>(rng.below(vars))),
                               sat::mkLit(static_cast<sat::Var>(rng.below(vars)), true));
}

TEST(PreparedSolver, CloneSearchesExactlyLikeThePreparedSolver) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        util::Rng rng(seed);
        sat::SolverOptions options;
        options.randomSeed = seed % 3 == 0 ? 0 : seed;
        sat::Solver prepared(options);
        loadRandom(prepared, rng, 120, 480);
        if (!prepared.prepare()) continue; // Unsat at level 0
        const sat::SolverStats base = prepared.stats();
        const sat::SolverImage image = prepared.image();
        sat::Solver clone(image, options);
        EXPECT_EQ(clone.numVars(), prepared.numVars());
        EXPECT_EQ(clone.numClauses(), prepared.numClauses());
        for (int round = 0; round < 4; ++round) {
            std::vector<sat::Lit> assumptions;
            for (int k = 0; k < round; ++k)
                assumptions.push_back(sat::mkLit(
                    static_cast<sat::Var>(7 * rng.below(120 / 7)), rng.chance(0.5)));
            const sat::SolveResult a = prepared.solve(assumptions);
            const sat::SolveResult b = clone.solve(assumptions);
            ASSERT_EQ(a, b) << "seed " << seed << " round " << round;
            // Same search: the same conflicts and decisions, counted from
            // the prepared state.
            EXPECT_EQ(prepared.stats().conflicts - base.conflicts,
                      clone.stats().conflicts) << "seed " << seed;
            EXPECT_EQ(prepared.stats().decisions - base.decisions,
                      clone.stats().decisions) << "seed " << seed;
            if (a == sat::SolveResult::Sat) {
                for (sat::Var v = 0; v < prepared.numVars(); ++v)
                    ASSERT_EQ(prepared.modelValue(v), clone.modelValue(v))
                        << "seed " << seed << " var " << v;
            } else if (a == sat::SolveResult::Unsat) {
                EXPECT_EQ(prepared.unsatCore(), clone.unsatCore());
            }
        }
    }
}

TEST(PreparedSolver, SpentDeadlineCutsPrepareShort) {
    util::Rng rng(5);
    sat::Solver solver;
    loadRandom(solver, rng, 120, 480);
    solver.setDeadline(std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
    EXPECT_FALSE(solver.prepare());
    EXPECT_EQ(solver.stopReason(), sat::StopReason::Deadline);
}

TEST(PreparedSolver, OneDeadlineSpansEverySolveCall) {
    util::Rng rng(9);
    sat::Solver solver;
    loadRandom(solver, rng, 60, 200);
    solver.setDeadline(std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
    EXPECT_EQ(solver.solve(), sat::SolveResult::Unknown);
    EXPECT_EQ(solver.stopReason(), sat::StopReason::Deadline);
    solver.setDeadline(std::nullopt);
    EXPECT_NE(solver.solve(), sat::SolveResult::Unknown);
}

// ---------------------------------------------------------------------------
// Concurrency (also run under ThreadSanitizer as prepared_tsan)
// ---------------------------------------------------------------------------

void raceEightSessions(const std::shared_ptr<const Compilation>& compilation,
                       const std::string& expected) {
    std::vector<std::string> keys(8);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < keys.size(); ++i)
        threads.emplace_back([&, i] {
            keys[i] = answerKey(Engine(compilation, {}).run(QueryKind::Synthesize));
        });
    for (std::thread& t : threads) t.join();
    for (const std::string& key : keys) EXPECT_EQ(key, expected);
}

TEST(PreparedConcurrency, EightThreadsCloneOneImage) {
    const auto compilation = std::make_shared<const Compilation>(caseStudy(40));
    const std::string miss =
        answerKey(Engine(compilation, {}).run(QueryKind::Synthesize));
    (void)Engine(compilation, {}).run(QueryKind::Synthesize);
    ASSERT_NE(compilation->preparedImage(), nullptr);
    raceEightSessions(compilation, miss);
}

TEST(PreparedConcurrency, EightConcurrentFirstHitsKeepOneImage) {
    const auto compilation = std::make_shared<const Compilation>(caseStudy(40));
    const std::string miss =
        answerKey(Engine(compilation, {}).run(QueryKind::Synthesize));
    raceEightSessions(compilation, miss); // prepares race to keep the image
    ASSERT_NE(compilation->preparedImage(), nullptr);
    raceEightSessions(compilation, miss);
}

} // namespace
} // namespace lar::reason
