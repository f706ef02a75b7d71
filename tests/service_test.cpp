#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "catalog/catalog.hpp"
#include "kb/objectives.hpp"
#include "reason/service.hpp"
#include "reason/session.hpp"

namespace lar::reason {
namespace {

using kb::HardwareClass;

class ServiceTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        kb_ = new kb::KnowledgeBase(catalog::buildKnowledgeBase());
    }
    static void TearDownTestSuite() {
        delete kb_;
        kb_ = nullptr;
    }

    Problem caseStudyProblem() const {
        Problem p = makeDefaultProblem(*kb_);
        p.hardware[HardwareClass::Server].count = 60;
        p.hardware[HardwareClass::Switch].count = 8;
        p.hardware[HardwareClass::Nic].count = 60;
        p.workloads = {catalog::makeInferenceWorkload()};
        p.objectivePriority = {kb::kObjLatency, kb::kObjHardwareCost,
                               kb::kObjMonitoring};
        return p;
    }

    QueryRequest request(QueryKind kind, Problem problem,
                         const std::string& id = "") const {
        QueryRequest r;
        r.id = id;
        r.kind = kind;
        r.problem = std::move(problem);
        return r;
    }

    static kb::KnowledgeBase* kb_;
};

kb::KnowledgeBase* ServiceTest::kb_ = nullptr;

std::string designKey(const std::optional<Design>& d) {
    if (!d.has_value()) return "(infeasible)";
    std::ostringstream out;
    out << d->toString();
    for (const std::int64_t c : d->objectiveCosts) out << ' ' << c;
    return out.str();
}

TEST_F(ServiceTest, RepeatedQueryHitsCache) {
    Service service;
    const Problem p = caseStudyProblem();

    const QueryResult first = service.run(request(QueryKind::Optimize, p, "a"));
    ASSERT_TRUE(first.verdict == Verdict::Sat);
    EXPECT_FALSE(first.trace.cacheHit);
    EXPECT_GT(first.trace.compileMs, 0.0);

    const QueryResult second = service.run(request(QueryKind::Optimize, p, "b"));
    ASSERT_TRUE(second.verdict == Verdict::Sat);
    EXPECT_TRUE(second.trace.cacheHit);
    EXPECT_EQ(second.trace.compileMs, 0.0);
    // Same problem, same defaults → identical design and costs.
    EXPECT_EQ(designKey(first.design), designKey(second.design));

    const CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST_F(ServiceTest, CacheHitsAcrossQueryKinds) {
    // Different kinds on the same problem share one compilation.
    Service service;
    const Problem p = caseStudyProblem();
    (void)service.run(request(QueryKind::Feasibility, p));
    (void)service.run(request(QueryKind::Synthesize, p));
    (void)service.run(request(QueryKind::Optimize, p));
    const CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 2u);
}

TEST_F(ServiceTest, ProblemEditInvalidatesFingerprint) {
    Service service;
    Problem p = caseStudyProblem();
    (void)service.run(request(QueryKind::Optimize, p));
    p.maxHardwareCostUsd = 900000; // a different problem now
    const QueryResult edited = service.run(request(QueryKind::Optimize, p));
    EXPECT_FALSE(edited.trace.cacheHit);
    EXPECT_EQ(service.cacheStats().misses, 2u);
}

TEST_F(ServiceTest, KbMutationInvalidatesFingerprint) {
    // Same problem text, but the KB changed underneath: revision token must
    // force a recompile.
    kb::KnowledgeBase localKb = catalog::buildKnowledgeBase();
    Service service;
    Problem p = makeDefaultProblem(localKb);
    (void)service.run(request(QueryKind::Feasibility, p));
    localKb.addOrdering({"Snap", "Linux", kb::kObjLatency,
                         kb::Requirement::alwaysTrue(), "test edit", {}});
    const QueryResult after = service.run(request(QueryKind::Feasibility, p));
    EXPECT_FALSE(after.trace.cacheHit);
    EXPECT_EQ(service.cacheStats().hits, 0u);
    EXPECT_EQ(service.cacheStats().misses, 2u);
}

TEST_F(ServiceTest, KbCopyGetsOwnFingerprint) {
    // Copies are distinct KBs (fresh instance id): a cached compilation for
    // the original must not be served for the copy even though the problem
    // text is identical.
    kb::KnowledgeBase original = catalog::buildKnowledgeBase();
    const kb::KnowledgeBase copy = original;
    EXPECT_FALSE(original.revision() == copy.revision());

    Service service;
    Problem p1 = makeDefaultProblem(original);
    Problem p2 = makeDefaultProblem(copy);
    (void)service.run(request(QueryKind::Feasibility, p1));
    (void)service.run(request(QueryKind::Feasibility, p2));
    EXPECT_EQ(service.cacheStats().misses, 2u);
}

TEST_F(ServiceTest, LruEvictsLeastRecentlyUsed) {
    ServiceOptions options;
    options.cacheCapacity = 2;
    Service service(options);
    Problem p = caseStudyProblem();

    Problem a = p;
    Problem b = p;
    b.maxHardwareCostUsd = 800000;
    Problem c = p;
    c.maxHardwareCostUsd = 900000;

    (void)service.run(request(QueryKind::Feasibility, a));
    (void)service.run(request(QueryKind::Feasibility, b));
    (void)service.run(request(QueryKind::Feasibility, c)); // evicts a
    EXPECT_EQ(service.cacheStats().entries, 2u);
    const QueryResult again = service.run(request(QueryKind::Feasibility, a));
    EXPECT_FALSE(again.trace.cacheHit); // a was evicted
    const QueryResult cHit = service.run(request(QueryKind::Feasibility, c));
    EXPECT_TRUE(cHit.trace.cacheHit);
}

TEST_F(ServiceTest, BatchMatchesSequentialBitForBit) {
    // The acceptance bar for the concurrent path: a multi-thread batch must
    // produce exactly the results of running each query alone.
    std::vector<QueryRequest> requests;
    Problem base = caseStudyProblem();
    requests.push_back(request(QueryKind::Optimize, base, "opt"));
    requests.push_back(request(QueryKind::Feasibility, base, "feas"));
    Problem budget = base;
    budget.maxHardwareCostUsd = 700000;
    requests.push_back(request(QueryKind::Optimize, budget, "budget"));
    Problem impossible = base;
    impossible.maxHardwareCostUsd = 1; // nothing fits
    requests.push_back(request(QueryKind::Explain, impossible, "conflict"));
    QueryRequest enumerate = request(QueryKind::Enumerate, base, "enum");
    enumerate.maxDesigns = 3;
    requests.push_back(enumerate);

    // Sequential reference: fresh single-worker service.
    ServiceOptions seqOptions;
    seqOptions.workers = 1;
    Service sequential(seqOptions);
    std::vector<QueryResult> expected;
    expected.reserve(requests.size());
    for (const QueryRequest& r : requests) expected.push_back(sequential.run(r));

    for (const unsigned workers : {2u, 4u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ServiceOptions parOptions;
        parOptions.workers = workers;
        Service parallel(parOptions);
        const std::vector<QueryResult> actual = parallel.runBatch(requests);

        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t i = 0; i < actual.size(); ++i) {
            EXPECT_EQ(actual[i].id, expected[i].id);
            EXPECT_EQ(actual[i].verdict == Verdict::Sat,
                      expected[i].verdict == Verdict::Sat)
                << actual[i].id;
            EXPECT_EQ(designKey(actual[i].design),
                      designKey(expected[i].design))
                << actual[i].id;
            EXPECT_EQ(actual[i].designs.size(), expected[i].designs.size())
                << actual[i].id;
            EXPECT_EQ(actual[i].conflictingRules, expected[i].conflictingRules)
                << actual[i].id;
        }
    }
}

TEST_F(ServiceTest, ConcurrentBatchSharesOneCompilation) {
    // Many queries on one problem: exactly one compile, everything else hits.
    ServiceOptions options;
    options.workers = 4;
    Service service(options);
    const Problem p = caseStudyProblem();
    std::vector<QueryRequest> requests;
    for (int i = 0; i < 12; ++i)
        requests.push_back(request(QueryKind::Feasibility, p));
    const std::vector<QueryResult> results = service.runBatch(requests);
    for (const QueryResult& r : results) EXPECT_TRUE(r.verdict == Verdict::Sat);
    const CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.entries, 1u);
    // Concurrent first-misses may compile the duplicate entry more than
    // once (by design — the cache keeps one), but hits must dominate.
    EXPECT_GE(stats.hits, 1u);
    EXPECT_EQ(stats.hits + stats.misses, 12u);
}

TEST_F(ServiceTest, EngineIsReentrantAcrossQueries) {
    // Regression for the old "one Engine per query" footgun: optimize()
    // used to lock MaxSAT bounds into the shared backend, so a later
    // synthesize() could only see optimal designs. Sessions fixed that.
    Engine engine(caseStudyProblem());
    const auto optimal = engine.optimize();
    ASSERT_TRUE(optimal.has_value());
    const auto anyDesign = engine.synthesize();
    ASSERT_TRUE(anyDesign.has_value());
    const auto report = engine.checkFeasible();
    EXPECT_TRUE(report.feasible);
    // And optimize() twice agrees with itself.
    const auto optimal2 = engine.optimize();
    ASSERT_TRUE(optimal2.has_value());
    EXPECT_EQ(optimal->objectiveCosts, optimal2->objectiveCosts);
}

TEST_F(ServiceTest, SharedCompilationServesEngineAndWhatIf) {
    Service service;
    const Problem p = caseStudyProblem();
    const std::shared_ptr<const Compilation> compilation =
        service.compilationFor(p);

    Engine engine(compilation);
    ASSERT_TRUE(engine.checkFeasible().feasible);

    SessionManager sessions(service);
    const SessionManager::CreateResult created = sessions.create(p);
    ASSERT_FALSE(created.shed);
    EXPECT_TRUE(created.cacheHit); // the session binds the same compilation
    Variation variation;
    variation.systems["Sonata"] = true;
    const auto outcome = sessions.ask(created.id, variation);
    ASSERT_TRUE(outcome.has_value());
    const Answer& answer = outcome->answer;
    EXPECT_TRUE(answer.verdict == Verdict::Sat);
    ASSERT_TRUE(answer.design.has_value());
    EXPECT_TRUE(answer.design->uses("Sonata"));
}

TEST_F(ServiceTest, SeededQueriesAreReproducible) {
    Service service;
    QueryRequest r = request(QueryKind::Optimize, caseStudyProblem());
    r.options.seed = 12345;
    const QueryResult a = service.run(r);
    const QueryResult b = service.run(r);
    ASSERT_TRUE(a.verdict == Verdict::Sat);
    EXPECT_EQ(designKey(a.design), designKey(b.design));
}

TEST_F(ServiceTest, TraceRecordsVerdictAndStats) {
    Service service;
    const QueryResult r =
        service.run(request(QueryKind::Optimize, caseStudyProblem(), "traced"));
    EXPECT_EQ(r.trace.id, "traced");
    EXPECT_EQ(r.trace.kind, QueryKind::Optimize);
    EXPECT_EQ(r.trace.verdict, Verdict::Sat);
    EXPECT_GT(r.trace.totalMs, 0.0);
    EXPECT_GT(r.trace.stats.decisions, 0u);
    // JSON export carries the same fields.
    const json::Value v = toJson(r.trace);
    EXPECT_EQ(v.at("id").asString(), "traced");
    EXPECT_EQ(v.at("verdict").asString(), "sat");
    EXPECT_FALSE(v.at("cache_hit").asBool());
}

TEST_F(ServiceTest, CollectTraceOffLeavesTraceEmpty) {
    Service service;
    QueryRequest r = request(QueryKind::Feasibility, caseStudyProblem());
    r.options.collectTrace = false;
    const QueryResult result = service.run(r);
    EXPECT_TRUE(result.verdict == Verdict::Sat);
    EXPECT_EQ(result.trace.totalMs, 0.0);
    EXPECT_EQ(result.trace.verdict, Verdict::Unknown); // trace untouched
}

TEST_F(ServiceTest, ColdQuerySpanTreeHasCompileAndSolve) {
    Service service;
    QueryRequest r = request(QueryKind::Optimize, caseStudyProblem(), "cold");
    r.options.progressEveryConflicts = 1; // sample at every conflict
    const QueryResult result = service.run(r);
    ASSERT_TRUE(result.verdict == Verdict::Sat);

    ASSERT_NE(result.trace.spans, nullptr);
    const obs::SpanNode* root = result.trace.spans->root();
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->name, "query");
    EXPECT_NE(root->child("compile"), nullptr); // cold → compiled in-query
    const obs::SpanNode* solve = root->child("solve");
    ASSERT_NE(solve, nullptr);
    // The backend's optimize runs under "solve"; with per-conflict probes
    // any search that conflicts at all leaves samples in the solve subtree.
    const obs::SpanNode* optimize = solve->child("optimize");
    ASSERT_NE(optimize, nullptr);
    if (result.trace.stats.conflicts > 0) {
        std::size_t samples = 0;
        const std::function<void(const obs::SpanNode&)> count =
            [&](const obs::SpanNode& node) {
                samples += node.samples.size();
                for (const auto& c : node.children) count(*c);
            };
        count(*solve);
        EXPECT_GT(samples, 0u);
    }

    // The JSON export is versioned and carries the span tree.
    const json::Value v = toJson(result.trace);
    EXPECT_EQ(v.at("schema").asInt(), kQueryTraceSchemaVersion);
    EXPECT_FALSE(v.at("spans").asArray().empty());
    EXPECT_GE(v.at("stats").at("max_decision_level").asInt(), 0);
}

TEST_F(ServiceTest, CachedQuerySpanTreeHasNoCompileSpan) {
    Service service;
    const Problem p = caseStudyProblem();
    (void)service.run(request(QueryKind::Feasibility, p, "warm-up"));
    const QueryResult cached =
        service.run(request(QueryKind::Feasibility, p, "cached"));
    ASSERT_TRUE(cached.trace.cacheHit);
    ASSERT_NE(cached.trace.spans, nullptr);
    const obs::SpanNode* root = cached.trace.spans->root();
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->child("compile"), nullptr); // served from cache
    EXPECT_NE(root->child("solve"), nullptr);
}

TEST_F(ServiceTest, BatchQueriesGetTheirOwnSpanTrees) {
    ServiceOptions options;
    options.workers = 4;
    Service service(options);
    const Problem p = caseStudyProblem();
    std::vector<QueryRequest> requests;
    for (int i = 0; i < 4; ++i)
        requests.push_back(request(QueryKind::Feasibility, p));
    const std::vector<QueryResult> results = service.runBatch(requests);
    for (const QueryResult& r : results) {
        ASSERT_NE(r.trace.spans, nullptr);
        const obs::SpanNode* root = r.trace.spans->root();
        ASSERT_NE(root, nullptr);
        EXPECT_EQ(root->name, "query");
        EXPECT_NE(root->child("solve"), nullptr);
    }
}

TEST_F(ServiceTest, TimeoutReportsUnknownNotWrongAnswer) {
    // A 0ms-deadline CDCL query must come back timedOut, never a bogus
    // sat/unsat verdict. (The deadline is checked after the first conflict,
    // so trivially-propagation-solvable problems may still finish — use the
    // big case study.)
    Service service;
    QueryRequest r = request(QueryKind::Feasibility, caseStudyProblem());
    r.options.timeoutMs = 1;
    const QueryResult result = service.run(r);
    if (gaveUp(result.verdict)) {
        EXPECT_FALSE(result.verdict == Verdict::Sat);
        // Deadline expiry reports TimedOut; a solver that gave up a hair
        // before the deadline reports Unknown. Either way, no bogus verdict.
        EXPECT_TRUE(result.trace.verdict == Verdict::TimedOut ||
                    result.trace.verdict == Verdict::Unknown);
    } else {
        EXPECT_TRUE(result.verdict == Verdict::Sat); // fast machine: solved inside 1ms
    }
}

TEST_F(ServiceTest, TimeoutIsOneDeadlineAcrossEverySolverCall) {
    // Regression: timeout_ms used to become a fresh budget on every solver
    // call, so this enumerate (one optimize, then one check per design)
    // answered all 200 designs in ~190 ms under a 20 ms deadline. Now the
    // calls share the deadline: the query stops where it runs out.
    Service service;
    Problem p = caseStudyProblem();
    p.objectivePriority = {kb::kObjLatency};
    QueryRequest r = request(QueryKind::Enumerate, p);
    r.maxDesigns = 200;
    r.options.timeoutMs = 20;
    const QueryResult result = service.run(r);
    EXPECT_LT(result.designs.size(), 200u);
    EXPECT_TRUE(result.verdict == Verdict::TimedOut ||
                result.trace.stopReason == sat::StopReason::Deadline)
        << verdictName(result.verdict);
}

} // namespace
} // namespace lar::reason
