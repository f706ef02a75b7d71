// Robustness suite: resource budgets, cooperative cancellation, failure
// isolation, admission control (shedding), bounded retry, and backend
// fallback — driven deterministically through util::FaultInjector.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.hpp"
#include "kb/objectives.hpp"
#include "obs/metrics.hpp"
#include "reason/service.hpp"
#include "sat/solver.hpp"
#include "testsupport.hpp"
#include "util/fault_injector.hpp"
#include "util/rng.hpp"

namespace lar::reason {
namespace {

using kb::HardwareClass;
using Clock = std::chrono::steady_clock;

double msSince(const Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

using sat::loadCnf;

class ServiceFaultTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        kb_ = new kb::KnowledgeBase(catalog::buildKnowledgeBase());
    }
    static void TearDownTestSuite() {
        delete kb_;
        kb_ = nullptr;
    }
    void SetUp() override { util::FaultInjector::global().reset(); }
    void TearDown() override { util::FaultInjector::global().reset(); }

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

kb::KnowledgeBase* ServiceFaultTest::kb_ = nullptr;

// ---------------------------------------------------------------- budgets

TEST(SolverBudgets, ConflictBudgetStopsWithUnknown) {
    // A near-phase-transition instance conflicts early; a 2-conflict budget
    // must stop the search with the right StopReason, never a verdict.
    util::Rng rng(7);
    const sat::Cnf cnf = test::randomKSat(rng, 120, 516, 3);
    sat::SolverOptions opts;
    opts.conflictBudget = 2;
    sat::Solver s(opts);
    loadCnf(s, cnf);
    const sat::SolveResult result = s.solve();
    ASSERT_EQ(result, sat::SolveResult::Unknown);
    EXPECT_EQ(s.stopReason(), sat::StopReason::ConflictBudget);
    EXPECT_LE(s.stats().conflicts, 3u);

    // The solver stays usable: lifting the budget finishes the instance.
    opts.conflictBudget = -1;
    s.setOptions(opts);
    EXPECT_NE(s.solve(), sat::SolveResult::Unknown);
    EXPECT_EQ(s.stopReason(), sat::StopReason::None);
}

TEST(SolverBudgets, PropagationBudgetStopsWithUnknown) {
    util::Rng rng(11);
    const sat::Cnf cnf = test::randomKSat(rng, 150, 645, 3);
    sat::SolverOptions opts;
    opts.propagationBudget = 40;
    sat::Solver s(opts);
    loadCnf(s, cnf);
    ASSERT_EQ(s.solve(), sat::SolveResult::Unknown);
    EXPECT_EQ(s.stopReason(), sat::StopReason::PropagationBudget);
    EXPECT_GE(s.stats().propagations, 40u);
}

TEST(SolverBudgets, MemoryBudgetForcesReductionThenStops) {
    // A 0 MiB learnt-clause cap: the first learnt clause exceeds it, the
    // forced reduction cannot get under it (recent learnts are protected),
    // so the solver stops with MemoryBudget rather than thrash.
    util::Rng rng(13);
    const sat::Cnf cnf = test::randomKSat(rng, 120, 516, 3);
    sat::SolverOptions opts;
    opts.memoryBudgetMb = 0;
    sat::Solver s(opts);
    loadCnf(s, cnf);
    const sat::SolveResult result = s.solve();
    if (result == sat::SolveResult::Unknown)
        EXPECT_EQ(s.stopReason(), sat::StopReason::MemoryBudget);
    else // solved before the first learnt clause mattered
        EXPECT_EQ(s.stopReason(), sat::StopReason::None);
}

TEST(SolverBudgets, BudgetsOffByDefault) {
    util::Rng rng(17);
    const sat::Cnf cnf = test::randomKSat(rng, 80, 340, 3);
    sat::Solver s;
    loadCnf(s, cnf);
    EXPECT_NE(s.solve(), sat::SolveResult::Unknown);
}

// ----------------------------------------------------------- cancellation

TEST(SolverCancellation, FlagStopsSolveWithinPollingLatency) {
    // The acceptance bar: once the flag flips, the solver must return
    // within 50 ms (it polls every conflict, every 256 decisions, and every
    // 1024 propagations). Solve hard instances in a loop so the worker is
    // guaranteed to be mid-search whenever the flip lands.
    std::atomic<bool> cancel{false};
    std::atomic<bool> sawCancelled{false};
    std::atomic<double> returnDelayMs{-1.0};
    Clock::time_point flippedAt{};

    std::thread worker([&] {
        util::Rng rng(23);
        sat::SolverOptions opts;
        opts.cancelFlag = &cancel;
        for (int round = 0; round < 1000000; ++round) {
            const sat::Cnf cnf = test::randomKSat(rng, 220, 946, 3);
            sat::Solver s(opts);
            loadCnf(s, cnf);
            const sat::SolveResult result = s.solve();
            if (result == sat::SolveResult::Unknown &&
                s.stopReason() == sat::StopReason::Cancelled) {
                sawCancelled.store(true);
                return;
            }
            if (cancel.load()) return; // flipped between solves
        }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    flippedAt = Clock::now();
    cancel.store(true);
    worker.join();
    returnDelayMs.store(msSince(flippedAt));

    EXPECT_TRUE(sawCancelled.load())
        << "worker never observed the cancellation mid-solve";
    EXPECT_LT(returnDelayMs.load(), 50.0)
        << "cancellation latency exceeded the 50 ms budget";
}

TEST_F(ServiceFaultTest, CancelledBeforeStartSkipsSolving) {
    std::atomic<bool> cancel{true}; // already cancelled at submission
    Service service;
    QueryRequest r = request(QueryKind::Optimize, caseStudyProblem(), "c");
    r.options.cancelFlag = &cancel;
    const QueryResult result = service.run(r);
    EXPECT_TRUE(result.verdict == Verdict::Cancelled);
    EXPECT_TRUE(gaveUp(result.verdict));
    EXPECT_FALSE(result.verdict == Verdict::Sat);
    EXPECT_TRUE(result.verdict != Verdict::Error);
    EXPECT_EQ(result.trace.verdict, Verdict::Cancelled);
    EXPECT_EQ(result.trace.solveMs, 0.0); // never reached a backend
    EXPECT_EQ(result.trace.stats.decisions, 0u);
}

// ------------------------------------------------------ failure isolation

TEST_F(ServiceFaultTest, OneInjectedFaultDoesNotPoisonTheBatch) {
    // 1-of-N determinism: with a single worker the Nth consultation of the
    // solve site is exactly the 3rd query. N results must come back,
    // N−1 answered and 1 carrying the error.
    util::FaultInjector::global().armNthHit("service.solve", 3);
    ServiceOptions options;
    options.workers = 1;
    Service service(options);
    const Problem p = caseStudyProblem();
    std::vector<QueryRequest> requests;
    for (int i = 0; i < 6; ++i)
        requests.push_back(request(QueryKind::Feasibility, p,
                                   "q" + std::to_string(i)));
    const std::vector<QueryResult> results = service.runBatch(requests);
    ASSERT_EQ(results.size(), 6u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 2) {
            EXPECT_FALSE(results[i].verdict != Verdict::Error);
            EXPECT_EQ(results[i].error.errorKind, "fault_injected");
            EXPECT_FALSE(results[i].error.message.empty());
            EXPECT_EQ(results[i].trace.verdict, Verdict::Error);
            EXPECT_EQ(results[i].trace.errorKind, "fault_injected");
        } else {
            EXPECT_TRUE(results[i].verdict != Verdict::Error) << results[i].error.message;
            EXPECT_TRUE(results[i].verdict == Verdict::Sat) << results[i].id;
        }
    }
}

TEST_F(ServiceFaultTest, CompileFaultIsIsolatedAndServiceRecovers) {
    util::FaultInjector::global().armNthHit("service.compile", 1);
    Service service;
    const Problem p = caseStudyProblem();
    const QueryResult broken = service.run(request(QueryKind::Feasibility, p));
    EXPECT_FALSE(broken.verdict != Verdict::Error);
    EXPECT_EQ(broken.error.errorKind, "fault_injected");
    // The site disarmed itself after firing: the same service answers now.
    const QueryResult healthy = service.run(request(QueryKind::Feasibility, p));
    EXPECT_TRUE(healthy.verdict != Verdict::Error);
    EXPECT_TRUE(healthy.verdict == Verdict::Sat);
}

TEST_F(ServiceFaultTest, ErrorTraceJsonCarriesTheErrorObject) {
    util::FaultInjector::global().armNthHit("service.compile", 1);
    Service service;
    const QueryResult broken =
        service.run(request(QueryKind::Feasibility, caseStudyProblem(), "e"));
    ASSERT_FALSE(broken.verdict != Verdict::Error);
    const json::Value v = toJson(broken.trace);
    EXPECT_EQ(v.at("schema").asInt(), kQueryTraceSchemaVersion);
    EXPECT_EQ(v.at("verdict").asString(), "error");
    EXPECT_EQ(v.at("error").at("kind").asString(), "fault_injected");
    EXPECT_FALSE(v.at("error").at("message").asString().empty());
}

// ------------------------------------------------------ admission control

TEST_F(ServiceFaultTest, RejectNewShedsExcessQueriesDeterministically) {
    // One worker asleep at task start (latency injection) while all six
    // requests are submitted: the first two fill the queue, the rest are
    // rejected at submission. Every shed query is reported, never dropped.
    util::FaultInjector::global().armDelayMs("service.task_start", 60);
    ServiceOptions options;
    options.workers = 1;
    options.maxQueueDepth = 2;
    options.shedPolicy = ShedPolicy::RejectNew;
    obs::Counter& shedCounter = obs::Registry::global().counter(
        "lar_queries_shed_total",
        "Queries rejected or dropped by admission control");
    const std::uint64_t shedBefore = shedCounter.value();

    Service service(options);
    const Problem p = caseStudyProblem();
    std::vector<QueryRequest> requests;
    for (int i = 0; i < 6; ++i)
        requests.push_back(request(QueryKind::Feasibility, p,
                                   "q" + std::to_string(i)));
    const std::vector<QueryResult> results = service.runBatch(requests);
    ASSERT_EQ(results.size(), 6u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i < 2) {
            EXPECT_FALSE(results[i].verdict == Verdict::Shed) << results[i].id;
            EXPECT_TRUE(results[i].verdict == Verdict::Sat) << results[i].id;
        } else {
            EXPECT_TRUE(results[i].verdict == Verdict::Shed) << results[i].id;
            EXPECT_FALSE(results[i].verdict == Verdict::Sat);
            EXPECT_TRUE(results[i].verdict != Verdict::Error); // shed is not an error
            EXPECT_EQ(results[i].trace.verdict, Verdict::Shed);
        }
    }
    EXPECT_EQ(shedCounter.value() - shedBefore, 4u);
}

TEST_F(ServiceFaultTest, DropOldestShedsLongestQueuedQueries) {
    // Same saturation, DropOldest: each arrival past the depth sheds the
    // longest-queued not-yet-started request, so the *latest* two answer.
    util::FaultInjector::global().armDelayMs("service.task_start", 60);
    ServiceOptions options;
    options.workers = 1;
    options.maxQueueDepth = 2;
    options.shedPolicy = ShedPolicy::DropOldest;
    Service service(options);
    const Problem p = caseStudyProblem();
    std::vector<QueryRequest> requests;
    for (int i = 0; i < 6; ++i)
        requests.push_back(request(QueryKind::Feasibility, p,
                                   "q" + std::to_string(i)));
    const std::vector<QueryResult> results = service.runBatch(requests);
    ASSERT_EQ(results.size(), 6u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i < 4) {
            EXPECT_TRUE(results[i].verdict == Verdict::Shed) << results[i].id;
        } else {
            EXPECT_FALSE(results[i].verdict == Verdict::Shed) << results[i].id;
            EXPECT_TRUE(results[i].verdict == Verdict::Sat) << results[i].id;
        }
    }
}

TEST_F(ServiceFaultTest, QueueBoundIsSharedAcrossConcurrentBatches) {
    // maxQueueDepth is a service-wide bound (Service::queuedDepth_), not a
    // per-runBatch one: saturate it from a first batch (worker parked 200 ms
    // at task start), then submit a second batch while the first still holds
    // both slots — every request of the second batch must be shed. With a
    // per-batch counter the second batch would admit two more, exceeding
    // the documented bound.
    util::FaultInjector::global().armDelayMs("service.task_start", 200);
    ServiceOptions options;
    options.workers = 1;
    options.maxQueueDepth = 2;
    options.shedPolicy = ShedPolicy::RejectNew;
    Service service(options);
    const Problem p = caseStudyProblem();

    std::vector<QueryRequest> first, second;
    for (int i = 0; i < 4; ++i) {
        first.push_back(request(QueryKind::Feasibility, p,
                                "a" + std::to_string(i)));
        second.push_back(request(QueryKind::Feasibility, p,
                                 "b" + std::to_string(i)));
    }
    std::vector<QueryResult> firstResults;
    std::thread submitter(
        [&] { firstResults = service.runBatch(first); });
    // The first batch's submission loop finishes in microseconds; by 50 ms
    // its two admitted requests are parked at the injected delay and keep
    // the shared depth at the bound for another ~150 ms.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::vector<QueryResult> secondResults = service.runBatch(second);
    submitter.join();

    ASSERT_EQ(firstResults.size(), 4u);
    ASSERT_EQ(secondResults.size(), 4u);
    for (const QueryResult& r : secondResults) {
        EXPECT_TRUE(r.verdict == Verdict::Shed) << r.id;
        EXPECT_EQ(r.trace.verdict, Verdict::Shed) << r.id;
    }
    int answered = 0;
    for (const QueryResult& r : firstResults)
        if (r.verdict != Verdict::Shed) {
            ++answered;
            EXPECT_TRUE(r.verdict == Verdict::Sat) << r.id;
        }
    EXPECT_EQ(answered, 2) << "first batch should admit exactly the bound";
}

TEST_F(ServiceFaultTest, DeadlineExpiredInQueueReturnsWithoutSolving) {
    // The end-to-end deadline covers queue wait: a query stuck behind the
    // injected latency longer than its budget comes back timedOut with no
    // solver work at all.
    util::FaultInjector::global().armDelayMs("service.task_start", 80);
    ServiceOptions options;
    options.workers = 1;
    Service service(options);
    QueryRequest r = request(QueryKind::Feasibility, caseStudyProblem(), "d");
    r.options.timeoutMs = 20;
    const std::vector<QueryResult> results = service.runBatch({r});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(gaveUp(results[0].verdict));
    EXPECT_FALSE(results[0].verdict == Verdict::Sat);
    EXPECT_TRUE(results[0].verdict != Verdict::Error);
    // v4 traces distinguish deadline expiry from budget exhaustion.
    EXPECT_EQ(results[0].trace.verdict, Verdict::TimedOut);
    EXPECT_EQ(results[0].trace.solveMs, 0.0);
    EXPECT_GE(results[0].trace.queueWaitMs, 20.0);
}

// --------------------------------------------------------- graceful drain

TEST_F(ServiceFaultTest, DrainLetsInFlightQueriesFinishAndShedsQueued) {
    // Drain begins while the first query is parked mid-solve (injected
    // latency at service.solve — past admission, past registerActive): the
    // in-flight query must still complete with a real verdict, while the
    // two queued behind the single worker observe the drain at start and
    // come back Shed — never Error, never silently dropped.
    util::FaultInjector::global().armDelayMs("service.solve", 100);
    ServiceOptions options;
    options.workers = 1;
    Service service(options);
    const Problem p = caseStudyProblem();
    std::vector<QueryRequest> requests;
    for (int i = 0; i < 3; ++i)
        requests.push_back(request(QueryKind::Feasibility, p,
                                   "q" + std::to_string(i)));

    std::vector<QueryResult> results;
    std::thread submitter([&] { results = service.runBatch(requests); });
    const Clock::time_point start = Clock::now();
    while (service.activeQueries() == 0 && msSince(start) < 5000.0)
        std::this_thread::yield();
    ASSERT_EQ(service.activeQueries(), 1u) << "first query never went active";
    service.beginDrain();
    submitter.join();

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].trace.verdict, Verdict::Sat) << results[0].id;
    EXPECT_TRUE(results[0].verdict != Verdict::Error);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].trace.verdict, Verdict::Shed) << results[i].id;
        EXPECT_TRUE(results[i].verdict != Verdict::Error); // shed is not an error
    }
    EXPECT_EQ(service.activeQueries(), 0u);
    EXPECT_TRUE(service.draining());
}

TEST_F(ServiceFaultTest, CancelActiveDuringDrainReportsCancelledNeverError) {
    // The grace-expired path: drain, then cancelActive() while a query is
    // parked mid-solve. The query must come back Verdict::Cancelled — a
    // clean, non-error outcome — within the solver's polling latency.
    util::FaultInjector::global().armDelayMs("service.solve", 100);
    ServiceOptions options;
    options.workers = 1;
    Service service(options);

    QueryResult result;
    std::thread caller([&] {
        result = service.run(
            request(QueryKind::Feasibility, caseStudyProblem(), "c"));
    });
    const Clock::time_point start = Clock::now();
    while (service.activeQueries() == 0 && msSince(start) < 5000.0)
        std::this_thread::yield();
    ASSERT_EQ(service.activeQueries(), 1u);
    service.beginDrain();
    service.cancelActive();
    caller.join();

    EXPECT_EQ(result.trace.verdict, Verdict::Cancelled);
    EXPECT_TRUE(result.verdict != Verdict::Error) << result.error.message;
    EXPECT_TRUE(result.verdict == Verdict::Cancelled);
    EXPECT_EQ(service.activeQueries(), 0u);
}

TEST_F(ServiceFaultTest, SubmissionsAfterDrainAreShed) {
    // Once draining, both entry points refuse new work with Shed: run() on
    // the calling thread and runBatch() through the pool.
    Service service;
    service.beginDrain();
    const QueryResult single =
        service.run(request(QueryKind::Feasibility, caseStudyProblem(), "s"));
    EXPECT_EQ(single.trace.verdict, Verdict::Shed);
    EXPECT_TRUE(single.verdict != Verdict::Error);

    const std::vector<QueryResult> batch = service.runBatch(
        {request(QueryKind::Feasibility, caseStudyProblem(), "b")});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].trace.verdict, Verdict::Shed);
    EXPECT_TRUE(batch[0].verdict != Verdict::Error);
}

// -------------------------------------------------- retry and degradation

TEST_F(ServiceFaultTest, UnknownVerdictIsRetriedWithFreshSeeds) {
    // A 0-conflict budget keeps every attempt Unknown on the case study, so
    // a 3-attempt policy performs exactly 2 reseeded retries and reports
    // honestly that it still has no answer.
    ServiceOptions options;
    options.retry.maxAttempts = 3;
    Service service(options);
    QueryRequest r = request(QueryKind::Feasibility, caseStudyProblem(), "r");
    r.options.conflictBudget = 0;
    const QueryResult result = service.run(r);
    EXPECT_TRUE(gaveUp(result.verdict));
    EXPECT_FALSE(result.verdict == Verdict::Sat);
    EXPECT_EQ(result.retries, 2);
    EXPECT_EQ(result.trace.verdict, Verdict::Unknown);
    EXPECT_TRUE(result.verdict != Verdict::Error);
}

TEST_F(ServiceFaultTest, RetryDisabledKeepsSingleAttempt) {
    ServiceOptions options;
    options.retry.maxAttempts = 1;
    Service service(options);
    QueryRequest r = request(QueryKind::Feasibility, caseStudyProblem());
    r.options.conflictBudget = 0;
    const QueryResult result = service.run(r);
    EXPECT_TRUE(gaveUp(result.verdict));
    EXPECT_EQ(result.retries, 0);
}

TEST_F(ServiceFaultTest, BackendFailureFallsBackToCdcl) {
    // The Z3 construction path fails (injected — which also covers builds
    // without libz3, where construction throws organically): the query is
    // re-answered by the CDCL backend instead of erroring out.
    util::FaultInjector::global().armNthHit("backend.construct", 1);
    Service service;
    QueryRequest r = request(QueryKind::Optimize, caseStudyProblem(), "fb");
    r.options.backend = smt::BackendKind::Z3;
    const QueryResult result = service.run(r);
    EXPECT_TRUE(result.verdict != Verdict::Error) << result.error.message;
    EXPECT_TRUE(result.verdict == Verdict::Sat);
    EXPECT_TRUE(result.backendFellBack);
    EXPECT_EQ(result.trace.verdict, Verdict::Sat);
}

TEST_F(ServiceFaultTest, FailedFallbackSurfacesTheBackendError) {
    // Every backend construction fails: the CDCL fallback runs once, and
    // its failure comes back as the query's error instead of another
    // fallback or a swallowed answer.
    util::FaultInjector::global().armProbability("backend.construct", 1.0, 1);
    Service service;
    QueryRequest r = request(QueryKind::Optimize, caseStudyProblem());
    r.options.backend = smt::BackendKind::Z3;
    const QueryResult result = service.run(r);
    EXPECT_FALSE(result.verdict != Verdict::Error);
    EXPECT_EQ(result.error.errorKind, "fault_injected");
    EXPECT_TRUE(result.backendFellBack);
    EXPECT_EQ(util::FaultInjector::global().hits("backend.construct"), 2u);
}

// --------------------------------------------------------------- metrics

TEST_F(ServiceFaultTest, CacheEvictionsAreCounted) {
    obs::Counter& evictions = obs::Registry::global().counter(
        "lar_service_cache_evictions_total",
        "Compilations evicted from the Service LRU cache");
    const std::uint64_t before = evictions.value();
    ServiceOptions options;
    options.cacheCapacity = 1;
    Service service(options);
    Problem a = caseStudyProblem();
    Problem b = a;
    b.maxHardwareCostUsd = 800000;
    (void)service.run(request(QueryKind::Feasibility, a));
    (void)service.run(request(QueryKind::Feasibility, b)); // evicts a
    EXPECT_EQ(evictions.value() - before, 1u);
}

TEST_F(ServiceFaultTest, SatAndWarmStartCountersUseTotalSuffix) {
    Service service;
    (void)service.run(request(QueryKind::Feasibility, caseStudyProblem()));
    const std::string text = obs::Registry::global().renderPrometheus();
    for (const char* name :
         {"lar_sat_subsumed_total", "lar_sat_eliminated_vars_total",
          "lar_sat_probes_total", "lar_sat_arena_gcs_total",
          "lar_warmstart_clauses_imported_total"})
        EXPECT_NE(text.find(std::string("# TYPE ") + name + " counter\n"),
                  std::string::npos)
            << name;
    for (const char* stale : {"lar_sat_subsumed ", "lar_sat_eliminated_vars ",
                              "lar_sat_probes ", "lar_sat_arena_gcs "})
        EXPECT_EQ(text.find(std::string("\n") + stale), std::string::npos)
            << stale;
    // /statusz reads the same series through the Service's handles.
    EXPECT_EQ(service.inprocessingTotals().probes,
              obs::Registry::global()
                  .counter("lar_sat_probes_total",
                           "Literals probed by failed-literal probing")
                  .value());
}

// -------------------------------------------------------- query lifecycle

// Every way a query can end — answered, failed inside or before the solver,
// cancelled or expired before starting, shed by drain or by either
// admission policy — leaves the same record: a trace stamped from the
// request and the result, a copy in the flight recorder, and exactly one
// lar_queries_total increment per returned result.
TEST_F(ServiceFaultTest, EveryOutcomeIsTracedRecordedAndCountedOnce) {
    obs::Counter& feasibleQueries = obs::Registry::global().counter(
        "lar_queries_total", "Query results returned by Service, by kind",
        {{"kind", "feasible"}});
    std::atomic<bool> preCancelled{true};
    const auto feasible = [this](const std::string& id) {
        return request(QueryKind::Feasibility, caseStudyProblem(), id);
    };
    const auto batchOf = [&](const std::string& name, int n) {
        std::vector<QueryRequest> requests;
        for (int i = 0; i < n; ++i)
            requests.push_back(feasible(name + "-" + std::to_string(i)));
        return requests;
    };
    ServiceOptions oneWorker;
    oneWorker.workers = 1;
    ServiceOptions rejectNew = oneWorker;
    rejectNew.maxQueueDepth = 1;
    rejectNew.shedPolicy = ShedPolicy::RejectNew;
    ServiceOptions dropOldest = rejectNew;
    dropOldest.shedPolicy = ShedPolicy::DropOldest;

    struct Case {
        std::string name;
        Verdict expected; ///< must be among the case's results
        ServiceOptions options;
        std::function<std::vector<QueryResult>(Service&)> run;
    };
    const std::vector<Case> cases = {
        {"sat", Verdict::Sat, {},
         [&](Service& s) { return std::vector{s.run(feasible("sat"))}; }},
        {"solve_fault", Verdict::Error, {},
         [&](Service& s) {
             util::FaultInjector::global().armNthHit("service.solve", 1);
             return std::vector{s.run(feasible("solve_fault"))};
         }},
        {"cancelled_before_start", Verdict::Cancelled, {},
         [&](Service& s) {
             QueryRequest r = feasible("cancelled_before_start");
             r.options.cancelFlag = &preCancelled;
             return std::vector{s.run(r)};
         }},
        {"expired_before_start", Verdict::TimedOut, oneWorker,
         [&](Service& s) {
             util::FaultInjector::global().armDelayMs("service.task_start",
                                                      80);
             QueryRequest r = feasible("expired_before_start");
             r.options.timeoutMs = 20;
             return s.runBatch({r});
         }},
        {"drain_shed", Verdict::Shed, {},
         [&](Service& s) {
             s.beginDrain();
             return std::vector{s.run(feasible("drain_shed"))};
         }},
        {"reject_new_shed", Verdict::Shed, rejectNew,
         [&](Service& s) {
             util::FaultInjector::global().armDelayMs("service.task_start",
                                                      60);
             return s.runBatch(batchOf("reject_new_shed", 3));
         }},
        {"drop_oldest_shed", Verdict::Shed, dropOldest,
         [&](Service& s) {
             util::FaultInjector::global().armDelayMs("service.task_start",
                                                      60);
             return s.runBatch(batchOf("drop_oldest_shed", 3));
         }},
        // An empty request id: the result, its trace and the recorder all
        // carry the position index.
        {"task_start_fault", Verdict::Error, oneWorker,
         [&](Service& s) {
             util::FaultInjector::global().armNthHit("service.task_start", 1);
             return s.runBatch({feasible("")});
         }},
    };

    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        util::FaultInjector::global().reset();
        Service service(c.options);
        const std::uint64_t countedBefore = feasibleQueries.value();
        const std::vector<QueryResult> results = c.run(service);
        ASSERT_FALSE(results.empty());
        int expectedSeen = 0;
        for (const QueryResult& r : results) {
            SCOPED_TRACE(r.id);
            EXPECT_FALSE(r.id.empty());
            EXPECT_EQ(r.kind, QueryKind::Feasibility);
            EXPECT_EQ(r.trace.id, r.id);
            EXPECT_EQ(r.trace.kind, QueryKind::Feasibility);
            EXPECT_EQ(r.trace.verdict, r.verdict);
            if (r.verdict == Verdict::Error) {
                EXPECT_FALSE(r.trace.errorKind.empty());
                EXPECT_EQ(r.trace.errorKind, r.error.errorKind);
            }
            if (r.verdict == c.expected) ++expectedSeen;
            const std::optional<QueryTrace> recorded =
                service.flightRecorder().find(r.id);
            ASSERT_TRUE(recorded.has_value());
            EXPECT_EQ(recorded->id, r.id);
            EXPECT_EQ(recorded->kind, QueryKind::Feasibility);
            EXPECT_EQ(recorded->verdict, r.verdict);
            EXPECT_EQ(recorded->errorKind, r.error.errorKind);
        }
        EXPECT_GE(expectedSeen, 1) << "no " << verdictName(c.expected);
        EXPECT_EQ(feasibleQueries.value() - countedBefore, results.size());
    }
}

// ------------------------------------------------------- injector itself

TEST(FaultInjector, ProbabilityStreamIsDeterministic) {
    util::FaultInjector& injector = util::FaultInjector::global();
    injector.reset();
    const auto firesAt = [&](std::uint64_t seed) {
        injector.armProbability("test.site", 0.3, seed);
        std::vector<int> fired;
        for (int i = 0; i < 64; ++i) {
            try {
                injector.maybeFault("test.site");
            } catch (const util::FaultInjectedError&) {
                fired.push_back(i);
            }
        }
        injector.reset();
        return fired;
    };
    const std::vector<int> a = firesAt(42);
    const std::vector<int> b = firesAt(42);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "same seed must fire at the same hits";
    EXPECT_NE(firesAt(43), a) << "different seed should differ";
}

TEST(FaultInjector, NthHitFiresExactlyOnce) {
    util::FaultInjector& injector = util::FaultInjector::global();
    injector.reset();
    injector.armNthHit("test.once", 3);
    int fired = 0;
    for (int i = 0; i < 10; ++i) {
        try {
            injector.maybeFault("test.once");
        } catch (const util::FaultInjectedError& e) {
            ++fired;
            EXPECT_NE(std::string(e.what()).find("test.once"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(injector.hits("test.once"), 3u); // disarmed after firing
    injector.reset();
}

TEST(FaultInjector, UnarmedSitesAreFreeAndSilent) {
    util::FaultInjector& injector = util::FaultInjector::global();
    injector.reset();
    EXPECT_FALSE(injector.anyArmed());
    EXPECT_NO_THROW(injector.maybeFault("test.unarmed"));
    EXPECT_EQ(injector.hits("test.unarmed"), 0u); // fast path: not counted
}

TEST(FaultInjector, FiresMirrorsNthHitWithoutThrowing) {
    util::FaultInjector& injector = util::FaultInjector::global();
    injector.reset();
    EXPECT_FALSE(injector.fires("test.fires")); // unarmed: free and silent
    EXPECT_EQ(injector.hits("test.fires"), 0u);

    injector.armNthHit("test.fires", 3);
    int fired = 0;
    for (int i = 0; i < 10; ++i) {
        if (injector.fires("test.fires")) {
            ++fired;
            EXPECT_EQ(i, 2) << "must fire on the 3rd consultation";
        }
    }
    EXPECT_EQ(fired, 1) << "nth-hit self-disarms after firing";
    EXPECT_EQ(injector.hits("test.fires"), 3u);
    injector.reset();
}

TEST(FaultInjector, FiresProbabilityMatchesMaybeFaultStream) {
    util::FaultInjector& injector = util::FaultInjector::global();
    injector.reset();
    // Both entry points must consume the same per-site RNG stream: arming
    // the same (probability, seed) twice and consulting once via maybeFault
    // and once via fires must fault at the same hit indices.
    injector.armProbability("test.stream", 0.25, 7);
    std::vector<int> viaThrow;
    for (int i = 0; i < 64; ++i) {
        try {
            injector.maybeFault("test.stream");
        } catch (const util::FaultInjectedError&) {
            viaThrow.push_back(i);
        }
    }
    injector.reset();
    injector.armProbability("test.stream", 0.25, 7);
    std::vector<int> viaBool;
    for (int i = 0; i < 64; ++i) {
        if (injector.fires("test.stream")) viaBool.push_back(i);
    }
    injector.reset();
    EXPECT_FALSE(viaThrow.empty());
    EXPECT_EQ(viaThrow, viaBool);
}

TEST(FaultInjector, SnapshotReportsModesHitsAndOrdering) {
    util::FaultInjector& injector = util::FaultInjector::global();
    injector.reset();
    EXPECT_TRUE(injector.snapshot().empty());

    injector.armProbability("test.prob", 0.5, 11);
    injector.armNthHit("test.nth", 5);
    injector.armDelayMs("test.delay", 1);
    injector.armNthHit("test.dead", 1);
    (void)injector.fires("test.dead"); // fires and self-disarms
    (void)injector.fires("test.nth"); // one consultation, does not fire

    const auto snap = injector.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // Armed sites sort before disarmed; ties break by name.
    EXPECT_EQ(snap[0].site, "test.delay");
    EXPECT_EQ(snap[1].site, "test.nth");
    EXPECT_EQ(snap[2].site, "test.prob");
    EXPECT_EQ(snap[3].site, "test.dead");
    EXPECT_FALSE(snap[3].armed);
    EXPECT_EQ(snap[3].hits, 1u) << "disarmed site keeps its tally";

    for (const auto& s : snap) {
        if (s.site == "test.prob") {
            EXPECT_TRUE(s.armed);
            EXPECT_EQ(s.mode, "probability");
            EXPECT_DOUBLE_EQ(s.probability, 0.5);
        } else if (s.site == "test.nth") {
            EXPECT_TRUE(s.armed);
            EXPECT_EQ(s.mode, "nth_hit");
            EXPECT_EQ(s.nth, 5u);
            EXPECT_EQ(s.hits, 1u);
        } else if (s.site == "test.delay") {
            EXPECT_TRUE(s.armed);
            EXPECT_EQ(s.mode, "delay");
            EXPECT_EQ(s.delayMs, 1);
        } else if (s.site == "test.dead") {
            EXPECT_EQ(s.mode, "disarmed");
        }
    }
    injector.reset();
    EXPECT_TRUE(injector.snapshot().empty()) << "reset clears the ledger";
}

} // namespace
} // namespace lar::reason
