// SessionManager lifecycle: leases, eviction, shedding, drain, and the
// expiry-vs-in-flight-ask race. Pure library tests (no HTTP) so the same
// file runs under ThreadSanitizer as session_tsan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "catalog/catalog.hpp"
#include "obs/metrics.hpp"
#include "reason/engine.hpp"
#include "reason/service.hpp"
#include "reason/session.hpp"
#include "util/fault_injector.hpp"

namespace lar::reason {
namespace {

class SessionTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        kb_ = new kb::KnowledgeBase(catalog::buildKnowledgeBase());
    }
    static void TearDownTestSuite() {
        delete kb_;
        kb_ = nullptr;
    }

    Problem caseStudy(int servers = 60) const {
        Problem p = makeDefaultProblem(*kb_);
        p.hardware[kb::HardwareClass::Server].count = servers;
        p.hardware[kb::HardwareClass::Switch].count = 8;
        p.hardware[kb::HardwareClass::Nic].count = 60;
        p.workloads = {catalog::makeInferenceWorkload()};
        return p;
    }

    static ServiceOptions lightService() {
        ServiceOptions options;
        options.workers = 1;
        return options;
    }

    static kb::KnowledgeBase* kb_;
};

kb::KnowledgeBase* SessionTest::kb_ = nullptr;

TEST_F(SessionTest, CreateAskRenewCloseLifecycle) {
    Service service(lightService());
    SessionManager manager(service);

    const auto created = manager.create(caseStudy());
    ASSERT_FALSE(created.shed);
    ASSERT_FALSE(created.id.empty());
    EXPECT_EQ(created.leaseTtlMs, 60'000);
    EXPECT_EQ(manager.activeSessions(), 1U);

    const auto outcome = manager.ask(created.id, {});
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->answer.verdict, Verdict::Sat);
    EXPECT_TRUE(outcome->answer.verdict == Verdict::Sat);
    EXPECT_EQ(outcome->trace.kind, QueryKind::Feasibility);
    EXPECT_EQ(outcome->trace.verdict, Verdict::Sat);
    EXPECT_EQ(outcome->trace.id, created.id + "#1");

    EXPECT_TRUE(manager.renew(created.id));
    EXPECT_TRUE(manager.close(created.id));
    EXPECT_EQ(manager.activeSessions(), 0U);
    EXPECT_FALSE(manager.close(created.id)); // idempotence: already gone
}

TEST_F(SessionTest, UnknownIdAnswersNullopt) {
    Service service(lightService());
    SessionManager manager(service);
    EXPECT_FALSE(manager.ask("s-nope", {}).has_value());
    EXPECT_FALSE(manager.renew("s-nope"));
    EXPECT_FALSE(manager.close("s-nope"));
}

TEST_F(SessionTest, UnknownVariationNamesAreStructuredErrors) {
    Service service(lightService());
    SessionManager manager(service);
    const auto created = manager.create(caseStudy());
    ASSERT_FALSE(created.shed);

    Variation bad;
    bad.systems["Ghost"] = true;
    const auto outcome = manager.ask(created.id, bad);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->answer.verdict, Verdict::Error);
    ASSERT_EQ(outcome->answer.unknownNames.size(), 1U);
    EXPECT_EQ(outcome->answer.unknownNames[0], "system/Ghost");
    // The session stays usable after a client mistake.
    EXPECT_TRUE(manager.ask(created.id, {})->answer.verdict == Verdict::Sat);
}

TEST_F(SessionTest, LeaseExpiryEvicts) {
    Service service(lightService());
    SessionOptions options;
    options.leaseTtl = std::chrono::milliseconds(40);
    options.sweepInterval = std::chrono::milliseconds(10);
    SessionManager manager(service, options);

    const auto created = manager.create(caseStudy());
    ASSERT_FALSE(created.shed);
    for (int i = 0; i < 100 && manager.activeSessions() > 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(manager.activeSessions(), 0U);
    EXPECT_FALSE(manager.ask(created.id, {}).has_value());
}

TEST_F(SessionTest, AsksKeepTheLeaseAlive) {
    Service service(lightService());
    SessionOptions options;
    options.leaseTtl = std::chrono::milliseconds(300);
    options.sweepInterval = std::chrono::milliseconds(20);
    // This test times asks against the lease; keep each ask cheap and
    // predictable by skipping the solver's inprocessing round (which under
    // ThreadSanitizer can alone outlast the deliberately short TTL).
    options.query.simplify = false;
    SessionManager manager(service, options);

    const auto created = manager.create(caseStudy());
    ASSERT_FALSE(created.shed);
    // 10 asks ~50ms apart span more than a lease lifetime; each renews.
    // The lease is deliberately several times the ask cadence: under
    // ThreadSanitizer on a loaded single-CPU runner one slow ask must not
    // eat the whole TTL.
    for (int i = 0; i < 10; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        ASSERT_TRUE(manager.ask(created.id, {}).has_value()) << "ask " << i;
    }
    EXPECT_EQ(manager.activeSessions(), 1U);
}

TEST_F(SessionTest, SessionCapSheds) {
    Service service(lightService());
    SessionOptions options;
    options.maxSessions = 2;
    SessionManager manager(service, options);

    const auto first = manager.create(caseStudy(60));
    const auto second = manager.create(caseStudy(61));
    ASSERT_FALSE(first.shed);
    ASSERT_FALSE(second.shed);
    const auto third = manager.create(caseStudy(62));
    EXPECT_TRUE(third.shed);
    EXPECT_TRUE(third.id.empty());

    ASSERT_TRUE(manager.close(first.id));
    const auto fourth = manager.create(caseStudy(62));
    EXPECT_FALSE(fourth.shed);
}

TEST_F(SessionTest, DrainEvictsEverythingAndServiceDrainSheds) {
    Service service(lightService());
    SessionManager manager(service);
    const auto a = manager.create(caseStudy(60));
    const auto b = manager.create(caseStudy(61));
    ASSERT_FALSE(a.shed);
    ASSERT_FALSE(b.shed);

    manager.drain();
    EXPECT_EQ(manager.activeSessions(), 0U);
    EXPECT_FALSE(manager.ask(a.id, {}).has_value());
    EXPECT_FALSE(manager.ask(b.id, {}).has_value());

    // drain() alone does not close the door — the Service does.
    EXPECT_FALSE(manager.create(caseStudy()).shed);
    service.beginDrain();
    EXPECT_TRUE(manager.create(caseStudy()).shed);
}

TEST_F(SessionTest, DrainCancelsInFlightAsk) {
    Service service(lightService());
    SessionManager manager(service);
    const auto created = manager.create(caseStudy());
    ASSERT_FALSE(created.shed);

    // Hold the ask inside its solve phase long enough for drain() to land.
    util::FaultInjector& injector = util::FaultInjector::global();
    injector.reset();
    injector.armDelayMs("session.ask", 300);
    std::optional<SessionManager::AskOutcome> outcome;
    std::thread asker([&] { outcome = manager.ask(created.id, {}); });
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (injector.hits("session.ask") == 0 &&
           std::chrono::steady_clock::now() < giveUp)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    manager.drain();
    asker.join();
    injector.reset();

    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->answer.verdict, Verdict::Cancelled);
    EXPECT_EQ(outcome->trace.verdict, Verdict::Cancelled);
    EXPECT_EQ(manager.activeSessions(), 0U);
}

TEST_F(SessionTest, CloseChainsWarmStartToNextSession) {
    ServiceOptions serviceOptions = lightService();
    serviceOptions.warmStartCapacity = 4;
    Service service(serviceOptions);
    SessionManager manager(service);

    const Problem problem = caseStudy();
    const auto first = manager.create(problem);
    ASSERT_FALSE(first.shed);
    EXPECT_FALSE(first.warmStarted); // nothing cached yet
    ASSERT_TRUE(manager.ask(first.id, {}).has_value());
    ASSERT_TRUE(manager.close(first.id));

    const auto second = manager.create(problem);
    ASSERT_FALSE(second.shed);
    EXPECT_TRUE(second.warmStarted);
    EXPECT_GT(second.warmStartClauses, 0U);
    EXPECT_TRUE(second.cacheHit); // compilation cache also hits
    ASSERT_TRUE(manager.ask(second.id, {}).has_value());
}

// A create refused after its compile (the service began draining
// meanwhile) has already imported the warm start, but that import never
// serves a query: it must not reach lar_warmstart_clauses_imported_total.
TEST_F(SessionTest, RefusedCreateCountsNoWarmStartImport) {
    const Problem problem = caseStudy();
    QueryOptions capture;
    capture.captureSnapshot = true;
    const std::shared_ptr<const sat::SolverSnapshot> snapshot =
        Engine(problem, capture).run(QueryKind::Feasibility).snapshot;
    ASSERT_NE(snapshot, nullptr);
    QueryOptions warm;
    warm.warmStart = snapshot;
    ASSERT_GT(SolverSession(std::make_shared<const Compilation>(problem), warm)
                  .warmStartImported(),
              0U); // a real snapshot: a session over the problem imports it

    ServiceOptions serviceOptions = lightService();
    serviceOptions.warmStartCapacity = 4;
    Service service(serviceOptions);
    service.storeSnapshot(problem, snapshot);
    SessionManager manager(service);
    const obs::Counter& imported = obs::Registry::global().counter(
        "lar_warmstart_clauses_imported_total",
        "Learnt clauses integrated from warm-start snapshots");
    const std::uint64_t before = imported.value();

    // Hold the create inside its compile long enough for the drain to land
    // between its two admission checks.
    util::FaultInjector& injector = util::FaultInjector::global();
    injector.reset();
    injector.armDelayMs("service.compile", 200);
    SessionManager::CreateResult created;
    std::thread creator([&] { created = manager.create(problem); });
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (injector.hits("service.compile") == 0 &&
           std::chrono::steady_clock::now() < giveUp)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    service.beginDrain();
    creator.join();
    injector.reset();

    EXPECT_TRUE(created.shed);
    EXPECT_TRUE(created.warmStarted); // the solver did import the snapshot
    EXPECT_EQ(imported.value(), before);
    EXPECT_EQ(manager.activeSessions(), 0U);
}

// The race this pins down: the sweeper evicts a session while an ask is
// in flight on it. The shared_ptr keeps the Session alive, the ask
// completes normally (or the id is already gone and ask reports nullopt);
// nothing crashes, deadlocks, or races (session_tsan runs this file under
// ThreadSanitizer).
TEST_F(SessionTest, ExpiryRacesInFlightAsksSafely) {
    Service service(lightService());
    SessionOptions options;
    options.leaseTtl = std::chrono::milliseconds(2);
    options.sweepInterval = std::chrono::milliseconds(1);
    SessionManager manager(service, options);

    std::atomic<int> answered{0};
    std::atomic<int> evicted{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(400);
            while (std::chrono::steady_clock::now() < deadline) {
                const auto created = manager.create(caseStudy(60 + t));
                if (created.shed) continue;
                // Ask until the sweeper takes the session away.
                while (true) {
                    const auto outcome = manager.ask(created.id, {});
                    if (!outcome.has_value()) {
                        evicted.fetch_add(1, std::memory_order_relaxed);
                        break;
                    }
                    EXPECT_NE(outcome->answer.verdict, Verdict::Error);
                    answered.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (std::thread& worker : workers) worker.join();
    EXPECT_GT(answered.load(), 0);
    EXPECT_GT(evicted.load(), 0);
    manager.drain();
    EXPECT_EQ(manager.activeSessions(), 0U);
}

} // namespace
} // namespace lar::reason
