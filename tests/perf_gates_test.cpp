// Timing gates on the serving path. Each case holds one performance
// contract with a fixed threshold:
//
//   * SVC1 — a mixed Service batch scales >= 2.5x from 1 to 8 workers
//     (skipped below 8 hardware threads, where the ratio cannot show);
//   * SRV1 — the HTTP layer alone serves >= 1000 QPS with p99 < 100 ms and
//     no transport error, so it is never the bottleneck in front of the
//     reasoning service;
//   * SES1 — over the production routes, a session ask pinning one system
//     is >= 10x faster (median) than the equivalent stateless /v1/query,
//     both paths agree on every verdict, and the warm total stays below the
//     cold total;
//   * SVC2 — under 4x oversubscription, a bounded queue sheds excess
//     queries (answered + shed covers the burst) and keeps the answered
//     queries' p99 at or below the unbounded queue's, while the flight
//     recorder stays bounded.
//
// Registered with RUN_SERIAL (tests/CMakeLists.txt) so that other tests
// running under `ctest -j` cannot skew the timings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.hpp"
#include "json/parse.hpp"
#include "kb/objectives.hpp"
#include "net/http_client.hpp"
#include "net/server.hpp"
#include "reason/service.hpp"
#include "reason/session.hpp"
#include "serve/routes.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

using namespace lar;

namespace {

net::ServerOptions loopbackOptions() {
    net::ServerOptions options;
    options.bindAddress = "127.0.0.1";
    options.port = 0;
    options.accessLog = false;
    return options;
}

double percentile(std::vector<double> samples, double q) {
    std::sort(samples.begin(), samples.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
}

struct LoadResult {
    double qps = 0.0;
    double p99Ms = 0.0;
    int errors = 0; ///< transport-level failures (throw from the client)
};

/// `threads` clients, each on its own keep-alive connection, POST `body` to
/// `path` `perThread` times; latency is measured client-side.
LoadResult runLoad(std::uint16_t port, const std::string& path,
                   const std::string& body, int threads, int perThread) {
    std::mutex mergeMutex;
    std::vector<double> latencies;
    std::atomic<int> errors{0};
    const util::Stopwatch wall;
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        clients.emplace_back([&] {
            std::vector<double> local;
            try {
                net::HttpClient client("127.0.0.1", port);
                for (int i = 0; i < perThread; ++i) {
                    const util::Stopwatch timer;
                    (void)client.post(path, body);
                    local.push_back(timer.millis());
                }
            } catch (const Error&) {
                errors.fetch_add(1);
            }
            const std::lock_guard<std::mutex> lock(mergeMutex);
            latencies.insert(latencies.end(), local.begin(), local.end());
        });
    }
    for (std::thread& t : clients) t.join();
    const double wallMs = wall.millis();

    LoadResult r;
    r.errors = errors.load();
    r.qps = static_cast<double>(latencies.size()) * 1000.0 / wallMs;
    r.p99Ms = latencies.empty() ? 0.0 : percentile(latencies, 0.99);
    return r;
}

double median(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace

TEST(PerfGates, ServiceBatchScalesFromOneToEightWorkers) {
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < 8)
        GTEST_SKIP() << "scaling gate waived on " << cores
                     << " hardware thread(s); needs 8";

    // The burst: 6 problem variants (distinct fingerprints) x 6 passes,
    // cycling optimize / feasible / synthesize.
    const kb::KnowledgeBase kb = catalog::buildKnowledgeBase();
    const reason::QueryKind kinds[] = {reason::QueryKind::Optimize,
                                       reason::QueryKind::Feasibility,
                                       reason::QueryKind::Synthesize};
    std::vector<reason::QueryRequest> burst;
    for (int rep = 0; rep < 6; ++rep) {
        for (int v = 0; v < 6; ++v) {
            reason::QueryRequest q;
            q.problem = reason::makeDefaultProblem(kb);
            q.problem.hardware[kb::HardwareClass::Server].count = 40 + 8 * v;
            q.problem.hardware[kb::HardwareClass::Switch].count = 8;
            q.problem.hardware[kb::HardwareClass::Nic].count = 40 + 8 * v;
            q.problem.workloads = {catalog::makeInferenceWorkload()};
            q.problem.requiredCapabilities = {catalog::kCapDetectQueueLength};
            q.kind = kinds[(rep * 6 + v) % 3];
            burst.push_back(std::move(q));
        }
    }

    // Each run gets a fresh service, so both pay the same compilations.
    const auto batchMs = [&burst](unsigned workers) {
        reason::ServiceOptions options;
        options.workers = workers;
        reason::Service service(options);
        const util::Stopwatch timer;
        (void)service.runBatch(burst);
        return timer.millis();
    };
    const double scaling = batchMs(1) / batchMs(8);
    RecordProperty("scaling_x100", static_cast<int>(scaling * 100));
    EXPECT_GE(scaling, 2.5);
}

TEST(PerfGates, HttpLayerServesAThousandQpsWithLowTail) {
    net::HttpServer server(loopbackOptions());
    server.route("POST", "/echo", [](const net::HttpRequest& req) {
        return net::HttpResponse::text(200, req.body);
    });
    server.start();
    // Warm-up: first connections pay thread/epoll start-up costs.
    (void)runLoad(server.port(), "/echo", "ping", 2, 50);
    const LoadResult load = runLoad(server.port(), "/echo", "ping", 4, 1500);
    server.stop();
    RecordProperty("qps", static_cast<int>(load.qps));
    RecordProperty("p99_us", static_cast<int>(load.p99Ms * 1000));

    EXPECT_EQ(load.errors, 0);
    EXPECT_GE(load.qps, 1000.0);
    EXPECT_LT(load.p99Ms, 100.0);
}

TEST(PerfGates, SessionAskIsTenTimesFasterThanStatelessQuery) {
    const kb::KnowledgeBase kb = catalog::buildKnowledgeBase();
    reason::ServiceOptions serviceOptions;
    serviceOptions.warmStartCapacity = 32;
    reason::Service service(serviceOptions);
    reason::SessionManager sessions(service);
    net::HttpServer server(loopbackOptions());
    serve::registerServiceRoutes(server, service, kb);
    serve::registerSessionRoutes(server, sessions, kb);
    server.start();
    net::HttpClient client("127.0.0.1", server.port());

    const std::string hardware =
        R"("hardware":{"server":{"count":60},"switch":{"count":8},)"
        R"("nic":{"count":60}},"objective_priority":["latency"])";
    std::vector<std::string> systems;
    for (const kb::System& s : kb.systems()) systems.push_back(s.name);

    // Cold: one stateless /v1/query per variation, the pin folded into the
    // problem — every request is a new fingerprint, compiled from scratch.
    std::vector<double> coldMs;
    std::vector<bool> coldFeasible;
    for (const std::string& name : systems) {
        const util::Stopwatch timer;
        const net::ClientResponse resp = client.post(
            "/v1/query", R"({"api":1,"kind":"feasible","problem":{)" +
                             hardware + R"(,"pinned_systems":{")" + name +
                             R"(":true}}})");
        coldMs.push_back(timer.millis());
        ASSERT_EQ(resp.status, 200) << name << ": " << resp.body;
        coldFeasible.push_back(json::parse(resp.body).at("feasible").asBool());
    }

    // Warm: one session, one ask per variation, answered by assumptions.
    const net::ClientResponse created = client.post(
        "/v1/session", R"({"api":1,"problem":{)" + hardware + "}}");
    ASSERT_EQ(created.status, 200) << created.body;
    const std::string askPath =
        "/v1/session/" + json::parse(created.body).at("id").asString() +
        "/ask";
    std::vector<double> warmMs;
    std::vector<bool> warmFeasible;
    for (const std::string& name : systems) {
        const util::Stopwatch timer;
        const net::ClientResponse resp = client.post(
            askPath, R"({"api":1,"systems":{")" + name + R"(":true}})");
        warmMs.push_back(timer.millis());
        ASSERT_EQ(resp.status, 200) << name << ": " << resp.body;
        warmFeasible.push_back(json::parse(resp.body).at("feasible").asBool());
    }
    server.stop();

    const double speedup = median(coldMs) / median(warmMs);
    RecordProperty("median_speedup_x10", static_cast<int>(speedup * 10));
    EXPECT_EQ(coldFeasible, warmFeasible);
    EXPECT_GE(speedup, 10.0);
    EXPECT_LT(std::accumulate(warmMs.begin(), warmMs.end(), 0.0),
              std::accumulate(coldMs.begin(), coldMs.end(), 0.0));
}

TEST(PerfGates, OverloadSheddingBoundsTheLatencyTail) {
    // A burst 4x larger than a 2-worker pool can absorb, thrown at a fresh
    // service twice: with an unbounded queue, then with RejectNew at depth 4.
    constexpr unsigned kWorkers = 2;
    constexpr std::size_t kQueueDepth = 2 * kWorkers;
    constexpr int kBurst = static_cast<int>(kWorkers) * 4 * 6;
    constexpr std::size_t kRecorderCap = 16; // < kBurst: forces eviction
    const kb::KnowledgeBase kb = catalog::buildKnowledgeBase();
    std::vector<reason::QueryRequest> burst;
    for (int i = 0; i < kBurst; ++i) {
        reason::QueryRequest q;
        q.problem = reason::makeDefaultProblem(kb);
        q.problem.hardware[kb::HardwareClass::Server].count = 60;
        q.problem.hardware[kb::HardwareClass::Switch].count = 8;
        q.problem.hardware[kb::HardwareClass::Nic].count = 60;
        q.problem.workloads = {catalog::makeInferenceWorkload()};
        q.problem.objectivePriority = {kb::kObjLatency, kb::kObjHardwareCost};
        q.kind = i % 3 == 0 ? reason::QueryKind::Optimize
                            : reason::QueryKind::Feasibility;
        q.id = std::to_string(i);
        burst.push_back(std::move(q));
    }

    struct Run {
        std::vector<double> latenciesMs; ///< answered, queue wait included
        int answered = 0;
        int shed = 0;
        std::size_t recorderSize = 0;
        std::size_t recorderShed = 0; ///< shed traces the recorder retained
    };
    const auto run = [&burst](std::size_t maxQueueDepth) {
        reason::ServiceOptions options;
        options.workers = kWorkers;
        options.maxQueueDepth = maxQueueDepth;
        options.shedPolicy = reason::ShedPolicy::RejectNew;
        options.flightRecorderCapacity = kRecorderCap;
        reason::Service service(options);
        // Pre-warm the compilation cache so both runs measure queueing and
        // solving, not one first-query compile.
        (void)service.compilationFor(burst.front().problem);
        Run r;
        for (const reason::QueryResult& result : service.runBatch(burst)) {
            if (result.verdict == reason::Verdict::Shed) {
                ++r.shed;
            } else if (result.verdict != reason::Verdict::Error) {
                ++r.answered;
                r.latenciesMs.push_back(result.trace.queueWaitMs +
                                        result.trace.totalMs);
            }
        }
        r.recorderSize = service.flightRecorder().size();
        r.recorderShed = service.flightRecorder()
                             .traces(0, 0.0, reason::Verdict::Shed)
                             .size();
        return r;
    };
    const Run unbounded = run(0);
    const Run bounded = run(kQueueDepth);

    // Nothing vanishes or fails: the unbounded queue answers everything,
    // the bounded one answers or sheds every query, and shedding engages.
    ASSERT_EQ(unbounded.answered, kBurst);
    EXPECT_EQ(bounded.answered + bounded.shed, kBurst);
    EXPECT_GT(bounded.shed, 0);
    ASSERT_GT(bounded.answered, 0);
    // Bounding the queue bounds the tail.
    const double p99Unbounded = percentile(unbounded.latenciesMs, 0.99);
    const double p99Bounded = percentile(bounded.latenciesMs, 0.99);
    RecordProperty("p99_unbounded_us", static_cast<int>(p99Unbounded * 1000));
    RecordProperty("p99_bounded_us", static_cast<int>(p99Bounded * 1000));
    EXPECT_LE(p99Bounded, p99Unbounded);
    // The flight recorder rode through both bursts bounded, and failures are
    // pinned rather than sampled away: it still holds shed traces.
    EXPECT_LE(unbounded.recorderSize, kRecorderCap);
    EXPECT_LE(bounded.recorderSize, kRecorderCap);
    EXPECT_GT(bounded.recorderShed, 0u);
}
