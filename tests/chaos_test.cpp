// Chaos suite: armed net.* fault sites against a live in-process server,
// exercised through the resilient HttpClient.
//
// Covers the availability contract end to end: transient connect faults are
// retried within the attempt budget, a transparent re-dial never
// double-spends the end-to-end deadline (regression), a sent non-idempotent
// request is never retried or double-executed, 429/503 shed responses are
// retried honoring Retry-After, the armed-site ledger is visible via
// /v1/debug/faults and /statusz, and a fleet of retrying clients survives 5%
// read/write/accept chaos with zero crashes and full connection drain after
// disarm.
//
// The FaultInjector is process-global, so every test resets it on entry and
// exit, and the servers here run in-process (the sites would be invisible
// across a fork).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.hpp"
#include "json/parse.hpp"
#include "json/value.hpp"
#include "net/fault.hpp"
#include "net/http_client.hpp"
#include "net/server.hpp"
#include "reason/service.hpp"
#include "serve/routes.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"

using namespace lar;
using net::HttpClient;
using net::HttpRequest;
using net::HttpResponse;
using net::HttpServer;
using net::ServerOptions;

namespace {

using Clock = std::chrono::steady_clock;

double elapsedMs(Clock::time_point since) {
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
}

class ChaosTest : public ::testing::Test {
protected:
    void SetUp() override { util::FaultInjector::global().reset(); }
    void TearDown() override { util::FaultInjector::global().reset(); }
};

/// A loopback server with the routes the chaos cases drive.
struct ChaosServer {
    ChaosServer(ServerOptions options = {}) : server([&options] {
        options.bindAddress = "127.0.0.1";
        options.port = 0;
        options.accessLog = false;
        return options;
    }()) {
        server.route("GET", "/ping", [](const HttpRequest&) {
            return HttpResponse::text(200, "pong");
        });
        server.route("GET", "/healthz", [](const HttpRequest&) {
            return HttpResponse::text(200, "ok");
        });
        server.route("POST", "/count", [this](const HttpRequest& req) {
            posted.fetch_add(1);
            return HttpResponse::text(200, req.body);
        });
        // First hit sheds with Retry-After: 1, later hits answer.
        server.route("GET", "/shed-once", [this](const HttpRequest&) {
            if (shedHits.fetch_add(1) == 0) {
                HttpResponse resp =
                    HttpResponse::errorJson(503, "overloaded", "try later");
                resp.extraHeaders.push_back({"Retry-After", "1"});
                return resp;
            }
            return HttpResponse::text(200, "recovered");
        });
        server.start();
    }
    ~ChaosServer() { server.stop(); }

    [[nodiscard]] std::uint16_t port() const { return server.port(); }

    HttpServer server;
    std::atomic<int> posted{0};
    std::atomic<int> shedHits{0};
};

TEST_F(ChaosTest, TransientConnectFaultIsRetriedEvenForPost) {
    ChaosServer ts;
    // The injected connect failure happens before any bytes are sent, so
    // even a non-idempotent POST is safe to retry.
    util::FaultInjector::global().armNthHit(net::kSiteConnect, 1);

    HttpClient client("127.0.0.1", ts.port(), /*timeoutMs=*/5'000);
    net::RetryOptions retry;
    retry.maxAttempts = 3;
    retry.baseBackoffMs = 5;
    retry.maxBackoffMs = 20;
    client.setRetryOptions(retry);

    const net::ClientResponse resp = client.post("/count", "x");
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(ts.posted.load(), 1) << "retried request must execute once";
    EXPECT_EQ(client.stats().retries, 1u);
    EXPECT_GE(util::FaultInjector::global().hits(net::kSiteConnect), 1u);
}

TEST_F(ChaosTest, WithoutRetriesConnectFaultSurfaces) {
    ChaosServer ts;
    util::FaultInjector::global().armNthHit(net::kSiteConnect, 1);
    HttpClient client("127.0.0.1", ts.port(), /*timeoutMs=*/5'000);
    EXPECT_THROW((void)client.get("/ping"), Error);
    EXPECT_EQ(client.stats().retries, 0u);
    // The connection works again once the one-shot fault is spent.
    EXPECT_EQ(client.get("/ping").status, 200);
}

// Regression: a transparent re-dial of a stale keep-alive connection used
// to restart the timeout clock, so a request could block ~2x its deadline.
// Serve one request from a raw listener, close the connection, then
// black-hole the re-dialed one: the second request must time out in ~1x
// the deadline, not 2x.
TEST_F(ChaosTest, RedialSharesTheEndToEndDeadline) {
    const int listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listenFd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    ASSERT_EQ(::listen(listenFd, 4), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(listenFd, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    const std::uint16_t port = ntohs(addr.sin_port);

    std::atomic<bool> done{false};
    std::thread listener([&] {
        // Serve request A completely, then close (stale keep-alive).
        int a = ::accept(listenFd, nullptr, nullptr);
        if (a >= 0) {
            char buf[1024];
            (void)::recv(a, buf, sizeof buf, 0);
            const char resp[] =
                "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
            (void)::send(a, resp, sizeof resp - 1, MSG_NOSIGNAL);
            ::close(a);
        }
        // Accept the re-dial and never answer it.
        int b = ::accept(listenFd, nullptr, nullptr);
        while (!done.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (b >= 0) ::close(b);
    });

    const int timeoutMs = 600;
    HttpClient client("127.0.0.1", port, timeoutMs);
    EXPECT_EQ(client.get("/a").status, 200);

    // Give the listener's close a moment to reach our socket so the second
    // request reliably takes the stale-connection path.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const Clock::time_point start = Clock::now();
    EXPECT_THROW((void)client.get("/b"), net::TimeoutError);
    const double took = elapsedMs(start);
    EXPECT_LT(took, 1.75 * timeoutMs)
        << "re-dial must not restart the deadline clock";
    EXPECT_GE(took, 0.5 * timeoutMs);
    EXPECT_EQ(client.stats().redials, 1u);

    done.store(true);
    listener.join();
    ::close(listenFd);
}

TEST_F(ChaosTest, RetriesNeverDoubleExecuteNonIdempotentRequests) {
    ChaosServer ts;
    // Kill the server's first read: the POST reaches the wire but never a
    // handler, so the client must NOT retry it (sent + non-idempotent),
    // although its policy allows further attempts.
    util::FaultInjector::global().armNthHit(net::kSiteRead, 1);

    HttpClient client("127.0.0.1", ts.port(), /*timeoutMs=*/2'000);
    net::RetryOptions retry;
    retry.maxAttempts = 3;
    client.setRetryOptions(retry);

    EXPECT_THROW((void)client.post("/count", "x"), Error);
    EXPECT_EQ(ts.posted.load(), 0) << "the faulted POST must not execute";
    EXPECT_EQ(client.stats().retries, 0u)
        << "a sent non-idempotent request must not be retried";
}

TEST_F(ChaosTest, ShedResponseIsRetriedHonoringRetryAfter) {
    ChaosServer ts;
    HttpClient client("127.0.0.1", ts.port(), /*timeoutMs=*/5'000);
    net::RetryOptions retry;
    retry.maxAttempts = 3;
    client.setRetryOptions(retry);

    const Clock::time_point start = Clock::now();
    const net::ClientResponse resp = client.get("/shed-once");
    const double took = elapsedMs(start);
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, "recovered");
    EXPECT_GE(took, 900.0) << "must wait out Retry-After: 1";
    EXPECT_EQ(client.stats().shedWaits, 1u);
    EXPECT_EQ(ts.shedHits.load(), 2);
}

TEST_F(ChaosTest, ShedResponseReturnsAsIsWhenBudgetTooSmall) {
    ChaosServer ts;
    // Retry-After: 1 does not fit a 300 ms budget: the 503 comes back
    // unchanged instead of a pointless wait-then-timeout.
    HttpClient client("127.0.0.1", ts.port(), /*timeoutMs=*/300);
    net::RetryOptions retry;
    retry.maxAttempts = 3;
    client.setRetryOptions(retry);

    const net::ClientResponse resp = client.get("/shed-once");
    EXPECT_EQ(resp.status, 503);
    EXPECT_EQ(client.stats().shedWaits, 0u);
}

TEST_F(ChaosTest, DebugFaultsEndpointAndStatuszShowArmedSites) {
    reason::Service service;
    ServerOptions options;
    options.bindAddress = "127.0.0.1";
    options.port = 0;
    options.accessLog = false;
    HttpServer server(options);
    serve::registerDebugRoutes(server, service);
    server.start();
    HttpClient client("127.0.0.1", server.port());

    // Nothing armed: the endpoint answers an empty ledger and /statusz
    // omits the section entirely.
    net::ClientResponse resp = client.get("/v1/debug/faults");
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"count\":0"), std::string::npos) << resp.body;
    EXPECT_EQ(client.get("/statusz").body.find("fault injection"),
              std::string::npos);
    EXPECT_NE(client.get("/statusz").body.find("solver inprocessing"),
              std::string::npos);
    EXPECT_NE(client.get("/statusz").body.find("prepared_images="),
              std::string::npos);

    util::FaultInjector::global().armProbability(net::kSiteRead, 0.05, 42);
    util::FaultInjector::global().armNthHit(net::kSiteConnect, 7);

    resp = client.get("/v1/debug/faults");
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("net.read"), std::string::npos) << resp.body;
    EXPECT_NE(resp.body.find("net.connect"), std::string::npos);
    EXPECT_NE(resp.body.find("probability"), std::string::npos);
    EXPECT_NE(resp.body.find("nth_hit"), std::string::npos);

    const std::string statusz = client.get("/statusz").body;
    EXPECT_NE(statusz.find("fault injection sites"), std::string::npos)
        << statusz;
    EXPECT_NE(statusz.find("net.read"), std::string::npos);

    // Reset before the server handles anything else, so the armed read
    // site cannot bite these very connections.
    util::FaultInjector::global().reset();
    server.stop();
}

// A batch item that fails before it starts (injected at service.task_start)
// still answers with its own trace — its id, its kind, verdict "error" —
// and the flight recorder keeps it for GET /v1/debug/traces?verdict=error.
TEST_F(ChaosTest, BatchItemFailingBeforeStartIsTracedAndRetained) {
    const kb::KnowledgeBase kb = catalog::buildKnowledgeBase();
    reason::ServiceOptions serviceOptions;
    serviceOptions.workers = 1; // FIFO: the 2nd task start is the 2nd item
    reason::Service service(serviceOptions);
    ServerOptions options;
    options.bindAddress = "127.0.0.1";
    options.port = 0;
    options.accessLog = false;
    HttpServer server(options);
    serve::registerServiceRoutes(server, service, kb);
    serve::registerDebugRoutes(server, service);
    server.start();
    HttpClient client("127.0.0.1", server.port());

    util::FaultInjector::global().armNthHit("service.task_start", 2);
    const std::string problem =
        R"({"hardware":{"server":{"count":60},"switch":{"count":8},)"
        R"("nic":{"count":60}},"objective_priority":["latency"]})";
    const net::ClientResponse resp = client.post(
        "/v1/batch", R"({"queries":[{"id":"first","kind":"feasible","problem":)" +
                         problem +
                         R"(},{"id":"doomed","kind":"feasible","problem":)" +
                         problem + "}]}");
    ASSERT_EQ(resp.status, 200) << resp.body;
    const json::Value report = json::parse(resp.body);
    const json::Array& results = report.at("results").asArray();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].at("verdict").asString(), "sat");
    const json::Value& doomed = results[1];
    EXPECT_EQ(doomed.at("verdict").asString(), "error");
    const json::Value& trace = doomed.at("trace");
    EXPECT_EQ(trace.at("id").asString(), "doomed");
    EXPECT_EQ(trace.at("kind").asString(), "feasible");
    EXPECT_EQ(trace.at("verdict").asString(), "error");
    EXPECT_EQ(trace.at("error").at("kind").asString(), "fault_injected");

    const net::ClientResponse errors =
        client.get("/v1/debug/traces?verdict=error");
    ASSERT_EQ(errors.status, 200) << errors.body;
    const json::Value listing = json::parse(errors.body);
    bool listed = false;
    for (const json::Value& row : listing.at("traces").asArray()) {
        EXPECT_NE(row.at("id").asString(), "first");
        if (row.at("id").asString() != "doomed") continue;
        listed = true;
        EXPECT_EQ(row.at("kind").asString(), "feasible");
        EXPECT_EQ(row.at("error_kind").asString(), "fault_injected");
    }
    EXPECT_TRUE(listed) << errors.body;
    server.stop();
}

// The availability gate in miniature (bench_chaos runs the full version):
// 5% faults on accept/read/write, a fleet of retrying clients, and the bar
// is zero crashes, >= 99% success with retries on, and a clean drain back
// to zero connections after disarm.
TEST_F(ChaosTest, FleetSurvivesFivePercentChaosAndServerRecovers) {
    ChaosServer ts;
    util::FaultInjector& injector = util::FaultInjector::global();
    injector.armProbability(net::kSiteAccept, 0.05, 101);
    injector.armProbability(net::kSiteRead, 0.05, 102);
    injector.armProbability(net::kSiteWrite, 0.05, 103);

    constexpr int kThreads = 6;
    constexpr int kPerThread = 40;
    std::atomic<int> ok{0};
    std::atomic<int> failed{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> redials{0};
    std::vector<std::thread> fleet;
    fleet.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        fleet.emplace_back([&, t] {
            HttpClient client("127.0.0.1", ts.port(), /*timeoutMs=*/5'000);
            net::RetryOptions retry;
            retry.maxAttempts = 5;
            retry.baseBackoffMs = 2;
            retry.maxBackoffMs = 20;
            retry.seed = static_cast<std::uint64_t>(t) + 1;
            client.setRetryOptions(retry);
            for (int i = 0; i < kPerThread; ++i) {
                try {
                    if (client.get("/ping").status == 200)
                        ok.fetch_add(1);
                    else
                        failed.fetch_add(1);
                } catch (const Error&) {
                    failed.fetch_add(1);
                }
            }
            retries.fetch_add(client.stats().retries);
            redials.fetch_add(client.stats().redials);
        });
    }
    for (std::thread& t : fleet) t.join();

    const int total = kThreads * kPerThread;
    EXPECT_EQ(ok.load() + failed.load(), total);
    EXPECT_GE(ok.load(), (total * 99) / 100)
        << "with retries on, at least 99% must succeed under 5% chaos "
        << "(retries=" << retries.load() << " redials=" << redials.load()
        << ")";
    EXPECT_GT(injector.hits(net::kSiteRead), 0u) << "chaos must have run";
    EXPECT_GT(retries.load() + redials.load(), 0u)
        << "5% faults over " << total << " requests must trip the client's "
        << "resilience machinery at least once";

    // Disarm and verify recovery: health answers and connections drain.
    injector.reset();
    HttpClient probe("127.0.0.1", ts.port());
    EXPECT_EQ(probe.get("/healthz").status, 200);
    probe.disconnect();
    const Clock::time_point start = Clock::now();
    while (ts.server.activeConnections() != 0 && elapsedMs(start) < 5'000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(ts.server.activeConnections(), 0u)
        << "no leaked connections after the fleet disconnected";
}

} // namespace
