// End-to-end tests of the epoll HTTP server over loopback: routing,
// keep-alive, limits → 4xx, Expect: 100-continue, pipelining, deterministic
// 503 backpressure at the inflight cap, concurrent connections, and the
// graceful-drain state machine (readyz flips before healthz, in-flight work
// finishes, zero crashed connections). Compiled a second time under
// ThreadSanitizer as server_tsan (see CMakeLists).
#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/http_client.hpp"
#include "util/error.hpp"

using namespace lar;
using net::HttpClient;
using net::HttpRequest;
using net::HttpResponse;
using net::HttpServer;
using net::ServerOptions;

namespace {

/// Blocking raw-socket exchange for wire-level cases the well-behaved
/// HttpClient cannot produce (malformed requests, pipelining, 100-continue).
class RawConn {
public:
    explicit RawConn(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        timeval tv{};
        tv.tv_sec = 5;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        connected_ =
            ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    }
    ~RawConn() {
        if (fd_ >= 0) ::close(fd_);
    }

    [[nodiscard]] bool connected() const { return connected_; }
    [[nodiscard]] int fd() const { return fd_; }

    void send(const std::string& bytes) const {
        ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }

    /// Reads until EOF (server closed) or the 5 s timeout.
    [[nodiscard]] std::string readAll() const {
        std::string out;
        char buf[4096];
        while (true) {
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n <= 0) break;
            out.append(buf, static_cast<std::size_t>(n));
        }
        return out;
    }

    /// Reads until `marker` appears in the accumulated bytes (or timeout).
    [[nodiscard]] std::string readUntil(const std::string& marker) const {
        std::string out;
        char buf[4096];
        while (out.find(marker) == std::string::npos) {
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n <= 0) break;
            out.append(buf, static_cast<std::size_t>(n));
        }
        return out;
    }

private:
    int fd_ = -1;
    bool connected_ = false;
};

/// A server with the standard test routes, started on an ephemeral port.
struct TestServer {
    explicit TestServer(ServerOptions options = {}) : server([&options] {
        options.bindAddress = "127.0.0.1";
        options.port = 0;
        return options;
    }()) {
        server.route("GET", "/ping", [](const HttpRequest&) {
            return HttpResponse::text(200, "pong");
        });
        server.route("POST", "/echo", [](const HttpRequest& req) {
            HttpResponse resp;
            resp.body = req.body;
            return resp;
        });
        server.route("GET", "/healthz", [](const HttpRequest&) {
            return HttpResponse::text(200, "ok");
        });
        server.route("GET", "/readyz", [this](const HttpRequest&) {
            if (server.draining())
                return HttpResponse::errorJson(503, "draining", "bye");
            return HttpResponse::text(200, "ready");
        });
        server.route("GET", "/boom", [](const HttpRequest&) -> HttpResponse {
            throw std::runtime_error("handler exploded");
        });
        server.route("GET", "/slow", [this](const HttpRequest&) {
            slowEntered.fetch_add(1);
            std::unique_lock<std::mutex> lock(slowMutex);
            slowCv.wait(lock, [this] { return slowRelease; });
            return HttpResponse::text(200, "done");
        });
    }

    void start() { server.start(); }
    [[nodiscard]] std::uint16_t port() const { return server.port(); }

    void releaseSlow() {
        {
            const std::lock_guard<std::mutex> lock(slowMutex);
            slowRelease = true;
        }
        slowCv.notify_all();
    }

    HttpServer server;
    std::atomic<int> slowEntered{0};
    std::mutex slowMutex;
    std::condition_variable slowCv;
    bool slowRelease = false;
};

TEST(HttpServerTest, RoundTripAndKeepAlive) {
    TestServer ts;
    ts.start();
    HttpClient client("127.0.0.1", ts.port());

    const net::ClientResponse a = client.get("/ping");
    EXPECT_EQ(a.status, 200);
    EXPECT_EQ(a.body, "pong");

    // Same client object → same kept-alive connection for the next two.
    const net::ClientResponse b = client.post("/echo", "{\"x\":1}");
    EXPECT_EQ(b.status, 200);
    EXPECT_EQ(b.body, "{\"x\":1}");
    EXPECT_EQ(client.get("/ping").status, 200);
    EXPECT_EQ(ts.server.activeConnections(), 1u);
}

TEST(HttpServerTest, NotFoundAndMethodNotAllowed) {
    TestServer ts;
    ts.start();
    HttpClient client("127.0.0.1", ts.port());

    EXPECT_EQ(client.get("/nope").status, 404);
    const net::ClientResponse resp = client.post("/ping", "{}");
    EXPECT_EQ(resp.status, 405);
    ASSERT_NE(resp.header("Allow"), nullptr);
    EXPECT_EQ(*resp.header("Allow"), "GET");
}

TEST(HttpServerTest, PatternRoutesCaptureParams) {
    ServerOptions options;
    options.bindAddress = "127.0.0.1";
    options.port = 0;
    HttpServer server(options);
    server.route("POST", "/v1/session/{id}/ask",
                 [](const HttpRequest&, const HttpServer::RouteParams& p) {
                     return HttpResponse::text(200, "ask:" + p.at("id"));
                 });
    server.route("DELETE", "/v1/session/{id}",
                 [](const HttpRequest&, const HttpServer::RouteParams& p) {
                     return HttpResponse::text(200, "del:" + p.at("id"));
                 });
    // Exact route on a path the pattern also matches: exact must win.
    server.route("DELETE", "/v1/session/special", [](const HttpRequest&) {
        return HttpResponse::text(200, "exact");
    });
    server.start();
    HttpClient client("127.0.0.1", server.port());

    EXPECT_EQ(client.post("/v1/session/s-42/ask", "{}").body, "ask:s-42");
    EXPECT_EQ(client.del("/v1/session/s-42").body, "del:s-42");
    EXPECT_EQ(client.del("/v1/session/special").body, "exact");

    // {id} must match exactly one non-empty segment.
    EXPECT_EQ(client.post("/v1/session//ask", "{}").status, 404);
    EXPECT_EQ(client.post("/v1/session/a/b/ask", "{}").status, 404);
    EXPECT_EQ(client.post("/v1/session/s-42", "{}").status, 405);
    server.stop();
}

TEST(HttpServerTest, PatternRouteMethodNotAllowedListsAllMethods) {
    ServerOptions options;
    options.bindAddress = "127.0.0.1";
    options.port = 0;
    HttpServer server(options);
    // Two registrations on the same pattern merge into one route entry.
    server.route("POST", "/v1/session/{id}",
                 [](const HttpRequest&, const HttpServer::RouteParams&) {
                     return HttpResponse::text(200, "post");
                 });
    server.route("DELETE", "/v1/session/{id}",
                 [](const HttpRequest&, const HttpServer::RouteParams&) {
                     return HttpResponse::text(200, "delete");
                 });
    server.start();
    HttpClient client("127.0.0.1", server.port());

    const net::ClientResponse resp = client.get("/v1/session/s-1");
    EXPECT_EQ(resp.status, 405);
    ASSERT_NE(resp.header("Allow"), nullptr);
    EXPECT_EQ(*resp.header("Allow"), "DELETE, POST");
    server.stop();
}

TEST(HttpServerTest, HandlerExceptionBecomes500) {
    TestServer ts;
    ts.start();
    HttpClient client("127.0.0.1", ts.port());
    const net::ClientResponse resp = client.get("/boom");
    EXPECT_EQ(resp.status, 500);
    EXPECT_NE(resp.body.find("handler exploded"), std::string::npos);
}

TEST(HttpServerTest, MalformedRequestGets400AndClose) {
    TestServer ts;
    ts.start();
    RawConn conn(ts.port());
    ASSERT_TRUE(conn.connected());
    conn.send("GARBAGE-WITH-NO-SPACES\r\n\r\n");
    const std::string reply = conn.readAll(); // server closes after 4xx
    EXPECT_NE(reply.find("HTTP/1.1 400 "), std::string::npos);
    EXPECT_NE(reply.find("Connection: close"), std::string::npos);
}

TEST(HttpServerTest, OversizedHeadersGet431) {
    ServerOptions options;
    options.limits.maxHeaderBytes = 256;
    TestServer ts(options);
    ts.start();
    RawConn conn(ts.port());
    ASSERT_TRUE(conn.connected());
    std::string req = "GET /ping HTTP/1.1\r\n";
    for (int i = 0; i < 32; ++i)
        req += "X-Pad-" + std::to_string(i) + ": " + std::string(64, 'p') +
               "\r\n";
    req += "\r\n";
    conn.send(req);
    EXPECT_NE(conn.readAll().find("HTTP/1.1 431 "), std::string::npos);
}

TEST(HttpServerTest, OversizedBodyGets413) {
    ServerOptions options;
    options.limits.maxBodyBytes = 1024;
    TestServer ts(options);
    ts.start();
    RawConn conn(ts.port());
    ASSERT_TRUE(conn.connected());
    conn.send("POST /echo HTTP/1.1\r\nContent-Length: 999999\r\n\r\n");
    EXPECT_NE(conn.readAll().find("HTTP/1.1 413 "), std::string::npos);
}

TEST(HttpServerTest, ExpectContinueHandshake) {
    TestServer ts;
    ts.start();
    RawConn conn(ts.port());
    ASSERT_TRUE(conn.connected());
    conn.send(
        "POST /echo HTTP/1.1\r\nExpect: 100-continue\r\n"
        "Content-Length: 5\r\n\r\n");
    const std::string interim = conn.readUntil("\r\n\r\n");
    ASSERT_NE(interim.find("HTTP/1.1 100 Continue"), std::string::npos);
    conn.send("hello");
    const std::string reply = conn.readUntil("hello");
    EXPECT_NE(reply.find("HTTP/1.1 200 "), std::string::npos);
}

TEST(HttpServerTest, PipelinedRequestsAnsweredInOrder) {
    TestServer ts;
    ts.start();
    RawConn conn(ts.port());
    ASSERT_TRUE(conn.connected());
    conn.send(
        "POST /echo HTTP/1.1\r\nContent-Length: 3\r\n\r\none"
        "POST /echo HTTP/1.1\r\nContent-Length: 3\r\nConnection: close\r\n"
        "\r\ntwo");
    const std::string reply = conn.readAll();
    const std::size_t first = reply.find("one");
    const std::size_t second = reply.find("two");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(second, std::string::npos);
    EXPECT_LT(first, second);
}

TEST(HttpServerTest, InflightCapSheds503WithRetryAfter) {
    ServerOptions options;
    options.maxInflight = 1;
    TestServer ts(options);
    ts.start();

    std::thread slowCaller([&ts] {
        HttpClient client("127.0.0.1", ts.port());
        EXPECT_EQ(client.get("/slow").status, 200);
    });
    // Wait until the slow handler occupies the single inflight slot.
    while (ts.slowEntered.load() == 0) std::this_thread::yield();

    HttpClient client("127.0.0.1", ts.port());
    const net::ClientResponse shed = client.get("/ping");
    EXPECT_EQ(shed.status, 503);
    ASSERT_NE(shed.header("Retry-After"), nullptr);

    ts.releaseSlow();
    slowCaller.join();
    // The slot is free again — same client, same connection, now served.
    EXPECT_EQ(client.get("/ping").status, 200);
}

TEST(HttpServerTest, FourfoldOversubscriptionShedsCleanly) {
    // 16 clients against an inflight cap of 4: the surplus is shed with 503
    // + Retry-After, everything else is answered 200 — never another status,
    // never a transport error, never a request left unanswered.
    ServerOptions options;
    options.accessLog = false;
    options.maxInflight = 4;
    TestServer ts(options);
    ts.server.route("POST", "/work", [](const HttpRequest& req) {
        // A few ms of "solving" keeps the inflight slots occupied so the
        // surplus clients actually hit the cap.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return HttpResponse::text(200, req.body);
    });
    ts.start();
    constexpr int kClients = 16;
    constexpr int kRequests = 25;
    std::atomic<int> served{0}, shed{0}, other{0}, transportErrors{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&] {
            try {
                HttpClient client("127.0.0.1", ts.port());
                for (int i = 0; i < kRequests; ++i) {
                    const net::ClientResponse resp = client.post("/work", "x");
                    if (resp.status == 200) served.fetch_add(1);
                    else if (resp.status == 503 &&
                             resp.header("Retry-After") != nullptr)
                        shed.fetch_add(1);
                    else other.fetch_add(1);
                }
            } catch (const Error&) {
                transportErrors.fetch_add(1);
            }
        });
    }
    for (std::thread& t : clients) t.join();

    EXPECT_EQ(other.load(), 0);
    EXPECT_EQ(transportErrors.load(), 0);
    EXPECT_EQ(served.load() + shed.load(), kClients * kRequests);
    EXPECT_GT(shed.load(), 0);
}

TEST(HttpServerTest, ConcurrentConnectionsAllServed) {
    // The default inflight cap is sized from the core count, which can be
    // tiny in CI; raise it so no request is legitimately shed with 503.
    ServerOptions options;
    options.maxInflight = 64;
    TestServer ts(options);
    ts.start();
    constexpr int kThreads = 8;
    constexpr int kRequests = 25;
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&ts, &ok] {
            HttpClient client("127.0.0.1", ts.port());
            for (int i = 0; i < kRequests; ++i) {
                const net::ClientResponse resp =
                    client.post("/echo", "payload-" + std::to_string(i));
                if (resp.status == 200 &&
                    resp.body == "payload-" + std::to_string(i))
                    ok.fetch_add(1);
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(ok.load(), kThreads * kRequests);
}

TEST(HttpServerTest, DrainFlipsReadyzBeforeHealthzAndCloses) {
    ServerOptions options;
    options.drainIdleCloseMs = 5000; // keep pre-opened idle conns alive
    TestServer ts(options);
    ts.start();

    // Pre-open two keep-alive connections before the drain begins: new
    // connections are refused once draining.
    HttpClient ready("127.0.0.1", ts.port());
    HttpClient health("127.0.0.1", ts.port());
    ASSERT_EQ(ready.get("/readyz").status, 200);
    ASSERT_EQ(health.get("/healthz").status, 200);

    bool drainHookRan = false;
    ts.server.setDrainHooks([&drainHookRan] { drainHookRan = true; }, {});
    ts.server.beginDrain();
    EXPECT_TRUE(drainHookRan);
    EXPECT_TRUE(ts.server.draining());

    // Readiness fails while liveness still passes: the window where an
    // orchestrator routes traffic away without restarting the process.
    const net::ClientResponse notReady = ready.get("/readyz");
    EXPECT_EQ(notReady.status, 503);
    const net::ClientResponse alive = health.get("/healthz");
    EXPECT_EQ(alive.status, 200);
    // Drain responses tell the client to go away.
    ASSERT_NE(alive.header("Connection"), nullptr);
    EXPECT_EQ(*alive.header("Connection"), "close");

    // New connections are not admitted while draining.
    HttpClient late("127.0.0.1", ts.port());
    EXPECT_THROW((void)late.get("/ping"), Error);

    ts.server.drainAndStop(/*graceMs=*/2000);
    EXPECT_EQ(ts.server.activeConnections(), 0u);
}

TEST(HttpServerTest, DrainMidLoadLosesNoConnectionUncleanly) {
    TestServer ts;
    ts.start();
    constexpr int kThreads = 4;
    std::atomic<bool> stopping{false};
    std::atomic<int> served{0};
    std::atomic<int> badResponses{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            while (!stopping.load()) {
                try {
                    HttpClient client("127.0.0.1", ts.port());
                    const net::ClientResponse resp = client.get("/ping");
                    if (resp.status == 200) served.fetch_add(1);
                    else badResponses.fetch_add(1);
                } catch (const Error&) {
                    // Refused/closed connections are the expected way to be
                    // turned away during drain — not a failure.
                    if (!stopping.load() && !ts.server.draining())
                        badResponses.fetch_add(1);
                }
            }
        });
    }
    while (served.load() < 50) std::this_thread::yield();
    ts.server.drainAndStop(/*graceMs=*/2000);
    stopping.store(true);
    for (std::thread& t : threads) t.join();

    EXPECT_EQ(badResponses.load(), 0);
    EXPECT_GE(served.load(), 50);
    EXPECT_EQ(ts.server.activeConnections(), 0u);
}

TEST(HttpServerTest, StopWithoutStartIsSafe) {
    HttpServer server;
    server.stop(); // no-op
}

TEST(HttpServerTest, SlowlorisHeadersAnswered408AndClosed) {
    // A slowloris drips header bytes forever: every drip refreshes the idle
    // clock, so only the total-receive-time kill can catch it. The idle
    // timeout here is deliberately huge to prove which defense fired.
    ServerOptions options;
    options.readIdleTimeoutMs = 60'000;
    options.requestReadTimeoutMs = 300;
    TestServer ts(options);
    ts.start();

    RawConn conn(ts.port());
    ASSERT_TRUE(conn.connected());
    conn.send("GET /ping HTTP/1.1\r\n");
    const std::string drip = "X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    // Drip one byte every 20 ms — far inside the 60 s idle window — for half
    // the request-read window, then stop sending and wait for the verdict
    // (sending into the post-kill close would RST away the buffered 408).
    const auto start = std::chrono::steady_clock::now();
    std::size_t at = 0;
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(150)) {
        const char byte = drip[at % drip.size()];
        ++at;
        if (::send(conn.fd(), &byte, 1, MSG_NOSIGNAL) <= 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const std::string response = conn.readAll(); // until server close
    EXPECT_NE(response.find("408"), std::string::npos) << response;
    EXPECT_NE(response.find("request_timeout"), std::string::npos) << response;
    const double elapsedMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsedMs, 2000.0); // killed by the 300 ms window, not idle
    // The connection itself is reaped, not just answered.
    const auto reapDeadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (ts.server.activeConnections() != 0 &&
           std::chrono::steady_clock::now() < reapDeadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(ts.server.activeConnections(), 0u);
}

TEST(HttpServerTest, StalledReaderOfLargeResponseIsReaped) {
    // The mirror-image attack: request a large response and never drain it.
    // outPending stays true forever; the write-idle clock is refreshed by
    // whatever trickle the kernel accepts, so the total-write-time kill is
    // what must fire. writeIdleTimeoutMs is large to prove that.
    ServerOptions options;
    options.bindAddress = "127.0.0.1";
    options.port = 0;
    options.writeIdleTimeoutMs = 60'000;
    options.responseWriteTimeoutMs = 300;
    HttpServer server(options);
    const std::string big(8 * 1024 * 1024, 'x'); // >> socket buffers
    server.route("GET", "/big", [&big](const HttpRequest&) {
        return HttpResponse::text(200, big);
    });
    server.start();

    RawConn conn(server.port());
    ASSERT_TRUE(conn.connected());
    conn.send("GET /big HTTP/1.1\r\nHost: t\r\n\r\n");
    // Read nothing. The server must abandon the response and close within
    // the configured window (plus sweep granularity and scheduling slack).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.activeConnections() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.activeConnections(), 0u);
    server.stop();
}

TEST(HttpClientTest, ParsesUrls) {
    const net::HttpUrl u = net::parseHttpUrl("http://127.0.0.1:8080");
    EXPECT_EQ(u.host, "127.0.0.1");
    EXPECT_EQ(u.port, 8080);
    const net::HttpUrl withPath = net::parseHttpUrl("http://host:9/v1/query");
    EXPECT_EQ(withPath.host, "host");
    EXPECT_EQ(withPath.port, 9);
    EXPECT_THROW((void)net::parseHttpUrl("https://host:1"), ParseError);
    EXPECT_THROW((void)net::parseHttpUrl("http://host"), ParseError);
    EXPECT_THROW((void)net::parseHttpUrl("http://host:0"), ParseError);
    EXPECT_THROW((void)net::parseHttpUrl("http://host:abc"), ParseError);
}

TEST(HttpClientTest, ConnectionRefusedThrows) {
    HttpClient client("127.0.0.1", 1, /*timeoutMs=*/1000);
    EXPECT_THROW((void)client.get("/"), Error);
}

} // namespace
