#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_id.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "util/threadpool.hpp"

namespace lar::net {
namespace {

using Clock = std::chrono::steady_clock;

// epoll user-data values for the two non-connection fds; connection ids
// start above them and never repeat, so a completion that races a close
// simply misses its lookup instead of touching a reused fd.
constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = 1;

constexpr int kSweepIntervalMs = 50;
constexpr std::size_t kReadChunk = 16 * 1024;

double msSince(Clock::time_point t, Clock::time_point now) {
    return std::chrono::duration<double, std::milli>(now - t).count();
}

struct Metrics {
    obs::Counter& accepted;
    obs::Counter& rejected;
    obs::Gauge& active;
    obs::Counter& bytesRead;
    obs::Counter& bytesWritten;
    obs::Counter& parseErrors;
    obs::Counter& sheds;
    obs::Histogram& latencyMs;

    static Metrics& get() {
        static Metrics m{
            obs::Registry::global().counter(
                "lar_http_connections_accepted_total",
                "TCP connections accepted by larserved"),
            obs::Registry::global().counter(
                "lar_http_connections_rejected_total",
                "connections refused at accept (draining or at the "
                "connection cap)"),
            obs::Registry::global().gauge("lar_http_active_connections",
                                          "currently open HTTP connections"),
            obs::Registry::global().counter("lar_http_bytes_read_total",
                                            "request bytes read from sockets"),
            obs::Registry::global().counter(
                "lar_http_bytes_written_total",
                "response bytes written to sockets"),
            obs::Registry::global().counter(
                "lar_http_parse_errors_total",
                "requests rejected by the HTTP parser (4xx/5xx)"),
            obs::Registry::global().counter(
                "lar_http_sheds_total",
                "requests shed with 503 at the inflight cap"),
            obs::Registry::global().histogram(
                "lar_http_request_latency_ms",
                "wall time from first request byte to response flushed",
                obs::latencyBucketsMs()),
        };
        return m;
    }

    static obs::Counter& requests(int status) {
        return obs::Registry::global().counter(
            "lar_http_requests_total", "HTTP responses sent, by status code",
            {{"code", std::to_string(status)}});
    }
};

/// Resilience counters (server side of the lar_net_* family; the client
/// half lives in http_client.cpp).
struct NetMetrics {
    obs::Counter& resets;
    obs::Counter& readProgressTimeouts;
    obs::Counter& writeProgressTimeouts;
    obs::Counter& faultsInjected;

    static NetMetrics& get() {
        static NetMetrics m{
            obs::Registry::global().counter(
                "lar_net_resets_total",
                "connections dropped on a transport error mid-read or "
                "mid-write (ECONNRESET/EPIPE, organic or injected)"),
            obs::Registry::global().counter(
                "lar_net_read_progress_timeouts_total",
                "requests killed with 408 because they arrived too slowly "
                "(slowloris defense)"),
            obs::Registry::global().counter(
                "lar_net_write_progress_timeouts_total",
                "responses abandoned because the peer drained too slowly "
                "(stalled-reader defense)"),
            obs::Registry::global().counter(
                "lar_net_faults_injected_total",
                "socket faults fired by armed net.* injection sites"),
        };
        return m;
    }
};

struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string peer;

    enum class St { Reading, Handling, Writing } state = St::Reading;
    HttpParser parser;
    std::string inBuf; ///< bytes read but not yet consumed by the parser
    std::size_t inOff = 0;
    std::string outBuf;
    std::size_t outOff = 0;
    std::uint32_t events = 0; ///< epoll mask currently registered

    bool closeAfterWrite = false;
    bool continueSent = false;
    Clock::time_point lastActivity;
    /// Set when a response starts flushing; total-write-time clock for the
    /// stalled-reader kill (write-idle alone is defeated by slow drains).
    Clock::time_point writeStart;

    // Per-request bookkeeping for metrics and the access log.
    Clock::time_point requestStart;
    std::string method;
    std::string path;
    std::string traceId;            ///< request trace identity ("" pre-dispatch)
    std::size_t responseBytes = 0;  ///< serialized response size (wire bytes)
    int status = 0;

    explicit Connection(const HttpLimits& limits) : parser(limits) {}

    [[nodiscard]] bool outPending() const { return outOff < outBuf.size(); }
};

struct Completion {
    std::uint64_t connId = 0;
    HttpResponse response;
};

/// Splits "/a/b/c" on '/' into {"a","b","c"}. The leading empty segment is
/// dropped; a trailing slash yields a trailing empty segment, so "/a/" and
/// "/a" stay distinct (and a `{name}` segment, which requires non-empty,
/// never matches the trailing slash form).
std::vector<std::string> splitPathSegments(std::string_view path) {
    std::vector<std::string> segments;
    if (!path.empty() && path.front() == '/') path.remove_prefix(1);
    while (true) {
        const std::size_t slash = path.find('/');
        if (slash == std::string_view::npos) {
            segments.emplace_back(path);
            return segments;
        }
        segments.emplace_back(path.substr(0, slash));
        path.remove_prefix(slash + 1);
    }
}

/// True when `path` matches `pattern` segment-for-segment; `{name}`
/// segments capture into `params`.
bool matchSegments(const std::vector<std::string>& pattern,
                   const std::vector<std::string>& path,
                   HttpServer::RouteParams& params) {
    if (pattern.size() != path.size()) return false;
    for (std::size_t i = 0; i < pattern.size(); ++i) {
        const std::string& want = pattern[i];
        if (want.size() >= 2 && want.front() == '{' && want.back() == '}') {
            if (path[i].empty()) return false;
            params[want.substr(1, want.size() - 2)] = path[i];
        } else if (want != path[i]) {
            return false;
        }
    }
    return true;
}

} // namespace

struct HttpServer::Impl {
    struct Loop {
        Impl* impl = nullptr;
        int epfd = -1;
        int wakeFd = -1;
        std::thread thread;
        std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
        Clock::time_point lastSweep{};

        std::mutex completionMutex;
        std::vector<Completion> completions;
    };

    explicit Impl(const ServerOptions& options) : opts(options) {
        if (opts.ioThreads == 0) opts.ioThreads = 2;
        if (opts.handlerThreads == 0) {
            const unsigned hw = std::thread::hardware_concurrency();
            opts.handlerThreads = hw == 0 ? 2 : hw;
        }
        if (opts.maxInflight == 0) {
            opts.maxInflight = static_cast<std::size_t>(opts.handlerThreads) * 4;
        }
    }

    /// One pattern route: the pattern split into segments (a "{name}"
    /// segment matches any single non-empty path segment) plus its
    /// method→handler table.
    struct PatternRoute {
        std::vector<std::string> segments;
        std::map<std::string, ParamHandler> methods;
    };

    ServerOptions opts;
    std::map<std::string, std::map<std::string, Handler>> routes; // path→method
    std::vector<PatternRoute> patternRoutes;
    std::function<void()> onDrainBegin;
    std::function<void()> onGraceExpired;

    int listenFd = -1;
    std::uint16_t boundPort = 0;
    std::vector<std::unique_ptr<Loop>> loops;
    std::unique_ptr<util::ThreadPool> pool;

    std::atomic<bool> running{false};
    std::atomic<bool> draining{false};
    std::atomic<std::uint64_t> nextConnId{2};
    std::atomic<std::size_t> totalConns{0};
    std::atomic<std::size_t> inflight{0};

    // --- lifecycle -------------------------------------------------------

    void start();
    void beginDrain();
    void drainAndStop(int graceMs);
    void stop();
    bool waitForIdle(int graceMs) const;

    // --- event loop ------------------------------------------------------

    void runLoop(Loop& loop);
    void wake(Loop& loop);
    void acceptBurst(Loop& loop);
    void onConnEvent(Loop& loop, Connection& conn, std::uint32_t events);
    void onReadable(Loop& loop, Connection& conn);
    void processInput(Loop& loop, Connection& conn);
    void dispatch(Loop& loop, Connection& conn);
    void respondNow(Loop& loop, Connection& conn, HttpResponse response,
                    bool forceClose);
    void queueResponse(Loop& loop, Connection& conn, HttpResponse response);
    void writeSome(Loop& loop, Connection& conn);
    void finishResponse(Loop& loop, Connection& conn);
    void updateEvents(Loop& loop, Connection& conn);
    void drainCompletions(Loop& loop);
    void sweep(Loop& loop);
    void closeConn(Loop& loop, Connection& conn);
};

// --------------------------------------------------------------------------
// Lifecycle
// --------------------------------------------------------------------------

void HttpServer::Impl::start() {
    expects(!running.load(), "HttpServer::start: already started");
    expects(listenFd < 0, "HttpServer::start: not restartable");

    listenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd < 0) throw Error("socket: " + std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts.port);
    if (::inet_pton(AF_INET, opts.bindAddress.c_str(), &addr.sin_addr) != 1) {
        ::close(listenFd);
        listenFd = -1;
        throw Error("bad bind address: " + opts.bindAddress);
    }
    if (::bind(listenFd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd, 256) != 0) {
        const std::string what = std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        throw Error("bind/listen " + opts.bindAddress + ":" +
                    std::to_string(opts.port) + ": " + what);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listenFd, reinterpret_cast<sockaddr*>(&bound), &len);
    boundPort = ntohs(bound.sin_port);

    // Intern the lar_net_* family now so /metrics exposes the counters (at
    // zero) before the first reset/timeout, not only after one happened.
    (void)NetMetrics::get();

    pool = std::make_unique<util::ThreadPool>(opts.handlerThreads);
    running.store(true, std::memory_order_release);

    for (unsigned i = 0; i < opts.ioThreads; ++i) {
        auto loop = std::make_unique<Loop>();
        loop->impl = this;
        loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
        loop->wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        if (loop->epfd < 0 || loop->wakeFd < 0) {
            throw Error("epoll_create1/eventfd: " +
                        std::string(std::strerror(errno)));
        }
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLEXCLUSIVE;
        ev.data.u64 = kListenId;
        ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, listenFd, &ev);
        ev.events = EPOLLIN;
        ev.data.u64 = kWakeId;
        ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wakeFd, &ev);
        loop->lastSweep = Clock::now();
        loops.push_back(std::move(loop));
    }
    for (auto& loop : loops) {
        Loop* raw = loop.get();
        loop->thread = std::thread([this, raw] { runLoop(*raw); });
    }
    util::logLineJson(util::LogLevel::Info, "http_listen",
                      {{"addr", opts.bindAddress},
                       {"port", static_cast<std::int64_t>(boundPort)},
                       {"io_threads", static_cast<std::int64_t>(opts.ioThreads)},
                       {"handler_threads",
                        static_cast<std::int64_t>(opts.handlerThreads)}});
}

void HttpServer::Impl::beginDrain() {
    if (draining.exchange(true)) return;
    // The listen fd stays registered: acceptBurst sees draining and closes
    // new sockets immediately, so late connectors get a prompt EOF instead
    // of hanging in the kernel backlog until their timeout.
    util::logLineJson(util::LogLevel::Info, "http_drain_begin",
                      {{"active_connections",
                        static_cast<std::int64_t>(totalConns.load())}});
    if (onDrainBegin) onDrainBegin();
    for (auto& loop : loops) wake(*loop);
}

bool HttpServer::Impl::waitForIdle(int graceMs) const {
    const auto deadline = Clock::now() + std::chrono::milliseconds(graceMs);
    while (totalConns.load(std::memory_order_acquire) > 0 ||
           inflight.load(std::memory_order_acquire) > 0) {
        if (Clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

void HttpServer::Impl::drainAndStop(int graceMs) {
    beginDrain();
    if (!waitForIdle(graceMs)) {
        util::logLineJson(
            util::LogLevel::Info, "http_drain_grace_expired",
            {{"active_connections",
              static_cast<std::int64_t>(totalConns.load())},
             {"inflight", static_cast<std::int64_t>(inflight.load())}});
        if (onGraceExpired) onGraceExpired();
        waitForIdle(graceMs);
    }
    stop();
}

void HttpServer::Impl::stop() {
    if (!running.exchange(false)) return;
    // Handler pool first: its destructor joins, so every completion is
    // posted before the loops stop. Loops keep serving epoll until the
    // running flag (checked per iteration) goes false, but at this point we
    // only need them awake once more to exit.
    pool.reset();
    for (auto& loop : loops) wake(*loop);
    for (auto& loop : loops) {
        if (loop->thread.joinable()) loop->thread.join();
    }
    for (auto& loop : loops) {
        for (auto& [id, conn] : loop->conns) {
            (void)id;
            Metrics::get().active.add(-1.0);
            ::close(conn->fd);
        }
        loop->conns.clear();
        if (loop->wakeFd >= 0) ::close(loop->wakeFd);
        if (loop->epfd >= 0) ::close(loop->epfd);
    }
    loops.clear();
    totalConns.store(0);
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
    util::logLineJson(util::LogLevel::Info, "http_stopped", {});
}

// --------------------------------------------------------------------------
// Event loop
// --------------------------------------------------------------------------

void HttpServer::Impl::wake(Loop& loop) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(loop.wakeFd, &one, sizeof one);
}

void HttpServer::Impl::runLoop(Loop& loop) {
    std::vector<epoll_event> events(64);
    while (running.load(std::memory_order_acquire)) {
        const int n = ::epoll_wait(loop.epfd, events.data(),
                                   static_cast<int>(events.size()),
                                   kSweepIntervalMs);
        if (n < 0 && errno != EINTR) break;
        for (int i = 0; i < n; ++i) {
            const std::uint64_t id = events[static_cast<std::size_t>(i)].data.u64;
            const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
            if (id == kListenId) {
                acceptBurst(loop);
            } else if (id == kWakeId) {
                std::uint64_t drainBuf = 0;
                while (::read(loop.wakeFd, &drainBuf, sizeof drainBuf) > 0) {
                }
            } else {
                const auto it = loop.conns.find(id);
                if (it != loop.conns.end()) onConnEvent(loop, *it->second, mask);
            }
        }
        drainCompletions(loop);
        const Clock::time_point now = Clock::now();
        if (msSince(loop.lastSweep, now) >= kSweepIntervalMs) {
            loop.lastSweep = now;
            sweep(loop);
        }
    }
}

void HttpServer::Impl::acceptBurst(Loop& loop) {
    while (true) {
        sockaddr_in addr{};
        socklen_t len = sizeof addr;
        const int fd = ::accept4(listenFd, reinterpret_cast<sockaddr*>(&addr),
                                 &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED) continue;
            break; // EAGAIN, or transient accept failure — epoll re-arms us
        }
        if (draining.load(std::memory_order_acquire) ||
            totalConns.load(std::memory_order_acquire) >= opts.maxConnections) {
            Metrics::get().rejected.inc();
            ::close(fd);
            continue;
        }
        if (faultFires(kSiteAccept)) {
            NetMetrics::get().faultsInjected.inc();
            ::close(fd);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

        auto conn = std::make_unique<Connection>(opts.limits);
        conn->fd = fd;
        conn->id = nextConnId.fetch_add(1, std::memory_order_relaxed);
        conn->lastActivity = Clock::now();
        char ip[INET_ADDRSTRLEN] = {0};
        ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof ip);
        conn->peer = std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));

        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        conn->events = EPOLLIN;
        totalConns.fetch_add(1, std::memory_order_acq_rel);
        Metrics::get().accepted.inc();
        Metrics::get().active.add(1.0);
        loop.conns.emplace(conn->id, std::move(conn));
    }
}

void HttpServer::Impl::onConnEvent(Loop& loop, Connection& conn,
                                   std::uint32_t events) {
    if ((events & (EPOLLHUP | EPOLLERR)) != 0 &&
        (events & (EPOLLIN | EPOLLOUT)) == 0) {
        closeConn(loop, conn);
        return;
    }
    if ((events & EPOLLOUT) != 0) {
        writeSome(loop, conn);
        // writeSome may close or re-enter Reading; re-check via lookup-free
        // state below only if still alive.
        if (loop.conns.find(conn.id) == loop.conns.end()) return;
    }
    if ((events & EPOLLIN) != 0) onReadable(loop, conn);
}

void HttpServer::Impl::onReadable(Loop& loop, Connection& conn) {
    while (conn.state == Connection::St::Reading) {
        if (faultFires(kSiteRead)) { // injected ECONNRESET mid-read
            NetMetrics::get().faultsInjected.inc();
            NetMetrics::get().resets.inc();
            closeConn(loop, conn);
            return;
        }
        char buf[kReadChunk];
        std::size_t want = sizeof buf;
        if (faultFires(kSiteReadShort)) { // short read: 1 byte per recv
            NetMetrics::get().faultsInjected.inc();
            want = 1;
        }
        const ssize_t n = ::recv(conn.fd, buf, want, 0);
        if (n > 0) {
            Metrics::get().bytesRead.inc(static_cast<std::uint64_t>(n));
            conn.lastActivity = Clock::now();
            conn.inBuf.append(buf, static_cast<std::size_t>(n));
            processInput(loop, conn);
            if (static_cast<std::size_t>(n) < want) break;
            continue;
        }
        if (n == 0) { // peer closed
            closeConn(loop, conn);
            return;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        NetMetrics::get().resets.inc();
        closeConn(loop, conn);
        return;
    }
    if (loop.conns.find(conn.id) != loop.conns.end()) updateEvents(loop, conn);
}

void HttpServer::Impl::processInput(Loop& loop, Connection& conn) {
    while (conn.state == Connection::St::Reading && conn.inOff < conn.inBuf.size()) {
        const std::string_view view(conn.inBuf.data() + conn.inOff,
                                    conn.inBuf.size() - conn.inOff);
        std::size_t used = 0;
        const HttpParser::Status status = conn.parser.consume(view, used);
        conn.inOff += used;
        if (conn.inOff >= conn.inBuf.size()) {
            conn.inBuf.clear();
            conn.inOff = 0;
        }
        if (conn.requestStart == Clock::time_point{} && conn.parser.begun()) {
            conn.requestStart = Clock::now();
        }
        if (status == HttpParser::Status::NeedMore) {
            if (conn.parser.headersComplete() &&
                conn.parser.request().expectContinue && !conn.continueSent) {
                conn.continueSent = true;
                conn.outBuf.append("HTTP/1.1 100 Continue\r\n\r\n");
                writeSome(loop, conn);
                if (loop.conns.find(conn.id) == loop.conns.end()) return;
            }
            return;
        }
        if (status == HttpParser::Status::Failed) {
            Metrics::get().parseErrors.inc();
            conn.method = "-";
            conn.path = "-";
            respondNow(loop, conn,
                       HttpResponse::errorJson(conn.parser.errorStatus(),
                                               "bad_request",
                                               conn.parser.errorReason()),
                       /*forceClose=*/true);
            return;
        }
        dispatch(loop, conn); // Complete — leaves Reading state
    }
}

void HttpServer::Impl::dispatch(Loop& loop, Connection& conn) {
    HttpRequest request = std::move(conn.parser.request());
    conn.parser.reset();
    conn.state = Connection::St::Handling;
    if (conn.requestStart == Clock::time_point{}) {
        conn.requestStart = Clock::now();
    }
    conn.method = request.method;
    conn.path = std::string(request.path());
    // Trace identity: adopt the client's X-Lar-Trace-Id when it is sane,
    // mint otherwise. Set before any response path so even 404/405/503
    // answers echo an id the client can quote.
    const std::string* suppliedId = request.header("X-Lar-Trace-Id");
    request.traceId = suppliedId != nullptr && obs::validTraceId(*suppliedId)
                          ? *suppliedId
                          : obs::mintTraceId();
    conn.traceId = request.traceId;
    conn.closeAfterWrite =
        !request.keepAlive || draining.load(std::memory_order_acquire);

    // Exact routes first, then pattern routes in registration order. Either
    // kind contributes to the Allow set when the path matches but the
    // method does not.
    const Handler* exact = nullptr;
    const ParamHandler* pattern = nullptr;
    RouteParams params;
    std::string allow;
    bool pathKnown = false;
    const auto appendAllow = [&allow](const auto& methods) {
        for (const auto& [m, h] : methods) {
            (void)h;
            if (!allow.empty()) allow += ", ";
            allow += m;
        }
    };

    const auto pathIt = routes.find(conn.path);
    if (pathIt != routes.end()) {
        pathKnown = true;
        const auto methodIt = pathIt->second.find(request.method);
        if (methodIt != pathIt->second.end()) {
            exact = &methodIt->second;
        } else {
            appendAllow(pathIt->second);
        }
    }
    if (exact == nullptr && !patternRoutes.empty()) {
        const std::vector<std::string> segments =
            splitPathSegments(conn.path);
        for (const PatternRoute& candidate : patternRoutes) {
            RouteParams captured;
            if (!matchSegments(candidate.segments, segments, captured)) {
                continue;
            }
            pathKnown = true;
            const auto methodIt = candidate.methods.find(request.method);
            if (methodIt != candidate.methods.end()) {
                pattern = &methodIt->second;
                params = std::move(captured);
                break;
            }
            appendAllow(candidate.methods);
        }
    }
    if (exact == nullptr && pattern == nullptr) {
        if (!pathKnown) {
            respondNow(loop, conn,
                       HttpResponse::errorJson(404, "not_found",
                                               "no such endpoint: " +
                                                   conn.path),
                       false);
            return;
        }
        HttpResponse resp = HttpResponse::errorJson(
            405, "method_not_allowed",
            request.method + " not supported on " + conn.path);
        resp.extraHeaders.push_back({"Allow", std::move(allow)});
        respondNow(loop, conn, std::move(resp), false);
        return;
    }

    // Backpressure: the handler pool is bounded; past the inflight cap we
    // answer 503 from the event loop without queueing anything.
    std::size_t cur = inflight.load(std::memory_order_acquire);
    while (true) {
        if (cur >= opts.maxInflight) {
            Metrics::get().sheds.inc();
            HttpResponse resp = HttpResponse::errorJson(
                503, "overloaded", "server at capacity; retry shortly");
            resp.extraHeaders.push_back({"Retry-After", "1"});
            respondNow(loop, conn, std::move(resp), false);
            return;
        }
        if (inflight.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_acq_rel)) {
            break;
        }
    }

    // Bind the chosen handler (plus any captured params) into a plain
    // Handler; the pointed-to handlers live in the route tables, which are
    // immutable after start().
    Handler bound;
    if (exact != nullptr) {
        bound = [exact](const HttpRequest& r) { return (*exact)(r); };
    } else {
        bound = [pattern, params = std::move(params)](const HttpRequest& r) {
            return (*pattern)(r, params);
        };
    }
    Loop* loopPtr = &loop;
    const std::uint64_t connId = conn.id;
    (void)pool->submit([this, bound = std::move(bound), loopPtr, connId,
                        request = std::move(request)]() mutable {
        HttpResponse response;
        try {
            // Every log line the handler (and the reasoning stack below it)
            // emits on this thread carries the request's trace id.
            const util::ScopedLogTraceId logScope(request.traceId);
            response = bound(request);
        } catch (const std::exception& e) {
            response = HttpResponse::errorJson(500, "internal", e.what());
        } catch (...) {
            response = HttpResponse::errorJson(500, "internal",
                                               "unknown handler error");
        }
        inflight.fetch_sub(1, std::memory_order_acq_rel);
        {
            const std::lock_guard<std::mutex> lock(loopPtr->completionMutex);
            loopPtr->completions.push_back(
                Completion{connId, std::move(response)});
        }
        wake(*loopPtr);
    });
}

void HttpServer::Impl::drainCompletions(Loop& loop) {
    std::vector<Completion> ready;
    {
        const std::lock_guard<std::mutex> lock(loop.completionMutex);
        ready.swap(loop.completions);
    }
    for (Completion& completion : ready) {
        const auto it = loop.conns.find(completion.connId);
        if (it == loop.conns.end()) continue; // connection died meanwhile
        Connection& conn = *it->second;
        if (conn.state != Connection::St::Handling) continue;
        queueResponse(loop, conn, std::move(completion.response));
    }
}

void HttpServer::Impl::respondNow(Loop& loop, Connection& conn,
                                  HttpResponse response, bool forceClose) {
    if (forceClose) conn.closeAfterWrite = true;
    if (conn.state == Connection::St::Reading) {
        conn.state = Connection::St::Handling; // direct response, no handler
    }
    queueResponse(loop, conn, std::move(response));
}

void HttpServer::Impl::queueResponse(Loop& loop, Connection& conn,
                                     HttpResponse response) {
    // Responses during drain always close: the client must reconnect to a
    // live instance rather than hold a socket into a stopping one.
    if (draining.load(std::memory_order_acquire)) conn.closeAfterWrite = true;
    conn.status = response.status;
    // Echo the trace id so clients (and any proxy in between) can join their
    // view of the request to server logs and the flight recorder.
    if (!conn.traceId.empty())
        response.extraHeaders.push_back({"X-Lar-Trace-Id", conn.traceId});
    const std::size_t outBefore = conn.outBuf.size();
    serializeResponse(response, !conn.closeAfterWrite, conn.outBuf);
    conn.responseBytes = conn.outBuf.size() - outBefore;
    conn.state = Connection::St::Writing;
    conn.writeStart = Clock::now();
    writeSome(loop, conn);
}

void HttpServer::Impl::writeSome(Loop& loop, Connection& conn) {
    while (conn.outPending()) {
        if (faultFires(kSiteWrite)) { // injected EPIPE/ECONNRESET mid-write
            NetMetrics::get().faultsInjected.inc();
            NetMetrics::get().resets.inc();
            closeConn(loop, conn);
            return;
        }
        std::size_t len = conn.outBuf.size() - conn.outOff;
        bool partial = false;
        if (len > 1 && faultFires(kSiteWritePartial)) { // 1-byte partial write
            NetMetrics::get().faultsInjected.inc();
            len = 1;
            partial = true;
        }
        const ssize_t n = ::send(conn.fd, conn.outBuf.data() + conn.outOff,
                                 len, MSG_NOSIGNAL);
        if (n > 0) {
            Metrics::get().bytesWritten.inc(static_cast<std::uint64_t>(n));
            conn.outOff += static_cast<std::size_t>(n);
            conn.lastActivity = Clock::now();
            if (partial) {
                // Resume through EPOLLOUT like a genuine partial write, so
                // the injected fault exercises the real resumption path.
                updateEvents(loop, conn);
                return;
            }
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            updateEvents(loop, conn);
            return;
        }
        NetMetrics::get().resets.inc();
        closeConn(loop, conn); // EPIPE/ECONNRESET/...
        return;
    }
    conn.outBuf.clear();
    conn.outOff = 0;
    if (conn.state == Connection::St::Writing) {
        finishResponse(loop, conn);
    } else {
        updateEvents(loop, conn); // flushed a 100-continue while still Reading
    }
}

void HttpServer::Impl::finishResponse(Loop& loop, Connection& conn) {
    const Clock::time_point now = Clock::now();
    const double ms = conn.requestStart == Clock::time_point{}
                          ? 0.0
                          : msSince(conn.requestStart, now);
    Metrics::requests(conn.status).inc();
    Metrics::get().latencyMs.observe(ms);
    if (opts.accessLog) {
        util::logLineJson(util::LogLevel::Info, "http_request",
                          {{"remote", conn.peer},
                           {"method", conn.method},
                           {"path", conn.path},
                           {"status", conn.status},
                           {"bytes", static_cast<std::uint64_t>(
                                         conn.responseBytes)},
                           {"ms", ms},
                           {"trace_id", conn.traceId}});
    }
    if (conn.closeAfterWrite) {
        closeConn(loop, conn);
        return;
    }
    conn.state = Connection::St::Reading;
    conn.continueSent = false;
    conn.requestStart = Clock::time_point{};
    conn.writeStart = Clock::time_point{};
    conn.method.clear();
    conn.path.clear();
    conn.traceId.clear();
    conn.responseBytes = 0;
    conn.status = 0;
    conn.lastActivity = now;
    processInput(loop, conn); // pipelined next request may already be buffered
    if (loop.conns.find(conn.id) != loop.conns.end()) updateEvents(loop, conn);
}

void HttpServer::Impl::updateEvents(Loop& loop, Connection& conn) {
    // The mask mirrors the connection state: EPOLLIN only while Reading (a
    // level-triggered EPOLLIN during Handling would spin the loop), EPOLLOUT
    // only while bytes wait in outBuf.
    std::uint32_t want = 0;
    if (conn.state == Connection::St::Reading) want |= EPOLLIN;
    if (conn.outPending()) want |= EPOLLOUT;
    if (want == conn.events) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn.id;
    ::epoll_ctl(loop.epfd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.events = want;
}

void HttpServer::Impl::sweep(Loop& loop) {
    const Clock::time_point now = Clock::now();
    const bool drainingNow = draining.load(std::memory_order_acquire);
    std::vector<std::uint64_t> doomed;
    std::vector<std::uint64_t> slowRequests; // answered 408, then closed
    for (auto& [id, connPtr] : loop.conns) {
        (void)id;
        Connection& conn = *connPtr;
        const double idleMs = msSince(conn.lastActivity, now);
        if (conn.outPending()) {
            // Total-write-time kill beats the idle check: a reader draining
            // one byte per sweep keeps idleMs near zero forever.
            if (opts.responseWriteTimeoutMs > 0 &&
                conn.writeStart != Clock::time_point{} &&
                msSince(conn.writeStart, now) >=
                    static_cast<double>(opts.responseWriteTimeoutMs)) {
                NetMetrics::get().writeProgressTimeouts.inc();
                doomed.push_back(conn.id);
                continue;
            }
            if (idleMs >= static_cast<double>(opts.writeIdleTimeoutMs)) {
                doomed.push_back(conn.id);
                continue;
            }
        }
        if (conn.state == Connection::St::Reading && !conn.outPending()) {
            // Total-receive-time kill: a slowloris dripping header bytes
            // refreshes lastActivity on every drip, so only the clock that
            // started at the request's first byte can catch it.
            if (opts.requestReadTimeoutMs > 0 && conn.parser.begun() &&
                conn.requestStart != Clock::time_point{} &&
                msSince(conn.requestStart, now) >=
                    static_cast<double>(opts.requestReadTimeoutMs)) {
                NetMetrics::get().readProgressTimeouts.inc();
                slowRequests.push_back(conn.id);
                continue;
            }
            if (drainingNow && !conn.parser.begun() &&
                idleMs >= static_cast<double>(opts.drainIdleCloseMs)) {
                doomed.push_back(conn.id);
            } else if (idleMs >= static_cast<double>(opts.readIdleTimeoutMs)) {
                doomed.push_back(conn.id);
            }
        }
    }
    for (const std::uint64_t id : doomed) {
        const auto it = loop.conns.find(id);
        if (it != loop.conns.end()) closeConn(loop, *it->second);
    }
    for (const std::uint64_t id : slowRequests) {
        const auto it = loop.conns.find(id);
        if (it == loop.conns.end()) continue;
        Connection& conn = *it->second;
        conn.method = conn.method.empty() ? "-" : conn.method;
        conn.path = conn.path.empty() ? "-" : conn.path;
        respondNow(loop, conn,
                   HttpResponse::errorJson(408, "request_timeout",
                                           "request not received within " +
                                               std::to_string(
                                                   opts.requestReadTimeoutMs) +
                                               " ms"),
                   /*forceClose=*/true);
    }
}

void HttpServer::Impl::closeConn(Loop& loop, Connection& conn) {
    ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    Metrics::get().active.add(-1.0);
    totalConns.fetch_sub(1, std::memory_order_acq_rel);
    loop.conns.erase(conn.id); // destroys conn — must be last
}

// --------------------------------------------------------------------------
// Public surface
// --------------------------------------------------------------------------

HttpServer::HttpServer(const ServerOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(std::string method, std::string path, Handler handler) {
    expects(!impl_->running.load(), "HttpServer::route: server already started");
    impl_->routes[std::move(path)][std::move(method)] = std::move(handler);
}

void HttpServer::route(std::string method, std::string pattern,
                       ParamHandler handler) {
    expects(!impl_->running.load(), "HttpServer::route: server already started");
    std::vector<std::string> segments = splitPathSegments(pattern);
    for (Impl::PatternRoute& existing : impl_->patternRoutes) {
        if (existing.segments == segments) {
            existing.methods[std::move(method)] = std::move(handler);
            return;
        }
    }
    Impl::PatternRoute fresh;
    fresh.segments = std::move(segments);
    fresh.methods[std::move(method)] = std::move(handler);
    impl_->patternRoutes.push_back(std::move(fresh));
}

void HttpServer::setDrainHooks(std::function<void()> onDrainBegin,
                               std::function<void()> onGraceExpired) {
    impl_->onDrainBegin = std::move(onDrainBegin);
    impl_->onGraceExpired = std::move(onGraceExpired);
}

void HttpServer::start() { impl_->start(); }

std::uint16_t HttpServer::port() const { return impl_->boundPort; }

void HttpServer::beginDrain() { impl_->beginDrain(); }

bool HttpServer::draining() const {
    return impl_->draining.load(std::memory_order_acquire);
}

void HttpServer::drainAndStop(int graceMs) { impl_->drainAndStop(graceMs); }

void HttpServer::stop() { impl_->stop(); }

std::size_t HttpServer::activeConnections() const {
    return impl_->totalConns.load(std::memory_order_acquire);
}

} // namespace lar::net
