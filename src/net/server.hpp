// An epoll-driven, multi-threaded HTTP/1.1 server.
//
// larserved's network engine, built directly on Linux epoll — no external
// dependencies. The threading model separates I/O from work:
//
//  * `ioThreads` event loops, each with its own epoll instance. The listen
//    socket is registered in every loop with EPOLLEXCLUSIVE, so the kernel
//    wakes exactly one loop per new connection and each loop owns the
//    connections it accepted for their whole life — connection state is
//    single-threaded by construction, no locks on the I/O hot path.
//  * a handler pool (util::ThreadPool) runs the registered route handlers,
//    so a slow handler (a reasoning query taking seconds) never stalls the
//    event loops. Results travel back to the owning loop over a tiny
//    mutex+eventfd completion queue.
//
// Backpressure is explicit and bounded everywhere: at most `maxInflight`
// requests may be inside handlers (beyond that the loop answers 503 +
// Retry-After without touching the pool), at most `maxConnections` sockets
// are accepted, and the parser's HttpLimits bound per-request buffering.
// The server never queues unboundedly on behalf of a client.
//
// Graceful drain (SIGTERM path): beginDrain() stops accepting and marks the
// server draining (readyz flips); in-flight requests finish and responses
// carry `Connection: close`; idle keep-alive connections are closed after a
// short grace. drainAndStop() waits for connections to reach zero, invoking
// the grace hook (query cancellation) if they do not, then stops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/http.hpp"

namespace lar::net {

struct ServerOptions {
    std::string bindAddress = "127.0.0.1";
    /// TCP port; 0 asks the kernel for an ephemeral one (see port()).
    std::uint16_t port = 0;
    /// Event-loop threads (each one epoll instance); 0 = 2.
    unsigned ioThreads = 0;
    /// Handler-pool threads; 0 = hardware concurrency.
    unsigned handlerThreads = 0;
    /// Requests allowed inside handlers at once; beyond this the server
    /// sheds with 503 + Retry-After instead of queueing. 0 = 4 × the
    /// handler-pool width.
    std::size_t maxInflight = 0;
    /// Close a connection idle this long while awaiting (more of) a request.
    int readIdleTimeoutMs = 60'000;
    /// Close a connection that has not accepted response bytes this long.
    int writeIdleTimeoutMs = 30'000;
    /// Kill a request that has been ARRIVING longer than this, answering 408
    /// (total receive time, first byte to complete parse). Idle timeouts
    /// alone are defeated by a slowloris client dripping one byte per
    /// second — every drip refreshes the idle clock; this one it cannot
    /// refresh. 0 disables.
    int requestReadTimeoutMs = 30'000;
    /// Kill a response that has been FLUSHING longer than this (total write
    /// time). The write-idle timeout alone is defeated by a reader draining
    /// one byte per second. 0 disables.
    int responseWriteTimeoutMs = 30'000;
    /// While draining: grace before idle keep-alive connections are closed.
    int drainIdleCloseMs = 100;
    /// Accepted-socket cap; past it new connections are closed immediately.
    std::size_t maxConnections = 4096;
    HttpLimits limits;
    /// Emit one structured JSON log line per request (util::logLineJson,
    /// Info level — invisible under the default Warn threshold).
    bool accessLog = true;
};

class HttpServer {
public:
    /// Runs on the handler pool. Anything thrown becomes a 500 with the
    /// exception's what() in the error body.
    using Handler = std::function<HttpResponse(const HttpRequest&)>;

    /// Values captured from `{name}` segments of a pattern route, keyed by
    /// the name inside the braces.
    using RouteParams = std::map<std::string, std::string>;
    using ParamHandler =
        std::function<HttpResponse(const HttpRequest&, const RouteParams&)>;

    explicit HttpServer(const ServerOptions& options = {});
    ~HttpServer(); ///< stop()s if still running

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /// Registers a handler for exact (method, path) — no patterns. An
    /// unknown path answers 404; a known path with the wrong method answers
    /// 405 with an Allow header. Call before start().
    void route(std::string method, std::string path, Handler handler);

    /// Registers a handler for (method, pattern) where any path segment may
    /// be `{name}` — it matches exactly one non-empty segment, captured into
    /// the RouteParams under `name` (e.g. "/v1/session/{id}/ask"). Exact
    /// routes win over patterns; among patterns the first registered match
    /// wins. A pattern match with the wrong method answers 405 just like an
    /// exact route. Call before start().
    void route(std::string method, std::string pattern, ParamHandler handler);

    /// Hooks into the application for drain: `onDrainBegin` runs inside
    /// beginDrain() (larserved: Service::beginDrain, so queued queries
    /// shed); `onGraceExpired` runs when drainAndStop()'s first grace
    /// period ends with connections still open (larserved:
    /// Service::cancelActive, so stuck queries return Cancelled).
    void setDrainHooks(std::function<void()> onDrainBegin,
                       std::function<void()> onGraceExpired);

    /// Binds, listens, and spawns the event loops + handler pool.
    /// Throws lar::Error when the socket cannot be bound.
    void start();

    /// The bound port (useful with options.port == 0). Valid after start().
    [[nodiscard]] std::uint16_t port() const;

    /// Stops accepting, flips draining() (readyz), runs the drain-begin
    /// hook, and lets in-flight work finish. Idempotent, one-way.
    void beginDrain();
    [[nodiscard]] bool draining() const;

    /// beginDrain(), then wait up to `graceMs` for every connection to
    /// close; if some remain, run the grace-expired hook and wait another
    /// `graceMs`; finally stop(). The SIGTERM sequence.
    void drainAndStop(int graceMs);

    /// Immediate shutdown: joins the handler pool and event loops, closes
    /// every socket. In-flight requests are abandoned; prefer drainAndStop.
    void stop();

    [[nodiscard]] std::size_t activeConnections() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace lar::net
