// A deadline-budgeted, retrying HTTP/1.1 client for larctl --url, tests and
// benches.
//
// One HttpClient owns one keep-alive connection to one host:port and issues
// requests sequentially. Responses are parsed with the same strictness tier
// as the server (Content-Length or chunked, bounded header block).
//
// Every request runs under one end-to-end deadline (`timeoutMs` at
// construction): connect, send, receive, transparent re-dials and retry
// backoff all share that single budget — a request can never block longer
// than its deadline plus scheduling noise, no matter how many attempts it
// takes. Failures — refused connection, reset, deadline exceeded, malformed
// response — throw lar::Error (TimeoutError for the deadline). A stale
// keep-alive connection is transparently re-dialed within the same budget.
//
// Retries are explicit policy (RetryOptions, default off — one attempt):
// bounded attempts with exponential backoff and full jitter; 429/503
// responses are retried honoring Retry-After when the budget allows;
// transport errors are retried only for idempotent requests or requests
// whose bytes never reached the wire, so a non-idempotent request can never
// be executed twice by this client.
//
// Not thread-safe; give each thread its own client.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.hpp"
#include "util/error.hpp"

namespace lar::net {

/// Thrown when a request's end-to-end deadline expires before a complete
/// response arrived (connect + send + receive + retries share one budget).
class TimeoutError : public Error {
public:
    explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// Parsed form of "http://host:port" (path suffix allowed and ignored).
/// Throws lar::ParseError on anything else (https, missing port, ...).
struct HttpUrl {
    std::string host;
    std::uint16_t port = 0;
};
[[nodiscard]] HttpUrl parseHttpUrl(std::string_view url);

struct ClientResponse {
    int status = 0;
    std::vector<HttpHeader> headers;
    std::string body;

    [[nodiscard]] const std::string* header(std::string_view name) const;
};

/// Bounded retry policy, applied per request. Mirrors the semantics of
/// reason::RetryPolicy one layer down: a fixed attempt budget, retries
/// only when they cannot change the answer (idempotent or never-sent), and
/// deterministic randomness via an explicit seed.
struct RetryOptions {
    /// Total attempts per request (1 = no retry). Further attempts run only
    /// while the end-to-end deadline has budget left. A 429/503 (the
    /// server's shed path: not executed, so safe for any method) is retried
    /// after its Retry-After when present, else after backoff; when that
    /// wait would overrun the deadline the shed response is returned as-is.
    int maxAttempts = 1;
    /// Exponential backoff with full jitter between attempts: sleep a
    /// uniform draw from [0, min(maxBackoffMs, baseBackoffMs << attempt)].
    int baseBackoffMs = 50;
    int maxBackoffMs = 2'000;
    /// Seed for the jitter stream (deterministic backoff in tests).
    std::uint64_t seed = 0;
};

/// Per-client tallies of the resilience machinery (also exported process-
/// wide as lar_net_client_* metrics).
struct ClientStats {
    std::uint64_t retries = 0;    ///< attempts after the first
    std::uint64_t redials = 0;    ///< transparent stale-connection re-dials
    std::uint64_t shedWaits = 0;  ///< 429/503 waits (Retry-After or backoff)
};

class HttpClient {
public:
    /// Does not connect yet; the first request dials. `timeoutMs` is the
    /// END-TO-END deadline of each request (not per syscall): connect +
    /// send + receive + retries together.
    HttpClient(std::string host, std::uint16_t port, int timeoutMs = 30'000);
    ~HttpClient();

    HttpClient(const HttpClient&) = delete;
    HttpClient& operator=(const HttpClient&) = delete;

    /// Issues one request and blocks for the full response (throws
    /// lar::Error on connect/send/receive failure, TimeoutError once the
    /// deadline expires).
    ClientResponse get(const std::string& path);
    ClientResponse post(const std::string& path, std::string body,
                        const std::string& contentType = "application/json");
    ClientResponse del(const std::string& path);

    /// Drops the kept-alive connection (next request re-dials).
    void disconnect();

    /// Adds a header to every subsequent request (e.g. X-Lar-Trace-Id so a
    /// client-chosen trace identity follows the request through the server).
    /// Setting a name again replaces the previous value; "" removes it.
    void setHeader(std::string_view name, std::string_view value);

    /// Replaces the retry policy for subsequent requests.
    void setRetryOptions(const RetryOptions& options);
    [[nodiscard]] const RetryOptions& retryOptions() const { return retry_; }

    /// Running tallies since construction.
    [[nodiscard]] const ClientStats& stats() const { return stats_; }

private:
    ClientResponse roundTrip(const std::string& method, const std::string& path,
                             const std::string& body,
                             const std::string& contentType);
    /// One attempt on the kept-alive connection: dial if needed, send,
    /// receive — all bounded by `deadline`. Transparently re-dials once on
    /// a stale connection (send failure, or response EOF before any bytes
    /// on a reused connection when `idempotent`). Sets `sentAny` the moment
    /// request bytes hit a socket that was not re-dialed away.
    ClientResponse attemptOnce(const std::string& request,
                               std::chrono::steady_clock::time_point deadline,
                               bool idempotent, bool& sentAny);
    /// Dials a fresh socket (per-syscall timeouts clamped to the remaining
    /// budget). Consults the net.connect fault site.
    void dial(std::chrono::steady_clock::time_point deadline);
    /// Sends all of `data`; false on transport failure (errno set), throws
    /// TimeoutError once the deadline expires.
    bool sendAll(std::string_view data,
                 std::chrono::steady_clock::time_point deadline);
    /// Receives and parses one response; `received` counts response bytes
    /// seen (0 distinguishes the stale keep-alive EOF race from a
    /// mid-response failure).
    ClientResponse receive(std::chrono::steady_clock::time_point deadline,
                           std::size_t& received);
    int backoffMs(int attempt);

    std::string host_;
    std::uint16_t port_;
    int timeoutMs_;
    int fd_ = -1;
    std::string leftover_; ///< bytes read past the previous response
    std::vector<HttpHeader> defaultHeaders_; ///< sent with every request
    RetryOptions retry_;
    ClientStats stats_;
    std::uint64_t jitterState_;
};

} // namespace lar::net
