#include "net/http_client.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lar::net {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxResponseHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxResponseBodyBytes = 256 * 1024 * 1024;

/// Process-wide tallies of the client resilience machinery, alongside the
/// per-instance ClientStats (a fleet of clients shares these).
struct ClientMetrics {
    obs::Counter& retries;
    obs::Counter& redials;
    obs::Counter& shedWaits;
    obs::Counter& deadlineTimeouts;

    static ClientMetrics& get() {
        static ClientMetrics m{
            obs::Registry::global().counter(
                "lar_net_client_retries_total",
                "HttpClient request attempts after the first"),
            obs::Registry::global().counter(
                "lar_net_client_redials_total",
                "transparent re-dials of stale keep-alive connections"),
            obs::Registry::global().counter(
                "lar_net_client_shed_waits_total",
                "429/503 responses waited out (Retry-After or backoff)"),
            obs::Registry::global().counter(
                "lar_net_client_deadline_timeouts_total",
                "requests abandoned at their end-to-end deadline"),
        };
        return m;
    }
};

[[noreturn]] void throwErrno(const std::string& what) {
    throw Error(what + ": " + std::strerror(errno));
}

[[noreturn]] void throwTimeout(const std::string& what) {
    ClientMetrics::get().deadlineTimeouts.inc();
    throw TimeoutError(what + ": request deadline exceeded");
}

int remainingMs(Clock::time_point deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return 0;
    return left > 1'000'000'000 ? 1'000'000'000 : static_cast<int>(left);
}

/// Clamps this socket's per-syscall timeouts to the remaining budget, so no
/// single recv/send/connect can outlive the request deadline. Returns false
/// when the budget is already gone.
bool armSocketDeadline(int fd, Clock::time_point deadline) {
    const int left = remainingMs(deadline);
    if (left <= 0) return false;
    timeval tv{};
    tv.tv_sec = left / 1000;
    tv.tv_usec = (left % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    return true;
}

std::string_view trimView(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
        s.remove_prefix(1);
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
        s.remove_suffix(1);
    }
    return s;
}

/// Retry-After delta-seconds (the only form larserved emits); nullopt for
/// absent or HTTP-date values.
int retryAfterMs(const ClientResponse& response) {
    const std::string* header = response.header("Retry-After");
    if (header == nullptr) return -1;
    char* end = nullptr;
    const long seconds = std::strtol(header->c_str(), &end, 10);
    if (end == header->c_str() || *end != '\0' || seconds < 0) return -1;
    return seconds > 3'600 ? 3'600'000 : static_cast<int>(seconds) * 1000;
}

} // namespace

HttpUrl parseHttpUrl(std::string_view url) {
    constexpr std::string_view scheme = "http://";
    if (url.substr(0, scheme.size()) != scheme) {
        throw ParseError("URL must start with http:// : " + std::string(url));
    }
    std::string_view rest = url.substr(scheme.size());
    const std::size_t slash = rest.find('/');
    if (slash != std::string_view::npos) rest = rest.substr(0, slash);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 == rest.size()) {
        throw ParseError("URL must be http://host:port : " + std::string(url));
    }
    HttpUrl out;
    out.host = std::string(rest.substr(0, colon));
    const std::string portText(rest.substr(colon + 1));
    char* end = nullptr;
    const long port = std::strtol(portText.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port <= 0 || port > 65535) {
        throw ParseError("bad port in URL: " + std::string(url));
    }
    out.port = static_cast<std::uint16_t>(port);
    return out;
}

const std::string* ClientResponse::header(std::string_view name) const {
    for (const HttpHeader& h : headers) {
        if (caseEquals(h.name, name)) return &h.value;
    }
    return nullptr;
}

HttpClient::HttpClient(std::string host, std::uint16_t port, int timeoutMs)
    : host_(std::move(host)),
      port_(port),
      timeoutMs_(timeoutMs),
      jitterState_(retry_.seed) {}

HttpClient::~HttpClient() { disconnect(); }

void HttpClient::disconnect() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    leftover_.clear();
}

void HttpClient::setHeader(std::string_view name, std::string_view value) {
    for (auto it = defaultHeaders_.begin(); it != defaultHeaders_.end(); ++it) {
        if (caseEquals(it->name, name)) {
            if (value.empty())
                defaultHeaders_.erase(it);
            else
                it->value = std::string(value);
            return;
        }
    }
    if (!value.empty())
        defaultHeaders_.push_back({std::string(name), std::string(value)});
}

void HttpClient::setRetryOptions(const RetryOptions& options) {
    expects(options.maxAttempts >= 1,
            "RetryOptions: maxAttempts must be at least 1");
    expects(options.baseBackoffMs >= 0 && options.maxBackoffMs >= 0,
            "RetryOptions: backoff must be non-negative");
    retry_ = options;
    jitterState_ = options.seed;
}

void HttpClient::dial(Clock::time_point deadline) {
    disconnect();
    if (remainingMs(deadline) <= 0) throwTimeout("connect " + host_);
    if (faultFires(kSiteConnect)) {
        errno = ECONNREFUSED;
        throwErrno("connect " + host_ + " (injected)");
    }
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* result = nullptr;
    const std::string portText = std::to_string(port_);
    const int rc = ::getaddrinfo(host_.c_str(), portText.c_str(), &hints,
                                 &result);
    if (rc != 0) {
        throw Error("resolve " + host_ + ": " + ::gai_strerror(rc));
    }
    int lastErrno = ECONNREFUSED;
    for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            lastErrno = errno;
            continue;
        }
        // SO_SNDTIMEO also bounds a blocking connect() on Linux, so the dial
        // itself cannot overrun the request deadline.
        if (!armSocketDeadline(fd, deadline)) {
            ::close(fd);
            ::freeaddrinfo(result);
            throwTimeout("connect " + host_);
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            fd_ = fd;
            break;
        }
        lastErrno = errno;
        ::close(fd);
    }
    ::freeaddrinfo(result);
    if (fd_ < 0) {
        if ((lastErrno == EINPROGRESS || lastErrno == EAGAIN ||
             lastErrno == EWOULDBLOCK) &&
            remainingMs(deadline) <= 0) {
            throwTimeout("connect " + host_);
        }
        errno = lastErrno;
        throwErrno("connect " + host_ + ":" + portText);
    }
}

bool HttpClient::sendAll(std::string_view data, Clock::time_point deadline) {
    std::size_t off = 0;
    while (off < data.size()) {
        if (!armSocketDeadline(fd_, deadline)) {
            disconnect();
            throwTimeout("send " + host_);
        }
        const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            disconnect();
            throwTimeout("send " + host_);
        }
        return false;
    }
    return true;
}

ClientResponse HttpClient::receive(Clock::time_point deadline,
                                   std::size_t& received) {
    ClientResponse response;
    std::string buf = std::move(leftover_);
    leftover_.clear();
    received = buf.size();

    // One bounded recv; appends to buf and bumps `received`, returns false
    // on EOF, throws on error or deadline.
    const auto recvSome = [&](const char* what) -> bool {
        char chunk[16384];
        while (true) {
            if (!armSocketDeadline(fd_, deadline)) {
                disconnect();
                throwTimeout(std::string(what) + " " + host_);
            }
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n > 0) {
                buf.append(chunk, static_cast<std::size_t>(n));
                received += static_cast<std::size_t>(n);
                return true;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n == 0) return false;
            disconnect();
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                throwTimeout(std::string(what) + " " + host_);
            }
            throwErrno(std::string(what) + " " + host_);
        }
    };

    // Headers: accumulate until the blank line.
    std::size_t headerEnd = std::string::npos;
    while (true) {
        headerEnd = buf.find("\r\n\r\n");
        if (headerEnd != std::string::npos) break;
        if (buf.size() > kMaxResponseHeaderBytes) {
            disconnect();
            throw Error("response header block too large");
        }
        if (!recvSome("recv")) {
            disconnect();
            throw Error("connection closed mid-response");
        }
    }

    const std::string_view head(buf.data(), headerEnd);
    std::size_t lineEnd = head.find("\r\n");
    if (lineEnd == std::string_view::npos) lineEnd = head.size();
    const std::string_view statusLine = head.substr(0, lineEnd);
    if (statusLine.size() < 12 || statusLine.substr(0, 5) != "HTTP/") {
        disconnect();
        throw Error("malformed status line: " + std::string(statusLine));
    }
    response.status = (statusLine[9] - '0') * 100 + (statusLine[10] - '0') * 10 +
                      (statusLine[11] - '0');
    if (response.status < 100 || response.status > 599) {
        disconnect();
        throw Error("malformed status code: " + std::string(statusLine));
    }

    std::size_t pos = lineEnd == head.size() ? head.size() : lineEnd + 2;
    while (pos < head.size()) {
        std::size_t next = head.find("\r\n", pos);
        if (next == std::string_view::npos) next = head.size();
        const std::string_view line = head.substr(pos, next - pos);
        pos = next + 2;
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos) continue;
        response.headers.push_back(
            {std::string(line.substr(0, colon)),
             std::string(trimView(line.substr(colon + 1)))});
    }
    buf.erase(0, headerEnd + 4);

    const auto recvMore = [&](const char* what) {
        if (!recvSome(what)) {
            disconnect();
            throw Error(std::string(what) + ": connection closed");
        }
    };

    bool closeAfter = false;
    if (const std::string* connection = response.header("Connection")) {
        closeAfter = caseEquals(*connection, "close");
    }

    const std::string* te = response.header("Transfer-Encoding");
    if (te != nullptr && caseEquals(*te, "chunked")) {
        while (true) {
            const std::size_t nl = buf.find("\r\n");
            if (nl == std::string::npos) {
                recvMore("recv chunk size");
                continue;
            }
            std::string sizeText = buf.substr(0, nl);
            const std::size_t semi = sizeText.find(';');
            if (semi != std::string::npos) sizeText.resize(semi);
            char* end = nullptr;
            const unsigned long long size =
                std::strtoull(sizeText.c_str(), &end, 16);
            if (end == sizeText.c_str()) {
                disconnect();
                throw Error("malformed chunk size: " + sizeText);
            }
            if (size == 0) {
                // Trailer section: lines until a blank one.
                buf.erase(0, nl + 2);
                while (true) {
                    const std::size_t tn = buf.find("\r\n");
                    if (tn == std::string::npos) {
                        recvMore("recv trailers");
                        continue;
                    }
                    const bool blank = tn == 0;
                    buf.erase(0, tn + 2);
                    if (blank) break;
                }
                break;
            }
            while (buf.size() < nl + 2 + size + 2) recvMore("recv chunk");
            response.body.append(buf, nl + 2, size);
            if (response.body.size() > kMaxResponseBodyBytes) {
                disconnect();
                throw Error("response body too large");
            }
            buf.erase(0, nl + 2 + size + 2);
        }
    } else if (const std::string* cl = response.header("Content-Length")) {
        char* end = nullptr;
        const unsigned long long length = std::strtoull(cl->c_str(), &end, 10);
        if (end == cl->c_str() || *end != '\0' ||
            length > kMaxResponseBodyBytes) {
            disconnect();
            throw Error("malformed Content-Length: " + *cl);
        }
        while (buf.size() < length) recvMore("recv body");
        response.body = buf.substr(0, length);
        buf.erase(0, length);
    } else if (closeAfter) {
        // Read-to-EOF body.
        while (true) {
            if (buf.size() > kMaxResponseBodyBytes) {
                disconnect();
                throw Error("response body too large");
            }
            if (!recvSome("recv body")) break;
        }
        response.body = std::move(buf);
        buf.clear();
    }
    // else: no framing headers and keep-alive — bodiless response.

    if (closeAfter) {
        disconnect();
    } else {
        leftover_ = std::move(buf);
    }
    return response;
}

ClientResponse HttpClient::attemptOnce(const std::string& request,
                                       Clock::time_point deadline,
                                       bool idempotent, bool& sentAny) {
    bool redialed = false;
    while (true) {
        const bool fresh = fd_ < 0;
        if (fresh) dial(deadline);
        if (!sendAll(request, deadline)) {
            // Stale keep-alive socket (server closed between requests): the
            // request never ran, so one transparent re-dial is always safe.
            disconnect();
            if (fresh || redialed) throwErrno("send " + host_);
            redialed = true;
            ++stats_.redials;
            ClientMetrics::get().redials.inc();
            continue;
        }
        sentAny = true;
        std::size_t received = 0;
        try {
            return receive(deadline, received);
        } catch (const TimeoutError&) {
            throw;
        } catch (const Error&) {
            // The other face of the stale keep-alive race: the server had
            // already closed, our bytes vanished, and the first read sees
            // EOF. Only idempotent requests may transparently re-run — a
            // reused connection cannot prove the request was unprocessed.
            if (!fresh && !redialed && idempotent && received == 0) {
                redialed = true;
                sentAny = false;
                ++stats_.redials;
                ClientMetrics::get().redials.inc();
                continue;
            }
            throw;
        }
    }
}

int HttpClient::backoffMs(int attempt) {
    std::int64_t cap = retry_.baseBackoffMs;
    for (int i = 0; i < attempt && cap < retry_.maxBackoffMs; ++i) cap *= 2;
    if (cap > retry_.maxBackoffMs) cap = retry_.maxBackoffMs;
    if (cap <= 0) return 0;
    // Full jitter: uniform in [0, cap], deterministic per RetryOptions::seed.
    const std::uint64_t draw = util::splitmix64(jitterState_);
    return static_cast<int>(draw % static_cast<std::uint64_t>(cap + 1));
}

ClientResponse HttpClient::get(const std::string& path) {
    return roundTrip("GET", path, "", "");
}

ClientResponse HttpClient::post(const std::string& path, std::string body,
                                const std::string& contentType) {
    return roundTrip("POST", path, body, contentType);
}

ClientResponse HttpClient::del(const std::string& path) {
    return roundTrip("DELETE", path, "", "");
}

ClientResponse HttpClient::roundTrip(const std::string& method,
                                     const std::string& path,
                                     const std::string& body,
                                     const std::string& contentType) {
    std::string request = method + " " + path + " HTTP/1.1\r\nHost: " + host_ +
                          ":" + std::to_string(port_) + "\r\n";
    for (const HttpHeader& h : defaultHeaders_)
        request += h.name + ": " + h.value + "\r\n";
    if (!body.empty() || method == "POST") {
        if (!contentType.empty()) {
            request += "Content-Type: " + contentType + "\r\n";
        }
        request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    request += "\r\n";
    request += body;

    const bool idempotent = method == "GET" || method == "DELETE";
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs_);

    // Sleeps `ms` if it fits the remaining budget; false otherwise.
    const auto sleepWithinDeadline = [&](int ms) {
        if (ms > remainingMs(deadline)) return false;
        if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        return true;
    };

    int attempt = 0;
    while (true) {
        bool sentAny = false;
        ClientResponse response;
        try {
            response = attemptOnce(request, deadline, idempotent, sentAny);
        } catch (const TimeoutError&) {
            throw; // the budget is gone; retrying cannot help
        } catch (const Error&) {
            // Transport failure. Retry only when another attempt cannot
            // double-execute: idempotent methods, or a request whose bytes
            // never reached a live server.
            if (attempt + 1 >= retry_.maxAttempts ||
                !(idempotent || !sentAny) ||
                !sleepWithinDeadline(backoffMs(attempt))) {
                throw;
            }
            ++attempt;
            ++stats_.retries;
            ClientMetrics::get().retries.inc();
            continue;
        }
        if ((response.status == 429 || response.status == 503) &&
            attempt + 1 < retry_.maxAttempts) {
            // Shed by the server before execution — safe to retry for any
            // method. Honor Retry-After when it fits the budget.
            const int after = retryAfterMs(response);
            if (sleepWithinDeadline(after >= 0 ? after : backoffMs(attempt))) {
                ++attempt;
                ++stats_.retries;
                ++stats_.shedWaits;
                ClientMetrics::get().retries.inc();
                ClientMetrics::get().shedWaits.inc();
                continue;
            }
        }
        return response;
    }
}

} // namespace lar::net
