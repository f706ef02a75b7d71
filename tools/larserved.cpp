// larserved — HTTP front end to the reasoning service.
//
// Serves the same JSON wire schema as `larctl batch` (reason/service_io.hpp)
// over a from-scratch epoll HTTP/1.1 server (net/server.hpp), so a fleet of
// CI jobs or an interactive UI can share one warm compilation cache instead
// of each paying cold-start per query. The routes themselves live in
// serve/routes.hpp (shared with tests and benches); this binary is flag
// parsing and signal handling around them.
//
//   POST   /v1/query             one query object in, one result object out.
//                                Verdict mapping: Shed → 429 (+ Retry-After),
//                                Error → 500, everything else → 200 with the
//                                verdict in the body.
//   POST   /v1/batch             a batch document in (same schema as larctl
//                                batch files, except the "service" block is
//                                rejected), full batch report out.
//   POST   /v1/session           open a stateful what-if session over a
//                                problem; later asks reuse its warm solver.
//   POST   /v1/session/{id}/ask  answer one variation on the session.
//   POST   /v1/session/{id}/renew  extend the session lease.
//   DELETE /v1/session/{id}      close the session.
//   GET    /metrics              Prometheus text exposition.
//   GET    /healthz              200 while the process is up (liveness).
//   GET    /readyz               200 while accepting work, 503 once draining.
//   GET    /v1/debug/traces      flight-recorder trace list (filterable).
//   GET    /v1/debug/traces/{id} one full trace; ?format=chrome for Perfetto.
//   GET    /v1/debug/inflight    queries executing right now.
//   GET    /v1/debug/sessions    live what-if sessions.
//   GET    /statusz              the same, as a human text page.
//   GET    /version              build identity (git, schema versions).
//
// All /v1/* JSON bodies follow the versioned "api" envelope (serve/api.hpp):
// requests may pin {"api": 1}; an unknown major is rejected with 400.
//
// SIGTERM/SIGINT start a graceful drain: stop accepting, cancel and evict
// live sessions (exporting their learnt state to the warm-start cache), let
// in-flight queries finish within the grace period, cancel stragglers (they
// report Cancelled, not Error), then exit 0.
//
// Flags (strict numeric parsing; a bad value is a usage error, not a 0):
//   --kb <path|builtin>     knowledge base to serve (default builtin)
//   --bind <addr>           listen address (default 127.0.0.1)
//   --port <n>              listen port; 0 = ephemeral (default 8080)
//   --port-file <path>      write the bound port (for scripts with --port 0)
//   --io-threads <n>        event-loop threads (default 2)
//   --workers <n>           solver pool width; 0 = hardware (default 0)
//   --max-inflight <n>      HTTP requests inside handlers before 503
//   --max-queue <n>         ServiceOptions::maxQueueDepth (0 = unbounded)
//   --max-sessions <n>      live what-if sessions before 429 (default 64)
//   --lease-ttl-ms <n>      session lease; asks/renews extend it (default 60s)
//   --warm-start-cap <n>    solver snapshots kept for warm starts (default 32,
//                           0 disables warm starting entirely)
//   --flight-recorder-cap <n>  completed traces the flight recorder retains
//                           (default 256, 0 disables retention; the in-flight
//                           registry keeps working either way)
//   --drain-grace-ms <n>    per-phase drain grace (default 5000)
//   --request-read-timeout-ms <n>   kill a request still arriving after n ms
//                           with 408 (slowloris defense; 0 disables,
//                           default 30s)
//   --response-write-timeout-ms <n> drop a peer still draining a response
//                           after n ms (stalled-reader defense; 0 disables,
//                           default 30s)
//   --log-info              lower the log threshold to Info (access logs on)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "catalog/catalog.hpp"
#include "kb/serialize.hpp"
#include "net/server.hpp"
#include "reason/service.hpp"
#include "reason/session.hpp"
#include "serve/routes.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/logging.hpp"

using namespace lar;

namespace {

int g_signalPipe[2] = {-1, -1};

void onSignal(int) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(g_signalPipe[1], &byte, 1);
}

int usage() {
    std::fprintf(
        stderr,
        "usage: larserved [--kb <path|builtin>] [--bind <addr>] [--port <n>]\n"
        "                 [--port-file <path>] [--io-threads <n>] "
        "[--workers <n>]\n"
        "                 [--max-inflight <n>] [--max-queue <n>]\n"
        "                 [--max-sessions <n>] [--lease-ttl-ms <n>]\n"
        "                 [--warm-start-cap <n>] [--flight-recorder-cap <n>]\n"
        "                 [--drain-grace-ms <n>] [--log-info]\n"
        "                 [--request-read-timeout-ms <n>]\n"
        "                 [--response-write-timeout-ms <n>]\n");
    return 2;
}

bool parseLongArg(const char* tok, long& out) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(tok, &end, 10);
    if (end == tok || *end != '\0' || errno == ERANGE) return false;
    out = value;
    return true;
}

} // namespace

int main(int argc, char** argv) {
    std::string kbPath = "builtin";
    std::string bind = "127.0.0.1";
    std::string portFile;
    long port = 8080;
    long ioThreads = 2;
    long workers = 0;
    long maxInflight = 0;
    long maxQueue = 0;
    long maxSessions = 64;
    long leaseTtlMs = 60'000;
    long warmStartCap = 32;
    long flightRecorderCap = 256;
    long drainGraceMs = 5000;
    long requestReadTimeoutMs = 30'000;
    long responseWriteTimeoutMs = 30'000;
    bool logInfo = false;

    for (int i = 1; i < argc; ++i) {
        const auto needValue = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "larserved: %s needs a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        const auto numericFlag = [&](const char* flag, long& out, long min,
                                     long max) -> bool {
            const char* value = needValue(flag);
            if (value == nullptr) return false;
            if (!parseLongArg(value, out) || out < min || out > max) {
                std::fprintf(stderr,
                             "larserved: %s must be a number in %ld..%ld, got "
                             "'%s'\n",
                             flag, min, max, value);
                return false;
            }
            return true;
        };
        if (std::strcmp(argv[i], "--kb") == 0) {
            const char* value = needValue("--kb");
            if (value == nullptr) return usage();
            kbPath = value;
        } else if (std::strcmp(argv[i], "--bind") == 0) {
            const char* value = needValue("--bind");
            if (value == nullptr) return usage();
            bind = value;
        } else if (std::strcmp(argv[i], "--port-file") == 0) {
            const char* value = needValue("--port-file");
            if (value == nullptr) return usage();
            portFile = value;
        } else if (std::strcmp(argv[i], "--port") == 0) {
            if (!numericFlag("--port", port, 0, 65535)) return usage();
        } else if (std::strcmp(argv[i], "--io-threads") == 0) {
            if (!numericFlag("--io-threads", ioThreads, 1, 64)) return usage();
        } else if (std::strcmp(argv[i], "--workers") == 0) {
            if (!numericFlag("--workers", workers, 0, 256)) return usage();
        } else if (std::strcmp(argv[i], "--max-inflight") == 0) {
            if (!numericFlag("--max-inflight", maxInflight, 0, 1 << 20))
                return usage();
        } else if (std::strcmp(argv[i], "--max-queue") == 0) {
            if (!numericFlag("--max-queue", maxQueue, 0, 1 << 20))
                return usage();
        } else if (std::strcmp(argv[i], "--max-sessions") == 0) {
            if (!numericFlag("--max-sessions", maxSessions, 0, 1 << 20))
                return usage();
        } else if (std::strcmp(argv[i], "--lease-ttl-ms") == 0) {
            if (!numericFlag("--lease-ttl-ms", leaseTtlMs, 1, 86'400'000))
                return usage();
        } else if (std::strcmp(argv[i], "--warm-start-cap") == 0) {
            if (!numericFlag("--warm-start-cap", warmStartCap, 0, 1 << 20))
                return usage();
        } else if (std::strcmp(argv[i], "--flight-recorder-cap") == 0) {
            if (!numericFlag("--flight-recorder-cap", flightRecorderCap, 0,
                             1 << 20))
                return usage();
        } else if (std::strcmp(argv[i], "--drain-grace-ms") == 0) {
            if (!numericFlag("--drain-grace-ms", drainGraceMs, 0, 3'600'000))
                return usage();
        } else if (std::strcmp(argv[i], "--request-read-timeout-ms") == 0) {
            if (!numericFlag("--request-read-timeout-ms", requestReadTimeoutMs,
                             0, 3'600'000))
                return usage();
        } else if (std::strcmp(argv[i], "--response-write-timeout-ms") == 0) {
            if (!numericFlag("--response-write-timeout-ms",
                             responseWriteTimeoutMs, 0, 3'600'000))
                return usage();
        } else if (std::strcmp(argv[i], "--log-info") == 0) {
            logInfo = true;
        } else {
            std::fprintf(stderr, "larserved: unknown flag '%s'\n", argv[i]);
            return usage();
        }
    }
    if (logInfo) util::setLogLevel(util::LogLevel::Info);

    try {
        const kb::KnowledgeBase kb =
            kbPath == "builtin" ? catalog::buildKnowledgeBase()
                                : kb::kbFromText(util::readFile(kbPath));

        reason::ServiceOptions serviceOptions;
        serviceOptions.workers = static_cast<unsigned>(workers);
        serviceOptions.maxQueueDepth = static_cast<std::size_t>(maxQueue);
        serviceOptions.warmStartCapacity =
            static_cast<std::size_t>(warmStartCap);
        serviceOptions.flightRecorderCapacity =
            static_cast<std::size_t>(flightRecorderCap);
        reason::Service service(serviceOptions);

        reason::SessionOptions sessionOptions;
        sessionOptions.leaseTtl = std::chrono::milliseconds(leaseTtlMs);
        sessionOptions.maxSessions = static_cast<std::size_t>(maxSessions);
        reason::SessionManager sessions(service, sessionOptions);

        net::ServerOptions serverOptions;
        serverOptions.bindAddress = bind;
        serverOptions.port = static_cast<std::uint16_t>(port);
        serverOptions.ioThreads = static_cast<unsigned>(ioThreads);
        serverOptions.maxInflight = static_cast<std::size_t>(maxInflight);
        serverOptions.requestReadTimeoutMs =
            static_cast<int>(requestReadTimeoutMs);
        serverOptions.responseWriteTimeoutMs =
            static_cast<int>(responseWriteTimeoutMs);
        serverOptions.accessLog = logInfo;
        net::HttpServer server(serverOptions);

        serve::registerServiceRoutes(server, service, kb);
        serve::registerSessionRoutes(server, sessions, kb);
        serve::registerDebugRoutes(server, service, &sessions);

        // Drain order: evict sessions first (their in-flight asks observe
        // the cancel flag and the learnt solver state is exported), then
        // shed the stateless query queue.
        server.setDrainHooks(
            [&service, &sessions] {
                sessions.drain();
                service.beginDrain();
            },
            [&service] { service.cancelActive(); });

        if (::pipe2(g_signalPipe, O_CLOEXEC) != 0) {
            std::fprintf(stderr, "larserved: pipe2: %s\n",
                         std::strerror(errno));
            return 1;
        }
        struct sigaction sa{};
        sa.sa_handler = onSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);
        ::signal(SIGPIPE, SIG_IGN);

        server.start();
        std::printf("larserved listening on %s:%u\n", bind.c_str(),
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);
        if (!portFile.empty()) {
            util::writeFile(portFile, std::to_string(server.port()) + "\n");
        }

        char byte = 0;
        while (::read(g_signalPipe[0], &byte, 1) < 0 && errno == EINTR) {
        }
        std::fprintf(stderr, "larserved: draining (grace %ld ms)\n",
                     drainGraceMs);
        server.drainAndStop(static_cast<int>(drainGraceMs));
        return 0;
    } catch (const Error& e) {
        std::fprintf(stderr, "larserved: %s\n", e.what());
        return 1;
    }
}
