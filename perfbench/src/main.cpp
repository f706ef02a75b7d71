// perfbench_driver — the repository's end-to-end benchmark.
//
//   perfbench_driver --workload <feasible_hot|optimize_cold|session_ask>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --larserved <path> --run-dir <dir> [--smoke]
//
// --trace 0: the end-to-end run. Five daemons are started one after the
// other; each is set up (start larserved, wait for /readyz, open the
// session, warm up) and then serves a closed loop — one connection, the
// next request sent when the previous answer arrived — for a fifth of
// --seconds. A calibration loop runs between requests, and the reported
// times are scaled by it (calibration.hpp). Every answer is checked
// afterwards (checks.hpp).
//
// --trace 1: the traced run. One set-up, a shorter closed loop with a
// GET /healthz round trip timed after every request, then the in-process
// replay of the same requests that attributes time to layers (traced.hpp).
//
// --smoke sends a handful of requests instead of timing a window.
//
// perfbench_driver pins itself, and so the daemon it starts, to one CPU: the
// highest-numbered CPU it may run on. In a closed loop only one thread is
// busy at a time, so this costs no parallelism; it turns the loop's
// client → io thread → handler → client handoffs into same-CPU thread
// switches instead of cross-CPU wake-ups, whose latency on a shared VM
// varies run to run by more than the work being measured.
//
// A readable report goes to stdout, followed by one JSON line:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name:
//    {"value": x, "unit": u}, ...}}
// Exit status: 0 when every answer is correct, 1 when any check failed,
// 2 when the run could not be completed.
#include <sched.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "calibration.hpp"
#include "catalog/catalog.hpp"
#include "checks.hpp"
#include "client.hpp"
#include "daemon.hpp"
#include "json/parse.hpp"
#include "metric.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
    WorkloadKind workload = WorkloadKind::FeasibleHot;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string larserved;
    std::string runDir;
};

/// Daemons per end-to-end run. Each is set up (setup_s is the median of
/// their set-up times) and serves an equal slice of the timed window.
/// A daemon's speed is fixed for its lifetime but differs from process to
/// process (on the shared VM this was measured on, session asks ran at
/// 0.82-1.29 ms p50 in back-to-back runs of one build, each run steady
/// within itself), so pooling several daemons' samples averages that out.
constexpr int kDaemons = 5;
/// Requests per workload in --smoke mode.
constexpr std::size_t kSmokeRequests = 6;
/// rss_mb is each daemon's VmHWM after this many timed requests (median
/// over the daemons) — a fixed amount of work, so that a faster build,
/// which answers more requests in the window and so retains more
/// flight-recorder traces, does not read as using more memory.
constexpr std::size_t kRssAfterRequests = 32;
/// During a timed window the calibration loop runs after the first answer
/// that arrives this long after its previous run (outside any request's
/// timing), and once before each daemon's set-up.
constexpr double kCalibrationEverySeconds = 0.25;
/// Share of --seconds the traced run spends on its end-to-end pass; the
/// in-process replay of those requests takes roughly the rest.
constexpr double kTracedLoopShare = 0.35;

std::optional<Args> parseArgs(int argc, char** argv) {
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc) return std::nullopt;
        const std::string value = argv[++i];
        if (flag == "--workload") {
            const std::optional<WorkloadKind> kind = workloadFromName(value);
            if (!kind.has_value()) return std::nullopt;
            a.workload = *kind;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return std::nullopt;
            a.trace = value == "1";
        } else if (flag == "--larserved") {
            a.larserved = value;
        } else if (flag == "--run-dir") {
            a.runDir = value;
        } else {
            return std::nullopt;
        }
    }
    if (!haveWorkload || a.larserved.empty() || a.runDir.empty() ||
        a.seconds <= 0)
        return std::nullopt;
    return a;
}

/// A daemon that is ready, warmed up, and connected.
struct Target {
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<HttpConnection> conn;
    std::string askPath; ///< session_ask: /v1/session/{id}/ask
    double setupSeconds = 0;

    [[nodiscard]] std::string pathFor(const RequestStream& stream) const {
        return stream.kind() == WorkloadKind::SessionAsk ? askPath : "/v1/query";
    }
};

HttpReply expectOk(HttpConnection& conn, std::string_view method,
                   std::string_view path, std::string_view body = {}) {
    HttpReply reply = conn.request(method, path, body);
    if (reply.status != 200)
        throw std::runtime_error(std::string(method) + " " + std::string(path) +
                                 " answered " + std::to_string(reply.status) +
                                 ": " + reply.body);
    return reply;
}

/// Daemon exec → /readyz 200 → session create → warm-up, timed as setup_s.
Target setUp(const Args& args, RequestStream& stream) {
    Target t;
    const Clock::time_point start = Clock::now();
    t.daemon = std::make_unique<Daemon>(args.larserved, args.runDir);
    t.conn = std::make_unique<HttpConnection>(t.daemon->waitForPort(30.0));
    while (t.conn->request("GET", "/readyz").status != 200) {
        if (secondsSince(start) > 30.0)
            throw std::runtime_error("larserved never became ready");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (stream.kind() == WorkloadKind::SessionAsk) {
        const HttpReply created =
            expectOk(*t.conn, "POST", "/v1/session", stream.sessionCreateBody());
        t.askPath = "/v1/session/" +
                    lar::json::parse(created.body).at("id").asString() + "/ask";
    }
    for (std::size_t i = 0; i < stream.warmupCount(); ++i) {
        const Request r = stream.next();
        expectOk(*t.conn, "POST", t.pathFor(stream), r.body);
    }
    t.setupSeconds = secondsSince(start);
    return t;
}

/// Sends `r` and times it from the first byte sent to the last received.
Exchange send(Target& t, const RequestStream& stream, Request r) {
    Exchange e;
    const Clock::time_point start = Clock::now();
    e.reply = t.conn->request("POST", t.pathFor(stream), r.body);
    e.latencyMs = std::chrono::duration<double, std::milli>(Clock::now() - start)
                      .count();
    e.request = std::move(r);
    return e;
}

/// Reads one counter from GET /metrics.
double scrapeCounter(HttpConnection& conn, const std::string& name) {
    const std::string text = expectOk(conn, "GET", "/metrics").body;
    const std::string prefix = "\n" + name + " ";
    const std::size_t at = text.find(prefix);
    if (at == std::string::npos)
        throw std::runtime_error("/metrics lacks " + name);
    return std::stod(text.substr(at + prefix.size()));
}

std::vector<std::string> systemNames(const lar::kb::KnowledgeBase& kb) {
    std::vector<std::string> names;
    for (const lar::kb::System& s : kb.systems()) names.push_back(s.name);
    return names;
}

/// The end-to-end metrics of BENCHMARK.json. Their times are scaled by
/// kCalibrationNominalMs / (the run's median calibration loop time), so
/// that they read the same whichever speed the machine ran at (see
/// calibration.hpp). `ungated` receives figures the report prints beside
/// them but BENCHMARK.json does not bound: the unscaled latencies, CPU per
/// query and the calibration loop's median.
std::vector<Metric> endToEnd(const Args& args, const lar::kb::KnowledgeBase& kb,
                             std::vector<Exchange>& exchanges,
                             CheckReport& report, std::vector<Metric>& ungated) {
    const int daemons = args.smoke ? 1 : kDaemons;
    // One stream for the whole run: every daemon's warm-up and timed
    // requests continue it, so no optimize_cold fingerprint repeats.
    RequestStream stream(args.workload, args.seed, systemNames(kb));
    std::vector<double> setupSeconds;
    std::vector<double> rssMb;
    std::vector<double> calibrationMs;
    double cpuMs = 0, hits = 0, misses = 0;
    for (int d = 0; d < daemons; ++d) {
        calibrationMs.push_back(calibrationLoopMs());
        Target target = setUp(args, stream);
        setupSeconds.push_back(target.setupSeconds);
        const double hits0 = scrapeCounter(*target.conn, "lar_cache_hits_total");
        const double misses0 =
            scrapeCounter(*target.conn, "lar_cache_misses_total");
        const double cpu0 = target.daemon->cpuMillis();
        const std::size_t first = exchanges.size();
        std::optional<double> rss;
        const Clock::time_point start = Clock::now();
        Clock::time_point calibrated = start;
        while (args.smoke
                   ? exchanges.size() - first < kSmokeRequests
                   : exchanges.size() == first ||
                         secondsSince(start) < args.seconds / daemons) {
            exchanges.push_back(send(target, stream, stream.next()));
            exchanges.back().daemon = d;
            if (exchanges.size() - first == kRssAfterRequests)
                rss = target.daemon->peakRssMb();
            if (secondsSince(calibrated) >= kCalibrationEverySeconds) {
                calibrationMs.push_back(calibrationLoopMs());
                calibrated = Clock::now();
            }
        }
        cpuMs += target.daemon->cpuMillis() - cpu0;
        rssMb.push_back(rss.has_value() ? *rss : target.daemon->peakRssMb());
        hits += scrapeCounter(*target.conn, "lar_cache_hits_total") - hits0;
        misses += scrapeCounter(*target.conn, "lar_cache_misses_total") - misses0;
    } // each daemon stops here, before the next one starts

    report = checkExchanges(exchanges, stream, kb, args.seed);
    // Self-checks from the daemon's own counters over the timed window.
    const auto selfCheck = [&](bool ok, const char* what) {
        if (ok) return;
        ++report.failed;
        noteProblem(report, std::string("self-check: ") + what);
    };
    if (args.workload == WorkloadKind::FeasibleHot)
        selfCheck(misses == 0, "feasible_hot missed the compile cache");
    if (args.workload == WorkloadKind::OptimizeCold)
        selfCheck(hits == 0, "optimize_cold hit the compile cache");
    if (args.workload == WorkloadKind::SessionAsk)
        selfCheck(hits == 0 && misses == 0, "a timed session ask compiled");

    std::vector<double> latencies;
    for (const Exchange& e : exchanges) latencies.push_back(e.latencyMs);
    const std::size_t n = exchanges.size();
    const double answered = static_cast<double>(n);
    const double p75 = percentile(latencies, 0.75);
    const double p90 = percentile(latencies, 0.9);
    const double scale = kCalibrationNominalMs / median(calibrationMs);
    ungated = {
        {"p50_ms", median(latencies), "ms", n},
        {"p75_ms", p75, "ms", n},
        {"p90_ms", p90, "ms", n},
        {"cpu_ms_per_query", cpuMs / answered, "ms", n},
        {"calibration_ms", median(calibrationMs), "ms", calibrationMs.size()},
    };
    return {
        {"p75_scaled_ms", p75 * scale, "ms", n},
        {"p90_scaled_ms", p90 * scale, "ms", n},
        {"success_ratio",
         (answered - static_cast<double>(std::min(report.failed, n))) / answered,
         "ratio", n},
        {"setup_s", median(setupSeconds) * scale, "s", setupSeconds.size()},
        {"rss_mb", median(rssMb), "MB", rssMb.size()},
    };
}

std::vector<Metric> traced(const Args& args, const lar::kb::KnowledgeBase& kb,
                           std::vector<Exchange>& exchanges,
                           CheckReport& report) {
    RequestStream stream(args.workload, args.seed, systemNames(kb));
    std::vector<double> rttMs;
    {
        Target target = setUp(args, stream);
        const Clock::time_point start = Clock::now();
        const double budget = args.seconds * kTracedLoopShare;
        // At least one full cycle of the workload's distinct requests.
        const std::size_t minimum = args.smoke ? kSmokeRequests : stream.warmupCount();
        while (args.smoke ? exchanges.size() < kSmokeRequests
                          : (exchanges.size() < minimum ||
                             secondsSince(start) < budget)) {
            exchanges.push_back(send(target, stream, stream.next()));
            const Clock::time_point t = Clock::now();
            expectOk(*target.conn, "GET", "/healthz");
            rttMs.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - t)
                    .count());
        }
    }
    report = checkExchanges(exchanges, stream, kb, args.seed);
    RequestStream replay(args.workload, args.seed, systemNames(kb));
    return runTraced(replay, exchanges, rttMs, kb, report);
}

/// Restricts this process (and children started later) to the highest
/// CPU in its current affinity mask; returns that CPU.
int pinToOneCpu() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed)) cpu = c;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (cpu < 0 || ::sched_setaffinity(0, sizeof one, &one) != 0)
        throw std::runtime_error("sched_setaffinity failed");
    return cpu;
}

void printNumber(std::string& out, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out += buf;
}

} // namespace

int main(int argc, char** argv) {
    const std::optional<Args> args = parseArgs(argc, argv);
    if (!args.has_value()) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> --larserved <path> "
                     "--run-dir <dir> [--smoke]\n");
        return 2;
    }
    try {
        const int cpu = pinToOneCpu();
        const lar::kb::KnowledgeBase kb = lar::catalog::buildKnowledgeBase();
        std::vector<Exchange> exchanges;
        CheckReport report;
        std::vector<Metric> ungated;
        const std::vector<Metric> metrics =
            args->trace ? traced(*args, kb, exchanges, report)
                        : endToEnd(*args, kb, exchanges, report, ungated);

        std::printf("%s seed=%llu trace=%d: closed loop, one connection per "
                    "daemon, %d daemon(s), CPU %d, %s\n",
                    workloadName(args->workload),
                    static_cast<unsigned long long>(args->seed),
                    args->trace ? 1 : 0,
                    args->trace || args->smoke ? 1 : kDaemons, cpu,
                    args->smoke ? "smoke" : "timed window");
        // In the traced table, the times of the steps inside the service
        // are also shown as a share of reason.service_ms.
        double serviceMs = 0;
        for (const Metric& m : metrics)
            if (m.name == "reason.service_ms") serviceMs = m.value;
        for (const Metric& m : metrics) {
            std::printf("  %-24s %14.4f %-6s n=%-6zu", m.name.c_str(), m.value,
                        m.unit.c_str(), m.samples);
            const bool inService = m.name.rfind("reason.", 0) == 0 ||
                                   m.name.rfind("smt.", 0) == 0 ||
                                   m.name.rfind("sat.", 0) == 0;
            if (serviceMs > 0 && m.unit == "ms" && inService)
                std::printf(" %5.1f%% of service", 100.0 * m.value / serviceMs);
            std::printf("\n");
        }
        for (const Metric& m : ungated)
            std::printf("  %-24s %14.4f %-6s n=%-6zu (not gated)\n",
                        m.name.c_str(), m.value, m.unit.c_str(), m.samples);
        std::printf("  checks: %zu answers, %zu compared with Z3 (%zu distinct "
                    "solved), %zu distinct designs validated, %zu failed\n",
                    exchanges.size(), report.referenceChecked,
                    report.referenceSolved, report.designsValidated,
                    report.failed);
        if (args->trace)
            std::printf("  traced cross-check: %zu of %zu answers compared by "
                        "request id\n",
                        report.crossChecked, exchanges.size());
        for (const std::string& p : report.problems)
            std::printf("  FAILED %s\n", p.c_str());

        std::string out = "{\"correct\": ";
        out += report.failed == 0 ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(exchanges.size());
        out += ", \"failed\": " + std::to_string(report.failed);
        out += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            if (i > 0) out += ", ";
            out += "\"" + metrics[i].name + "\": {\"value\": ";
            printNumber(out, metrics[i].value);
            out += ", \"unit\": \"" + metrics[i].unit + "\"}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        return report.failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
}
