#include "serve/routes.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "json/parse.hpp"
#include "json/write.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "reason/flight_recorder.hpp"
#include "reason/problem_io.hpp"
#include "reason/service_io.hpp"
#include "serve/api.hpp"
#include "serve/build_info.hpp"
#include "serve/session_io.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"

namespace lar::serve {

namespace {

int statusForVerdict(const reason::QueryResult& result) {
    switch (result.verdict) {
        case reason::Verdict::Shed: return 429;
        case reason::Verdict::Error: return 500;
        default: return 200;
    }
}

/// Parses the request body (empty body → null) and applies the "api"
/// envelope check. On failure `error` holds the ready 400 response.
std::optional<json::Value> parseBody(const net::HttpRequest& req,
                                     net::HttpResponse& error) {
    json::Value doc;
    if (!req.body.empty()) {
        try {
            doc = json::parse(req.body);
        } catch (const Error& e) {
            error = apiBadRequest(e);
            return std::nullopt;
        }
    }
    if (std::optional<net::HttpResponse> mismatch = rejectApiMismatch(doc)) {
        error = std::move(*mismatch);
        return std::nullopt;
    }
    return doc;
}

/// Span collector for one HTTP request: a fresh trace installed on the
/// handler thread, rooted at an "http" span covering the handler body.
/// Hand `trace` down (QueryRequest::requestTrace, SessionManager::ask) and
/// the reasoning spans nest under it; call close() before serializing the
/// trace so the "http" span has its duration.
struct HttpSpanScope {
    std::shared_ptr<obs::Trace> trace;
    std::optional<obs::ScopedTrace> scoped;
    std::optional<obs::Span> span;

    HttpSpanScope() {
        if (!obs::enabled()) return;
        trace = std::make_shared<obs::Trace>();
        scoped.emplace(*trace);
        span.emplace("http");
    }
    void close() {
        span.reset();
        scoped.reset();
    }
    ~HttpSpanScope() { close(); }
};

/// Echoes the request's trace identity in the response envelope. The
/// X-Lar-Trace-Id response header carries the same value; the body copy is
/// for scripts and logs that only keep the JSON.
void stampTraceId(json::Value& body, const net::HttpRequest& req) {
    if (body.isObject() && !req.traceId.empty()) body["trace_id"] = req.traceId;
}

/// One row of GET /v1/debug/traces: the fields an operator scans a list by.
/// The span tree (the bulky part) is deliberately omitted — fetch the full
/// trace through /v1/debug/traces/{id}.
json::Value traceSummaryJson(const reason::QueryTrace& trace) {
    json::Value v;
    v["id"] = trace.id;
    if (!trace.traceId.empty()) v["trace_id"] = trace.traceId;
    v["kind"] = reason::toString(trace.kind);
    v["verdict"] = std::string(reason::verdictName(trace.verdict));
    v["total_ms"] = trace.totalMs;
    v["compile_ms"] = trace.compileMs;
    v["solve_ms"] = trace.solveMs;
    if (trace.queueWaitMs > 0) v["queue_wait_ms"] = trace.queueWaitMs;
    v["cache_hit"] = trace.cacheHit;
    if (trace.portfolioWorkers > 1) {
        v["portfolio_workers"] =
            static_cast<std::int64_t>(trace.portfolioWorkers);
    }
    if (!trace.errorKind.empty()) v["error_kind"] = trace.errorKind;
    return v;
}

std::string formatMs(double ms) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", ms);
    return buf;
}

/// The /statusz page: everything the JSON debug endpoints expose, as one
/// glanceable text page for a human with curl and a problem.
std::string renderStatusz(const reason::Service& service,
                          const reason::SessionManager* sessions,
                          bool draining) {
    const BuildInfo& build = buildInfo();
    const reason::FlightRecorder& recorder = service.flightRecorder();
    const reason::FlightRecorder::Stats stats = recorder.stats();

    std::string page = "larserved ";
    page += build.gitDescribe;
    page += "  (api v" + std::to_string(build.apiVersion) + ", trace schema v" +
            std::to_string(build.traceSchemaVersion) + ")\n";
    page += draining ? "state: draining\n" : "state: serving\n";

    page += "\nflight recorder: " + std::to_string(recorder.size()) + "/" +
            std::to_string(recorder.capacity()) + " retained (pinned " +
            std::to_string(stats.pinned) + ", slow " +
            std::to_string(stats.slow) + ", normal " +
            std::to_string(stats.normal) + "), p95 " + formatMs(stats.p95Ms) +
            " ms\n";
    page += "  recorded " + std::to_string(stats.recorded) + ", sampled out " +
            std::to_string(stats.sampledOut) + ", evicted " +
            std::to_string(stats.evicted) + "\n";

    const std::vector<reason::InflightSnapshot> inflight = recorder.inflight();
    page += "\nin-flight queries: " + std::to_string(inflight.size()) + "\n";
    for (const reason::InflightSnapshot& q : inflight) {
        page += "  " + q.id + "  " + reason::toString(q.kind) + "  " +
                reason::queryPhaseName(q.phase) + "  " + formatMs(q.elapsedMs) +
                " ms  workers=" + std::to_string(q.workers);
        if (!q.sessionId.empty()) page += "  session=" + q.sessionId;
        if (!q.traceId.empty()) page += "  trace=" + q.traceId;
        page += "\n";
    }

    if (sessions != nullptr) {
        const std::vector<reason::SessionManager::SessionInfo> live =
            sessions->list();
        page += "\nsessions: " + std::to_string(live.size()) + "\n";
        for (const reason::SessionManager::SessionInfo& s : live) {
            page += "  " + s.id + "  asks=" + std::to_string(s.asks) +
                    "  lease_remaining_ms=" +
                    std::to_string(s.leaseRemainingMs) +
                    (s.warmStarted ? "  warm-started" : "") + "\n";
        }
    } else {
        page += "\nsessions: disabled\n";
    }

    // Solver inprocessing: how much the simplifier is earning its keep
    // across all queries.
    const reason::InprocessingTotals sat = service.inprocessingTotals();
    page += "\nsolver inprocessing:\n  subsumed=" + std::to_string(sat.subsumed) +
            "  eliminated_vars=" + std::to_string(sat.eliminatedVars) +
            "  probes=" + std::to_string(sat.probes) + "\n  arena_gcs=" +
            std::to_string(sat.arenaGcs) + "  arena_waste_bytes=" +
            std::to_string(static_cast<std::int64_t>(sat.arenaWasteBytes)) +
            "\n";
    const reason::PreparedTotals prepared = service.preparedTotals();
    page += "  prepared_images=" + std::to_string(prepared.images) +
            "  prepared_bytes=" + std::to_string(prepared.bytes) + "\n";

    // Chaos visibility: any fault-injection site touched this process. A
    // healthy production instance prints nothing here.
    const std::vector<util::FaultInjector::SiteStatus> faults =
        util::FaultInjector::global().snapshot();
    if (!faults.empty()) {
        page += "\nfault injection sites: " + std::to_string(faults.size()) +
                "\n";
        for (const util::FaultInjector::SiteStatus& f : faults) {
            page += "  " + f.site + "  " + f.mode;
            if (f.mode == "probability") {
                char buf[32];
                std::snprintf(buf, sizeof buf, "=%.3f", f.probability);
                page += buf;
            } else if (f.mode == "nth_hit") {
                page += "=" + std::to_string(f.nth);
            }
            if (f.delayMs > 0) {
                page += "  delay_ms=" + std::to_string(f.delayMs);
            }
            page += "  hits=" + std::to_string(f.hits) + "\n";
        }
    }
    return page;
}

} // namespace

void registerServiceRoutes(net::HttpServer& server, reason::Service& service,
                           const kb::KnowledgeBase& kb) {
    server.route("POST", "/v1/query", [&service,
                                       &kb](const net::HttpRequest& req) {
        net::HttpResponse error;
        const std::optional<json::Value> doc = parseBody(req, error);
        if (!doc.has_value()) return error;
        reason::QueryRequest request;
        try {
            request = reason::queryRequestFromJson(*doc, kb,
                                                   reason::QueryOptions{},
                                                   /*index=*/0);
        } catch (const Error& e) {
            return apiBadRequest(e);
        }
        HttpSpanScope span;
        request.traceId = req.traceId;
        request.requestTrace = span.trace;
        const reason::QueryResult result = service.run(request);
        span.close();
        json::Value body =
            reason::resultToJson(result, request.options.collectTrace);
        stampTraceId(body, req);
        net::HttpResponse resp =
            apiResponse(statusForVerdict(result), std::move(body));
        if (resp.status == 429) {
            resp.extraHeaders.push_back({"Retry-After", "1"});
        }
        return resp;
    });

    server.route("POST", "/v1/batch", [&service,
                                       &kb](const net::HttpRequest& req) {
        net::HttpResponse error;
        const std::optional<json::Value> doc = parseBody(req, error);
        if (!doc.has_value()) return error;
        std::vector<reason::QueryRequest> requests;
        try {
            requests = reason::batchRequestsFromJson(*doc, kb,
                                                     /*serviceOptions=*/
                                                     nullptr);
        } catch (const Error& e) {
            return apiBadRequest(e);
        }
        // One trace for the whole batch: each query's spans become one
        // more "query" child under the shared "http" root.
        HttpSpanScope span;
        for (reason::QueryRequest& request : requests) {
            request.traceId = req.traceId;
            request.requestTrace = span.trace;
        }
        const std::vector<reason::QueryResult> results =
            service.runBatch(requests);
        span.close();
        json::Value report =
            reason::batchReportToJson(results, requests, service);
        report["any_failed_or_infeasible"] =
            reason::anyFailedOrInfeasible(results);
        stampTraceId(report, req);
        return apiResponse(200, std::move(report));
    });

    server.route("GET", "/metrics", [&service](const net::HttpRequest&) {
        (void)service.preparedTotals(); // refreshes the lar_prepared_* gauges
        net::HttpResponse resp;
        resp.contentType = "text/plain; version=0.0.4";
        resp.body = obs::Registry::global().renderPrometheus();
        return resp;
    });

    server.route("GET", "/healthz", [](const net::HttpRequest&) {
        return net::HttpResponse::text(200, "{\"ok\":true}\n");
    });

    server.route("GET", "/readyz", [&server](const net::HttpRequest&) {
        if (server.draining()) {
            return net::HttpResponse::errorJson(503, "draining",
                                                "shutting down");
        }
        return net::HttpResponse::text(200, "{\"ready\":true}\n");
    });
}

void registerSessionRoutes(net::HttpServer& server,
                           reason::SessionManager& sessions,
                           const kb::KnowledgeBase& kb) {
    server.route("POST", "/v1/session", [&sessions,
                                         &kb](const net::HttpRequest& req) {
        net::HttpResponse error;
        const std::optional<json::Value> doc = parseBody(req, error);
        if (!doc.has_value()) return error;
        reason::Problem problem;
        try {
            if (!doc->isObject() || !doc->asObject().contains("problem")) {
                throw ParseError("session create needs a \"problem\" object");
            }
            problem = reason::problemFromJson(doc->at("problem"), kb);
        } catch (const Error& e) {
            return apiBadRequest(e);
        }
        const reason::SessionManager::CreateResult created =
            sessions.create(problem);
        if (created.shed) {
            net::HttpResponse resp = apiError(
                429, "shed", "session capacity reached or server draining");
            resp.extraHeaders.push_back({"Retry-After", "1"});
            return resp;
        }
        json::Value body;
        body["id"] = created.id;
        body["lease_ttl_ms"] = created.leaseTtlMs;
        body["warm_started"] = created.warmStarted;
        body["warm_start_clauses"] =
            static_cast<std::int64_t>(created.warmStartClauses);
        body["cache_hit"] = created.cacheHit;
        body["compile_ms"] = created.compileMs;
        stampTraceId(body, req);
        return apiResponse(200, std::move(body));
    });

    server.route(
        "POST", "/v1/session/{id}/ask",
        [&sessions](const net::HttpRequest& req,
                    const net::HttpServer::RouteParams& params) {
            net::HttpResponse error;
            const std::optional<json::Value> doc = parseBody(req, error);
            if (!doc.has_value()) return error;
            reason::Variation variation;
            try {
                variation = variationFromJson(*doc);
            } catch (const Error& e) {
                return apiBadRequest(e);
            }
            const std::string& id = params.at("id");
            HttpSpanScope span;
            std::optional<reason::SessionManager::AskOutcome> outcome =
                sessions.ask(id, variation, req.traceId, span.trace);
            span.close();
            if (!outcome.has_value()) {
                return apiError(404, "unknown_session",
                                "no session '" + id +
                                    "' (never created, expired, or closed)");
            }
            // Verdict::Error here means the variation named entities the
            // compilation does not know — a client mistake, not a server
            // failure, so 400 with the offending names in the body.
            const int status =
                outcome->answer.verdict == reason::Verdict::Error ? 400 : 200;
            json::Value body = answerToJson(outcome->answer, &outcome->trace);
            stampTraceId(body, req);
            return apiResponse(status, std::move(body));
        });

    server.route(
        "POST", "/v1/session/{id}/renew",
        [&sessions](const net::HttpRequest& req,
                    const net::HttpServer::RouteParams& params) {
            net::HttpResponse error;
            const std::optional<json::Value> doc = parseBody(req, error);
            if (!doc.has_value()) return error;
            const std::string& id = params.at("id");
            if (!sessions.renew(id)) {
                return apiError(404, "unknown_session",
                                "no session '" + id + "' to renew");
            }
            json::Value body;
            body["renewed"] = true;
            body["lease_ttl_ms"] = static_cast<std::int64_t>(
                sessions.options().leaseTtl.count());
            stampTraceId(body, req);
            return apiResponse(200, std::move(body));
        });

    server.route("DELETE", "/v1/session/{id}",
                 [&sessions](const net::HttpRequest& req,
                             const net::HttpServer::RouteParams& params) {
                     const std::string& id = params.at("id");
                     if (!sessions.close(id)) {
                         return apiError(404, "unknown_session",
                                         "no session '" + id + "' to close");
                     }
                     json::Value body;
                     body["closed"] = true;
                     stampTraceId(body, req);
                     return apiResponse(200, std::move(body));
                 });
}

void registerDebugRoutes(net::HttpServer& server, reason::Service& service,
                         reason::SessionManager* sessions) {
    registerBuildInfoMetric();

    server.route("GET", "/v1/debug/traces", [&service](
                                                const net::HttpRequest& req) {
        std::optional<reason::Verdict> verdict;
        const std::string verdictText = req.queryParam("verdict");
        if (!verdictText.empty()) {
            verdict = reason::verdictFromName(verdictText);
            if (!verdict.has_value()) {
                return apiError(400, "bad_filter",
                                "unknown verdict '" + verdictText + "'");
            }
        }
        double minDurationMs = 0.0;
        const std::string minText = req.queryParam("min_duration_ms");
        if (!minText.empty()) {
            char* end = nullptr;
            minDurationMs = std::strtod(minText.c_str(), &end);
            if (end == minText.c_str() || *end != '\0' || minDurationMs < 0) {
                return apiError(400, "bad_filter",
                                "min_duration_ms must be a number >= 0");
            }
        }
        long limit = 0;
        const std::string limitText = req.queryParam("limit");
        if (!limitText.empty()) {
            char* end = nullptr;
            limit = std::strtol(limitText.c_str(), &end, 10);
            if (end == limitText.c_str() || *end != '\0' || limit < 0) {
                return apiError(400, "bad_filter",
                                "limit must be a number >= 0");
            }
        }
        const std::vector<reason::QueryTrace> traces =
            service.flightRecorder().traces(static_cast<std::size_t>(limit),
                                            minDurationMs, verdict);
        json::Array rows;
        rows.reserve(traces.size());
        for (const reason::QueryTrace& trace : traces) {
            rows.push_back(traceSummaryJson(trace));
        }
        json::Value body;
        body["count"] = static_cast<std::int64_t>(rows.size());
        body["traces"] = json::Value(std::move(rows));
        return apiResponse(200, std::move(body));
    });

    server.route(
        "GET", "/v1/debug/traces/{id}",
        [&service](const net::HttpRequest& req,
                   const net::HttpServer::RouteParams& params) {
            const std::string& id = params.at("id");
            const std::optional<reason::QueryTrace> trace =
                service.flightRecorder().find(id);
            if (!trace.has_value()) {
                return apiError(404, "unknown_trace",
                                "no retained trace '" + id +
                                    "' (never recorded, or aged out)");
            }
            const std::string format = req.queryParam("format");
            if (format == "chrome") {
                // The raw trace_event document, no envelope: the body is
                // meant to be saved to a file and loaded in Perfetto /
                // chrome://tracing as-is.
                std::vector<std::pair<std::string, const obs::Trace*>> lanes;
                if (trace->spans) {
                    lanes.emplace_back("query " + trace->id,
                                       trace->spans.get());
                }
                net::HttpResponse resp;
                resp.body = json::write(obs::chromeTraceDocument(lanes));
                resp.body += '\n';
                return resp;
            }
            if (!format.empty() && format != "json") {
                return apiError(400, "bad_filter",
                                "format must be json or chrome");
            }
            json::Value body;
            body["trace"] = toJson(*trace);
            return apiResponse(200, std::move(body));
        });

    server.route("GET", "/v1/debug/inflight", [&service](
                                                  const net::HttpRequest&) {
        const std::vector<reason::InflightSnapshot> inflight =
            service.flightRecorder().inflight();
        json::Array rows;
        rows.reserve(inflight.size());
        for (const reason::InflightSnapshot& q : inflight) {
            json::Value row;
            row["id"] = q.id;
            if (!q.traceId.empty()) row["trace_id"] = q.traceId;
            if (!q.sessionId.empty()) row["session_id"] = q.sessionId;
            row["kind"] = reason::toString(q.kind);
            row["phase"] = std::string(reason::queryPhaseName(q.phase));
            row["elapsed_ms"] = q.elapsedMs;
            row["workers"] = static_cast<std::int64_t>(q.workers);
            rows.push_back(std::move(row));
        }
        json::Value body;
        body["count"] = static_cast<std::int64_t>(rows.size());
        body["inflight"] = json::Value(std::move(rows));
        return apiResponse(200, std::move(body));
    });

    server.route("GET", "/v1/debug/sessions",
                 [sessions](const net::HttpRequest&) {
                     json::Array rows;
                     if (sessions != nullptr) {
                         for (const reason::SessionManager::SessionInfo& s :
                              sessions->list()) {
                             json::Value row;
                             row["id"] = s.id;
                             row["asks"] = static_cast<std::int64_t>(s.asks);
                             row["lease_remaining_ms"] = s.leaseRemainingMs;
                             row["warm_started"] = s.warmStarted;
                             rows.push_back(std::move(row));
                         }
                     }
                     json::Value body;
                     body["count"] = static_cast<std::int64_t>(rows.size());
                     body["sessions"] = json::Value(std::move(rows));
                     return apiResponse(200, std::move(body));
                 });

    server.route("GET", "/v1/debug/faults", [](const net::HttpRequest&) {
        json::Array rows;
        for (const util::FaultInjector::SiteStatus& f :
             util::FaultInjector::global().snapshot()) {
            json::Value row;
            row["site"] = f.site;
            row["mode"] = f.mode;
            row["armed"] = f.armed;
            if (f.mode == "probability") row["probability"] = f.probability;
            if (f.nth > 0) row["nth"] = static_cast<std::int64_t>(f.nth);
            if (f.delayMs > 0) {
                row["delay_ms"] = static_cast<std::int64_t>(f.delayMs);
            }
            row["hits"] = static_cast<std::int64_t>(f.hits);
            rows.push_back(std::move(row));
        }
        json::Value body;
        body["count"] = static_cast<std::int64_t>(rows.size());
        body["faults"] = json::Value(std::move(rows));
        return apiResponse(200, std::move(body));
    });

    server.route("GET", "/statusz",
                 [&server, &service, sessions](const net::HttpRequest&) {
                     net::HttpResponse resp;
                     resp.contentType = "text/plain; charset=utf-8";
                     resp.body = renderStatusz(service, sessions,
                                               server.draining());
                     return resp;
                 });

    server.route("GET", "/version", [](const net::HttpRequest&) {
        return apiResponse(200, buildInfoJson());
    });
}

} // namespace lar::serve
