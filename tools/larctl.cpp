// larctl — command-line front end to the reasoning library.
//
// The workflow the paper envisions: a shared knowledge base (JSON, possibly
// crowd-sourced), per-team problem specs (JSON), and quick answers at the
// terminal.
//
//   larctl export-kb <kb.json>             write the built-in seed KB
//   larctl validate <kb.json>              check an encoding file
//   larctl feasible <kb.json> <prob.json>  is any compliant design possible?
//                                          (prints a minimal conflict if not)
//   larctl optimize <kb.json> <prob.json>  lexicographically optimal design
//   larctl enumerate <kb.json> <prob.json> [N]   distinct optimal designs
//   larctl batch <kb.json> <batch.json> [threads] [--trace-out <dir>]
//                [--deadline-ms <n>] [--max-queue <n>] [--portfolio <n>]
//                                          run a query batch through the
//                                          caching service; JSON out, plus a
//                                          Chrome trace_event file (load in
//                                          chrome://tracing or Perfetto) when
//                                          --trace-out is given.
//                                          --deadline-ms sets an end-to-end
//                                          deadline on every query (queue wait
//                                          and compile both count against it);
//                                          --max-queue bounds the batch queue
//                                          (overload is shed, never hung);
//                                          --portfolio races N diverse CDCL
//                                          solvers per query (budgeted
//                                          against the thread pool).
//                                          Exit codes: 0 all answered, 1 some
//                                          infeasible or errored, 2 malformed
//                                          batch file (one-line JSON error on
//                                          stdout).
//   larctl metrics [--json] [<kb.json> <batch.json> [threads]]
//                                          dump the process metrics registry
//                                          (Prometheus text exposition, or
//                                          JSON with --json), optionally after
//                                          running a batch to populate it
//   larctl trace <id> [--chrome]           (--url only) fetch one retained
//                                          trace from the server's flight
//                                          recorder by trace id or query id;
//                                          --chrome prints the raw Chrome
//                                          trace_event document (redirect to
//                                          a file, load in Perfetto).
//   larctl top                             (--url only) the server's /statusz
//                                          page: build, flight-recorder
//                                          occupancy, in-flight queries, live
//                                          sessions.
//   larctl version                         (--url only) the server's build
//                                          identity: git describe, trace
//                                          schema version, api major.
//   larctl session <verb> ...              (--url only) stateful what-if
//                                          sessions against larserved: create /
//                                          ask / renew / close, or `run` to
//                                          drive a whole variation script over
//                                          one warm session.
//   larctl suggest  <kb.json> <prob.json>  disambiguation suggestions (§6)
//   larctl ordering <kb.json> <objective>  Graphviz of the partial order
//   larctl sheet    <kb.json> <model>      render a vendor spec sheet
//   larctl diff     <old.json> <new.json>  review a KB contribution (§3.3)
//
// Pass the literal name "builtin" instead of <kb.json> to use the compiled-in
// catalog (56 systems / 208 hardware specs).
//
// --trace-id <id> (with --url) sends the given X-Lar-Trace-Id on every
// request, so the server adopts the client's trace identity end to end —
// `larctl --url U --trace-id deadbeef feasible p.json` followed by
// `larctl --url U trace deadbeef` retrieves exactly that query's trace.
//
// --retries <n> (with --url) allows n retry attempts after the first try
// (default 2): transport failures retry when safe, and a shed 429/503 is
// waited out honoring the server's Retry-After before retrying, all within
// the request deadline — exit codes are unchanged when retries exhaust.
// --retries 0 restores fail-fast.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "extract/specgen.hpp"
#include "json/parse.hpp"
#include "json/write.hpp"
#include "net/http_client.hpp"
#include "kb/diff.hpp"
#include "kb/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "order/poset.hpp"
#include "reason/engine.hpp"
#include "reason/problem_io.hpp"
#include "reason/service.hpp"
#include "reason/service_io.hpp"
#include "reason/validate.hpp"
#include "util/error.hpp"
#include "util/file.hpp"

using namespace lar;

namespace {

// atoi/atol turn non-numeric input into 0 silently, which for the limit
// flags below means "unlimited" — the opposite of what the user asked for.
// Require the whole token to parse, like the DIMACS reader does.
bool parseLongArg(const char* tok, long& out) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(tok, &end, 10);
    if (end == tok || *end != '\0' || errno == ERANGE) return false;
    out = value;
    return true;
}

int usage() {
    std::fprintf(stderr,
                 "usage: larctl [--url http://host:port] <command> [args]\n"
                 "  export-kb <out.json>\n"
                 "  validate  <kb.json>\n"
                 "  feasible  <kb.json> <problem.json>\n"
                 "  optimize  <kb.json> <problem.json>\n"
                 "  enumerate <kb.json> <problem.json> [maxDesigns]\n"
                 "  batch     <kb.json> <batch.json> [threads] [--trace-out <dir>]\n"
                 "            [--deadline-ms <n>] [--max-queue <n>] [--portfolio <n>]\n"
                 "  metrics   [--json] [<kb.json> <batch.json> [threads]]\n"
                 "  suggest   <kb.json> <problem.json>\n"
                 "  ordering  <kb.json> <objective>\n"
                 "  sheet     <kb.json> <model name>\n"
                 "  diff      <old.json> <new.json>\n"
                 "  session   create <problem.json> | ask <id> <var.json|-> |\n"
                 "            renew <id> | close <id> |\n"
                 "            run <problem.json> [script.json]   (--url only)\n"
                 "  trace     <id> [--chrome]            (--url only)\n"
                 "  top                                  (--url only)\n"
                 "  version                              (--url only)\n"
                 "use 'builtin' as <kb.json> for the compiled-in catalog\n"
                 "with --url, feasible/optimize/enumerate/batch/metrics/session/\n"
                 "trace/top/version run against a larserved instance (no <kb.json>\n"
                 "argument — the server's knowledge base answers); --trace-id\n"
                 "<id> stamps every request with that X-Lar-Trace-Id;\n"
                 "--retries <n> bounds retry attempts (default 2, honoring\n"
                 "Retry-After on 429/503)\n");
    return 2;
}

kb::KnowledgeBase loadKb(const std::string& path) {
    if (path == "builtin") return catalog::buildKnowledgeBase();
    return kb::kbFromText(util::readFile(path));
}

int cmdExportKb(const std::string& out) {
    const kb::KnowledgeBase kb = catalog::buildKnowledgeBase();
    util::writeFile(out, kb::kbToText(kb));
    std::printf("wrote %zu systems, %zu hardware specs, %zu orderings to %s\n",
                kb.systems().size(), kb.hardwareSpecs().size(),
                kb.orderings().size(), out.c_str());
    return 0;
}

int cmdValidate(const std::string& kbPath) {
    const kb::KnowledgeBase kb = loadKb(kbPath);
    const auto issues = kb.validate();
    int errors = 0;
    for (const kb::ValidationIssue& issue : issues) {
        const bool isError =
            issue.severity == kb::ValidationIssue::Severity::Error;
        std::printf("%s: %s\n", isError ? "error" : "warning",
                    issue.message.c_str());
        if (isError) ++errors;
    }
    std::printf("%zu systems, %zu hardware specs, %zu orderings; %d errors, "
                "%zu findings\n",
                kb.systems().size(), kb.hardwareSpecs().size(),
                kb.orderings().size(), errors, issues.size());
    return errors == 0 ? 0 : 1;
}

int cmdFeasible(const std::string& kbPath, const std::string& problemPath) {
    const kb::KnowledgeBase kb = loadKb(kbPath);
    const reason::Problem problem =
        reason::problemFromText(util::readFile(problemPath), kb);
    reason::Engine engine(problem);
    const auto report = engine.explainMinimalConflict();
    if (report.feasible) {
        std::printf("FEASIBLE\n");
        return 0;
    }
    std::printf("INFEASIBLE — minimal conflicting rule set:\n");
    for (const std::string& rule : report.conflictingRules)
        std::printf("  - %s\n", rule.c_str());
    return 1;
}

int cmdOptimize(const std::string& kbPath, const std::string& problemPath) {
    const kb::KnowledgeBase kb = loadKb(kbPath);
    const reason::Problem problem =
        reason::problemFromText(util::readFile(problemPath), kb);
    reason::Engine engine(problem);
    const auto design = engine.optimize();
    if (!design) {
        std::printf("INFEASIBLE — run 'larctl feasible' for the conflict\n");
        return 1;
    }
    std::printf("%s", design->toString().c_str());
    const auto violations = reason::validateDesign(problem, *design);
    if (!violations.empty()) {
        std::printf("INTERNAL ERROR: design failed independent validation:\n");
        for (const std::string& v : violations) std::printf("  %s\n", v.c_str());
        return 3;
    }
    return 0;
}

int cmdEnumerate(const std::string& kbPath, const std::string& problemPath,
                 int maxDesigns) {
    const kb::KnowledgeBase kb = loadKb(kbPath);
    const reason::Problem problem =
        reason::problemFromText(util::readFile(problemPath), kb);
    reason::Engine engine(problem);
    const auto designs = engine.enumerateDesigns(maxDesigns, /*optimizeFirst=*/true);
    std::printf("%zu design(s) in the optimal equivalence class:\n",
                designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i) {
        std::printf("--- design %zu ---\n%s", i + 1, designs[i].toString().c_str());
    }
    return designs.empty() ? 1 : 0;
}

// Batch file schema: see reason/service_io.hpp (shared with larserved).
int cmdBatch(const std::string& kbPath, const std::string& batchPath,
             unsigned threads, const std::string& traceOut = {},
             bool quiet = false, int deadlineMs = -1, long maxQueue = -1,
             int portfolio = 0) {
    const kb::KnowledgeBase kb = loadKb(kbPath);

    reason::ServiceOptions serviceOptions;
    serviceOptions.workers = threads;
    std::vector<reason::QueryRequest> requests;
    // A malformed batch file is a protocol error, not a query failure:
    // report it as one machine-readable line on stdout and exit 2, so
    // scripts driving larctl can tell "bad input" from "infeasible".
    try {
        const json::Value doc = json::parse(util::readFile(batchPath));
        requests = reason::batchRequestsFromJson(doc, kb, &serviceOptions);
    } catch (const std::exception& e) {
        json::Value detail;
        detail["kind"] =
            dynamic_cast<const ParseError*>(&e) != nullptr ? "parse_error"
                                                           : "error";
        detail["message"] = std::string(e.what());
        json::Value err;
        err["error"] = std::move(detail);
        std::printf("%s\n", json::write(err).c_str());
        return 2;
    }

    if (deadlineMs >= 0)
        for (reason::QueryRequest& r : requests) r.options.timeoutMs = deadlineMs;
    if (portfolio > 0)
        for (reason::QueryRequest& r : requests)
            r.options.portfolioWorkers = portfolio;
    if (maxQueue >= 0)
        serviceOptions.maxQueueDepth = static_cast<std::size_t>(maxQueue);

    reason::Service service(serviceOptions);
    const std::vector<reason::QueryResult> results = service.runBatch(requests);
    (void)service.preparedTotals(); // publishes the lar_prepared_* gauges
    const bool anyInfeasible = reason::anyFailedOrInfeasible(results);
    const json::Value report =
        reason::batchReportToJson(results, requests, service);
    if (!quiet) std::printf("%s\n", json::writePretty(report).c_str());

    if (!traceOut.empty()) {
        std::vector<std::pair<std::string, const obs::Trace*>> traces;
        for (const reason::QueryResult& r : results)
            if (r.trace.spans)
                traces.emplace_back("query " + r.id, r.trace.spans.get());
        std::filesystem::create_directories(traceOut);
        const std::string path = traceOut + "/trace.json";
        util::writeFile(path, json::write(obs::chromeTraceDocument(traces)));
        std::fprintf(stderr, "wrote %zu trace lane(s) to %s\n", traces.size(),
                     path.c_str());
    }
    return anyInfeasible ? 1 : 0;
}

int cmdMetrics(bool asJson, const std::string& kbPath,
               const std::string& batchPath, unsigned threads,
               int portfolio = 0) {
    // Optionally run a batch first so the dump shows a populated registry
    // (the registry is per-process; a fresh larctl starts empty).
    if (!kbPath.empty())
        (void)cmdBatch(kbPath, batchPath, threads, {}, true, -1, -1, portfolio);
    obs::Registry& registry = obs::Registry::global();
    if (asJson)
        std::printf("%s\n", json::writePretty(registry.toJson()).c_str());
    else
        std::fputs(registry.renderPrometheus().c_str(), stdout);
    return 0;
}

int cmdSuggest(const std::string& kbPath, const std::string& problemPath) {
    const kb::KnowledgeBase kb = loadKb(kbPath);
    const reason::Problem problem =
        reason::problemFromText(util::readFile(problemPath), kb);
    const auto suggestions = reason::suggestDisambiguation(problem);
    if (suggestions.empty()) {
        std::printf("the optimal design is already unique (or infeasible)\n");
        return 0;
    }
    for (const auto& s : suggestions) std::printf("* %s\n", s.suggestion.c_str());
    return 0;
}

int cmdOrdering(const std::string& kbPath, const std::string& objective) {
    const kb::KnowledgeBase kb = loadKb(kbPath);
    const order::PreferenceGraph graph(kb, objective);
    // Render with every conditional edge visible (empty context would hide
    // them): use condition labels by passing a context that activates
    // nothing and printing the full edge list instead.
    std::printf("digraph \"%s\" {\n", objective.c_str());
    for (const kb::Ordering* e : kb.orderingsFor(objective)) {
        std::printf("  \"%s\" -> \"%s\"", e->better.c_str(), e->worse.c_str());
        if (!e->condition.isTrivial())
            std::printf(" [label=\"%s\"]", e->condition.toString().c_str());
        std::printf(";\n");
    }
    std::printf("}\n");
    return graph.systems().empty() ? 1 : 0;
}

int cmdDiff(const std::string& beforePath, const std::string& afterPath) {
    const kb::KnowledgeBase before = loadKb(beforePath);
    const kb::KnowledgeBase after = loadKb(afterPath);
    const kb::KbDiff diff = kb::diffKnowledgeBases(before, after);
    std::printf("%s", diff.toString().c_str());
    std::printf("%zu change(s)\n", diff.totalChanges());
    return 0;
}

int cmdSheet(const std::string& kbPath, const std::string& model) {
    const kb::KnowledgeBase kb = loadKb(kbPath);
    const kb::HardwareSpec* spec = kb.findHardware(model);
    if (spec == nullptr) {
        std::fprintf(stderr, "unknown model: %s\n", model.c_str());
        return 1;
    }
    std::printf("%s", extract::renderSpecSheet(*spec).text.c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// --url client mode: the same commands, answered by a larserved instance.
// Exit codes mirror local runs (0 answered/feasible, 1 infeasible or errored,
// 2 malformed input), with one addition: a shed query (HTTP 429) exits 1 like
// a locally-shed one would.
// ---------------------------------------------------------------------------

int remoteQuery(net::HttpClient& client, const std::string& kind,
                const std::string& problemPath, int maxDesigns) {
    json::Value query;
    query["kind"] = kind;
    query["problem"] = json::parse(util::readFile(problemPath));
    if (kind == "enumerate")
        query["max_designs"] = static_cast<std::int64_t>(maxDesigns);
    const net::ClientResponse resp =
        client.post("/v1/query", json::write(query));
    if (resp.status == 400) {
        std::printf("%s", resp.body.c_str());
        return 2;
    }
    std::printf("%s\n", json::writePretty(json::parse(resp.body)).c_str());
    if (resp.status != 200) return 1; // 429 shed / 500 error
    const json::Value result = json::parse(resp.body);
    return result.at("feasible").asBool() ? 0 : 1;
}

int remoteBatch(net::HttpClient& client, const std::string& batchPath,
                int deadlineMs, int portfolio, bool quiet = false) {
    // A locally-unreadable batch file exits 2 with a one-line JSON error,
    // exactly like local mode; schema errors the server detects come back
    // as a 400 and exit 2 below.
    json::Value doc;
    try {
        doc = json::parse(util::readFile(batchPath));
    } catch (const std::exception& e) {
        json::Value detail;
        detail["kind"] = dynamic_cast<const ParseError*>(&e) != nullptr
                             ? "parse_error"
                             : "error";
        detail["message"] = std::string(e.what());
        json::Value err;
        err["error"] = std::move(detail);
        std::printf("%s\n", json::write(err).c_str());
        return 2;
    }
    // Flag overrides are applied per query, matching local precedence where
    // --deadline-ms / --portfolio rewrite every request after parsing.
    if (deadlineMs >= 0 || portfolio > 0) {
        json::Array* queries = nullptr;
        if (doc.isArray()) {
            queries = &doc.asArray();
        } else if (doc.asObject().contains("queries")) {
            queries = &doc["queries"].asArray();
        }
        if (queries != nullptr) {
            for (json::Value& q : *queries) {
                if (!q.isObject()) continue;
                if (deadlineMs >= 0)
                    q["timeout_ms"] = static_cast<std::int64_t>(deadlineMs);
                if (portfolio > 0)
                    q["portfolio_workers"] =
                        static_cast<std::int64_t>(portfolio);
            }
        }
    }
    const net::ClientResponse resp = client.post("/v1/batch", json::write(doc));
    if (resp.status == 400) {
        std::printf("%s", resp.body.c_str());
        return 2;
    }
    if (resp.status != 200) {
        std::fprintf(stderr, "larctl: server answered %d\n%s", resp.status,
                     resp.body.c_str());
        return 1;
    }
    const json::Value report = json::parse(resp.body);
    if (!quiet) std::printf("%s\n", json::writePretty(report).c_str());
    return report.at("any_failed_or_infeasible").asBool() ? 1 : 0;
}

// ---------------------------------------------------------------------------
// session client mode: the stateful what-if workflow over larserved.
//
//   larctl --url U session create <problem.json>      open; prints {"id",...}
//   larctl --url U session ask    <id> <variation.json|->  one variation
//                                                      ('-' reads stdin)
//   larctl --url U session renew  <id>                 extend the lease
//   larctl --url U session close  <id>                 close it
//   larctl --url U session run    <problem.json> [script.json]
//       create → ask every variation in the script (a JSON array; when
//       omitted, one variation object per stdin line) → close. Exit 0 when
//       every ask was answered, 1 when any was infeasible or failed, 2 on
//       malformed input.
// ---------------------------------------------------------------------------

/// Posts one variation; prints the answer. Returns 0 feasible, 1 not
/// (infeasible/timeout/cancelled), 2 client mistake (bad body, unknown id).
int sessionAsk(net::HttpClient& client, const std::string& id,
               const std::string& variationText) {
    const net::ClientResponse resp = client.post(
        "/v1/session/" + id + "/ask", variationText.empty() ? "{}"
                                                            : variationText);
    std::printf("%s\n", json::writePretty(json::parse(resp.body)).c_str());
    if (resp.status == 400 || resp.status == 404) return 2;
    if (resp.status != 200) return 1;
    return json::parse(resp.body).at("feasible").asBool() ? 0 : 1;
}

std::string readStreamAll(std::FILE* stream) {
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, stream)) > 0) text.append(buf, n);
    return text;
}

int remoteSession(net::HttpClient& client, int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string verb = argv[2];

    if (verb == "create" && argc == 4) {
        json::Value body;
        body["problem"] = json::parse(util::readFile(argv[3]));
        const net::ClientResponse resp =
            client.post("/v1/session", json::write(body));
        std::printf("%s\n", json::writePretty(json::parse(resp.body)).c_str());
        if (resp.status == 400) return 2;
        return resp.status == 200 ? 0 : 1;
    }
    if (verb == "ask" && argc == 5) {
        const std::string variation = std::strcmp(argv[4], "-") == 0
                                          ? readStreamAll(stdin)
                                          : util::readFile(argv[4]);
        return sessionAsk(client, argv[3], variation);
    }
    if (verb == "renew" && argc == 4) {
        const net::ClientResponse resp =
            client.post("/v1/session/" + std::string(argv[3]) + "/renew", "{}");
        std::printf("%s\n", json::writePretty(json::parse(resp.body)).c_str());
        return resp.status == 200 ? 0 : 1;
    }
    if (verb == "close" && argc == 4) {
        const net::ClientResponse resp =
            client.del("/v1/session/" + std::string(argv[3]));
        std::printf("%s\n", json::writePretty(json::parse(resp.body)).c_str());
        return resp.status == 200 ? 0 : 1;
    }
    if (verb == "run" && (argc == 4 || argc == 5)) {
        json::Value body;
        body["problem"] = json::parse(util::readFile(argv[3]));
        const net::ClientResponse created =
            client.post("/v1/session", json::write(body));
        std::printf("%s\n",
                    json::writePretty(json::parse(created.body)).c_str());
        if (created.status == 400) return 2;
        if (created.status != 200) return 1;
        const std::string id = json::parse(created.body).at("id").asString();

        int worst = 0;
        if (argc == 5) {
            const json::Value script = json::parse(util::readFile(argv[4]));
            for (const json::Value& variation : script.asArray()) {
                const int rc = sessionAsk(client, id, json::write(variation));
                if (rc > worst) worst = rc;
            }
        } else {
            // One variation object per stdin line; blank lines are skipped.
            std::string line;
            int ch = 0;
            while ((ch = std::fgetc(stdin)) != EOF) {
                if (ch != '\n') {
                    line.push_back(static_cast<char>(ch));
                    continue;
                }
                if (!line.empty()) {
                    const int rc = sessionAsk(client, id, line);
                    if (rc > worst) worst = rc;
                }
                line.clear();
            }
            if (!line.empty()) {
                const int rc = sessionAsk(client, id, line);
                if (rc > worst) worst = rc;
            }
        }
        (void)client.del("/v1/session/" + id);
        return worst;
    }
    return usage();
}

/// Fetches one retained trace from the server's flight recorder. Exit 0
/// found, 1 unknown id (or other server failure).
int remoteTrace(net::HttpClient& client, const std::string& id, bool chrome) {
    const net::ClientResponse resp = client.get(
        "/v1/debug/traces/" + id + (chrome ? "?format=chrome" : ""));
    if (resp.status != 200) {
        std::fprintf(stderr, "larctl: server answered %d\n%s", resp.status,
                     resp.body.c_str());
        return 1;
    }
    if (chrome) {
        // The raw trace_event document — keep it byte-exact for Perfetto.
        std::fputs(resp.body.c_str(), stdout);
        return 0;
    }
    std::printf("%s\n", json::writePretty(json::parse(resp.body)).c_str());
    return 0;
}

int remoteMain(const std::string& url, const std::string& traceId,
               long retries, int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    const net::HttpUrl parsed = net::parseHttpUrl(url);
    net::HttpClient client(parsed.host, parsed.port);
    if (!traceId.empty()) client.setHeader("X-Lar-Trace-Id", traceId);
    // Resilience defaults: a couple of bounded retries so one shed response
    // (429/503 + Retry-After) or transient reset does not fail the command;
    // exit codes are the same as ever once attempts run out.
    net::RetryOptions retry;
    retry.maxAttempts = static_cast<int>(retries) + 1;
    client.setRetryOptions(retry);

    if ((command == "feasible" || command == "optimize") && argc == 3)
        return remoteQuery(client, command, argv[2], 4);
    if (command == "enumerate" && (argc == 3 || argc == 4)) {
        long maxDesigns = 4;
        if (argc == 4 && (!parseLongArg(argv[3], maxDesigns) || maxDesigns < 1)) {
            std::fprintf(stderr,
                         "larctl: maxDesigns must be a number >= 1, got '%s'\n",
                         argv[3]);
            return 1;
        }
        return remoteQuery(client, command, argv[2],
                           static_cast<int>(maxDesigns));
    }
    if (command == "batch") {
        std::string batchPath;
        int deadlineMs = -1;
        int portfolio = 0;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--deadline-ms") == 0 ||
                std::strcmp(argv[i], "--portfolio") == 0) {
                const bool isDeadline = argv[i][2] == 'd';
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "larctl: %s needs a number\n", argv[i]);
                    return 1;
                }
                long value = 0;
                if (!parseLongArg(argv[i + 1], value) ||
                    (isDeadline ? value < 0 : (value < 1 || value > 16))) {
                    std::fprintf(stderr, "larctl: bad value for %s: '%s'\n",
                                 argv[i], argv[i + 1]);
                    return 1;
                }
                if (isDeadline) deadlineMs = static_cast<int>(value);
                else portfolio = static_cast<int>(value);
                ++i;
            } else if (std::strcmp(argv[i], "--max-queue") == 0 ||
                       std::strcmp(argv[i], "--trace-out") == 0) {
                std::fprintf(stderr,
                             "larctl: %s is not supported with --url (set it "
                             "on the larserved command line)\n",
                             argv[i]);
                return 1;
            } else if (batchPath.empty() && argv[i][0] != '-') {
                batchPath = argv[i];
            } else {
                std::fprintf(stderr, "larctl: unexpected argument '%s'\n",
                             argv[i]);
                return usage();
            }
        }
        if (batchPath.empty()) return usage();
        return remoteBatch(client, batchPath, deadlineMs, portfolio);
    }
    if (command == "session") return remoteSession(client, argc, argv);
    if (command == "trace" && (argc == 3 || argc == 4)) {
        bool chrome = false;
        if (argc == 4) {
            if (std::strcmp(argv[3], "--chrome") != 0) return usage();
            chrome = true;
        }
        return remoteTrace(client, argv[2], chrome);
    }
    if (command == "top" && argc == 2) {
        const net::ClientResponse resp = client.get("/statusz");
        if (resp.status != 200) {
            std::fprintf(stderr, "larctl: server answered %d\n", resp.status);
            return 1;
        }
        std::fputs(resp.body.c_str(), stdout);
        return 0;
    }
    if (command == "version" && argc == 2) {
        const net::ClientResponse resp = client.get("/version");
        if (resp.status != 200) {
            std::fprintf(stderr, "larctl: server answered %d\n", resp.status);
            return 1;
        }
        std::printf("%s\n", json::writePretty(json::parse(resp.body)).c_str());
        return 0;
    }
    if (command == "metrics" && argc == 2) {
        const net::ClientResponse resp = client.get("/metrics");
        if (resp.status != 200) {
            std::fprintf(stderr, "larctl: server answered %d\n", resp.status);
            return 1;
        }
        std::fputs(resp.body.c_str(), stdout);
        return 0;
    }
    std::fprintf(stderr, "larctl: command '%s' is not available with --url\n",
                 command.c_str());
    return usage();
}

} // namespace

int main(int argc, char** argv) {
    // Peel off the --url and --trace-id flags anywhere before/after the
    // command; everything else keeps its position.
    std::string url;
    std::string traceId;
    long retries = 2;
    bool retryFlagSeen = false;
    std::vector<char*> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--url") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "larctl: --url needs an address\n");
                return 2;
            }
            url = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-id") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "larctl: --trace-id needs a value\n");
                return 2;
            }
            traceId = argv[++i];
        } else if (std::strcmp(argv[i], "--retries") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "larctl: --retries needs a number\n");
                return 2;
            }
            if (!parseLongArg(argv[i + 1], retries) || retries < 0 ||
                retries > 100) {
                std::fprintf(stderr, "larctl: bad value for --retries: '%s'\n",
                             argv[i + 1]);
                return 2;
            }
            retryFlagSeen = true;
            ++i;
        } else {
            rest.push_back(argv[i]);
        }
    }
    argc = static_cast<int>(rest.size());
    argv = rest.data();
    if (!url.empty()) {
        try {
            return remoteMain(url, traceId, retries, argc, argv);
        } catch (const Error& e) {
            std::fprintf(stderr, "larctl: %s\n", e.what());
            return 1;
        }
    }
    if (!traceId.empty()) {
        std::fprintf(stderr, "larctl: --trace-id needs --url (the trace "
                             "identity travels in an HTTP header)\n");
        return 2;
    }
    if (retryFlagSeen) {
        std::fprintf(stderr, "larctl: --retries needs --url (it configures "
                             "the HTTP client)\n");
        return 2;
    }

    if (argc < 2) return usage();
    const std::string command = argv[1];
    try {
        if (command == "export-kb" && argc == 3) return cmdExportKb(argv[2]);
        if (command == "validate" && argc == 3) return cmdValidate(argv[2]);
        if (command == "feasible" && argc == 4)
            return cmdFeasible(argv[2], argv[3]);
        if (command == "optimize" && argc == 4)
            return cmdOptimize(argv[2], argv[3]);
        if (command == "enumerate" && (argc == 4 || argc == 5))
            return cmdEnumerate(argv[2], argv[3],
                                argc == 5 ? std::atoi(argv[4]) : 4);
        if (command == "batch" || command == "metrics") {
            bool asJson = false;
            std::string traceOut;
            int deadlineMs = -1;
            long maxQueue = -1;
            int portfolio = 0;
            std::vector<std::string> positional;
            for (int i = 2; i < argc; ++i) {
                if (std::strcmp(argv[i], "--trace-out") == 0) {
                    if (i + 1 >= argc) {
                        std::fprintf(stderr,
                                     "larctl: --trace-out needs a directory\n");
                        return 1;
                    }
                    traceOut = argv[++i];
                } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
                    if (i + 1 >= argc) {
                        std::fprintf(stderr,
                                     "larctl: --deadline-ms needs a number\n");
                        return 1;
                    }
                    long value = 0;
                    if (!parseLongArg(argv[++i], value) || value < 0) {
                        std::fprintf(stderr,
                                     "larctl: --deadline-ms must be a number "
                                     ">= 0, got '%s'\n",
                                     argv[i]);
                        return 1;
                    }
                    deadlineMs = static_cast<int>(value);
                } else if (std::strcmp(argv[i], "--max-queue") == 0) {
                    if (i + 1 >= argc) {
                        std::fprintf(stderr,
                                     "larctl: --max-queue needs a number\n");
                        return 1;
                    }
                    if (!parseLongArg(argv[++i], maxQueue) || maxQueue < 0) {
                        std::fprintf(stderr,
                                     "larctl: --max-queue must be a number "
                                     ">= 0 (0 = unbounded), got '%s'\n",
                                     argv[i]);
                        return 1;
                    }
                } else if (std::strcmp(argv[i], "--portfolio") == 0) {
                    if (i + 1 >= argc) {
                        std::fprintf(stderr,
                                     "larctl: --portfolio needs a worker "
                                     "count\n");
                        return 1;
                    }
                    long value = 0;
                    if (!parseLongArg(argv[++i], value) || value < 1 ||
                        value > 16) {
                        std::fprintf(stderr,
                                     "larctl: --portfolio must be a number in "
                                     "1..16 (1 = single solver), got '%s'\n",
                                     argv[i]);
                        return 1;
                    }
                    portfolio = static_cast<int>(value);
                } else if (std::strcmp(argv[i], "--json") == 0) {
                    asJson = true;
                } else {
                    positional.emplace_back(argv[i]);
                }
            }
            const bool isMetrics = command == "metrics";
            if (!isMetrics && positional.size() < 2) return usage();
            if (isMetrics && positional.size() == 1) return usage();
            if (positional.size() > 3) return usage();
            long threads = 0;
            if (positional.size() == 3 &&
                (!parseLongArg(positional[2].c_str(), threads) ||
                 threads < 0)) {
                std::fprintf(stderr,
                             "larctl: thread count must be a number >= 0 (0 = "
                             "one per hardware thread), got '%s'\n",
                             positional[2].c_str());
                return 1;
            }
            if (isMetrics)
                return cmdMetrics(asJson,
                                  positional.empty() ? "" : positional[0],
                                  positional.empty() ? "" : positional[1],
                                  static_cast<unsigned>(threads), portfolio);
            return cmdBatch(positional[0], positional[1],
                            static_cast<unsigned>(threads), traceOut,
                            /*quiet=*/false, deadlineMs, maxQueue, portfolio);
        }
        if (command == "suggest" && argc == 4)
            return cmdSuggest(argv[2], argv[3]);
        if (command == "ordering" && argc == 4)
            return cmdOrdering(argv[2], argv[3]);
        if (command == "sheet" && argc == 4) return cmdSheet(argv[2], argv[3]);
        if (command == "diff" && argc == 4) return cmdDiff(argv[2], argv[3]);
    } catch (const Error& e) {
        std::fprintf(stderr, "larctl: %s\n", e.what());
        return 1;
    }
    return usage();
}
