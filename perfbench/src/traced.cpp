#include "traced.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "json/parse.hpp"
#include "json/write.hpp"
#include "reason/compile.hpp"
#include "reason/problem_io.hpp"
#include "reason/service.hpp"
#include "reason/service_io.hpp"
#include "reason/session.hpp"
#include "serve/session_io.hpp"

using namespace lar;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// larserved's ServiceOptions under its default flags.
reason::ServiceOptions larservedServiceOptions() {
    reason::ServiceOptions options;
    options.workers = 0;
    options.maxQueueDepth = 0;
    options.warmStartCapacity = 32;
    options.flightRecorderCapacity = 256;
    return options;
}

/// One replayed request, timed layer by layer.
struct Sample {
    double decodeMs = 0, serviceMs = 0, writeMs = 0;
    double compileMs = 0, encodeMs = 0, solveMs = 0, inprocessMs = 0;
    std::optional<double> extractMs; ///< only when the solve found a model
    double unattributedMs = 0;
    bool cacheHit = false;
    std::uint64_t conflicts = 0, propagations = 0, solves = 0;
    std::uint64_t probes = 0, failedLiterals = 0;
};

void takeStats(Sample& s, const sat::SolverStats& after,
               const sat::SolverStats& before, double solveMs) {
    s.solveMs = solveMs;
    s.inprocessMs = after.simplifyMs - before.simplifyMs;
    s.conflicts = after.conflicts - before.conflicts;
    s.propagations = after.propagations - before.propagations;
    s.solves = after.solves - before.solves;
    s.probes = after.probedLiterals - before.probedLiterals;
    s.failedLiterals = after.failedLiterals - before.failedLiterals;
}

class Replayer {
public:
    Replayer(RequestStream& stream, const kb::KnowledgeBase& kb,
             CheckReport& report)
        : stream_(stream), kb_(kb), report_(report),
          service_(larservedServiceOptions()),
          shadow_(larservedServiceOptions()) {}

    std::vector<Metric> run(const std::vector<Exchange>& exchanges,
                            const std::vector<double>& rttMs) {
        const bool session = stream_.kind() == WorkloadKind::SessionAsk;
        if (session) openSession();
        for (std::size_t i = 0; i < stream_.warmupCount(); ++i) {
            const Request r = stream_.next();
            (void)(session ? ask(r) : query(r));
        }

        const reason::CacheStats cacheBefore = service_.cacheStats();
        std::vector<Sample> samples;
        std::int64_t lastSolves = -1;
        for (const Exchange& e : exchanges) {
            const Request r = stream_.next();
            if (r.id != e.request.id || r.body != e.request.body)
                throw std::logic_error("traced replay diverged from the "
                                       "end-to-end sequence at " + r.id);
            Answer answer;
            Sample s = session ? ask(r, &answer, &lastSolves) : query(r, &answer);
            ++report_.crossChecked;
            const auto e2e = report_.answers.find(r.id);
            if (e2e == report_.answers.end() || !(e2e->second == answer))
                fail(r, "traced answer differs from the end-to-end answer");
            samples.push_back(s);
        }
        const reason::CacheStats cacheAfter = service_.cacheStats();
        if (session && (cacheAfter.hits != cacheBefore.hits ||
                        cacheAfter.misses != cacheBefore.misses))
            failRun("self-check: a timed session ask compiled");
        return summarize(samples, exchanges, rttMs, session);
    }

private:
    void fail(const Request& r, const std::string& why) {
        ++report_.failed;
        noteProblem(report_, r.id + " (" + r.key + "): " + why);
    }
    void failRun(const std::string& why) {
        ++report_.failed;
        noteProblem(report_, why);
    }

    /// One /v1/query request: the route's calls on the main Service, then
    /// Service::run's steps one at a time on the shadow Service.
    Sample query(const Request& r, Answer* answer = nullptr) {
        Sample s;
        Clock::time_point t = Clock::now();
        const json::Value doc = json::parse(r.body);
        const reason::QueryRequest request =
            reason::queryRequestFromJson(doc, kb_, reason::QueryOptions{}, 0);
        s.decodeMs = msSince(t);

        t = Clock::now();
        const reason::QueryResult result = service_.run(request);
        s.serviceMs = msSince(t);

        t = Clock::now();
        const std::string written = json::write(
            reason::resultToJson(result, request.options.collectTrace));
        s.writeMs = msSince(t);

        // The shadow path mirrors Service::run with warm starting on (the
        // larserved default): the fingerprint's snapshot is imported, and a
        // refreshed one stored when the solver still allows exporting it.
        const bool optimize = request.kind == reason::QueryKind::Optimize;
        reason::QueryOptions options = request.options;
        options.warmStart = shadow_.snapshotFor(request.problem);
        options.captureSnapshot = true;
        double missCompileMs = 0;
        t = Clock::now();
        const std::shared_ptr<const reason::Compilation> compilation =
            shadow_.compilationFor(request.problem, s.cacheHit, missCompileMs);
        s.compileMs = msSince(t);

        t = Clock::now();
        reason::SolverSession solver(compilation, options);
        s.encodeMs = msSince(t);

        Answer shadow;
        bool sat = false;
        t = Clock::now();
        if (optimize) {
            const smt::OptimizeResult opt =
                solver.backend().optimize(compilation->objectives());
            sat = opt.feasible;
            shadow.costs = opt.costs;
        } else {
            sat = solver.backend().check() == smt::CheckStatus::Sat;
        }
        takeStats(s, solver.backend().stats(), {}, msSince(t));
        shadow.verdict = sat ? "sat" : "unsat";
        if (sat) {
            t = Clock::now();
            const reason::Design design = solver.extractDesign();
            s.extractMs = msSince(t);
        }
        sat::SolverSnapshot snapshot = solver.exportSnapshot();
        if (!snapshot.empty())
            shadow_.storeSnapshot(request.problem,
                                  std::make_shared<const sat::SolverSnapshot>(
                                      std::move(snapshot)));

        // checkFeasible() never reads a design back; optimize() does.
        s.unattributedMs = s.serviceMs - s.compileMs - s.encodeMs - s.solveMs -
                           (optimize ? s.extractMs.value_or(0.0) : 0.0);

        if (answer != nullptr) {
            answer->verdict = reason::verdictName(result.verdict);
            if (optimize && result.design.has_value())
                answer->costs = result.design->objectiveCosts;
            if (!(shadow == *answer))
                fail(r, "step-by-step replay differs from Service::run");
            if (s.cacheHit != result.trace.cacheHit)
                fail(r, "shadow cache disagrees with the Service cache");
        }
        return s;
    }

    void openSession() {
        const reason::Problem problem = reason::problemFromJson(
            json::parse(stream_.sessionCreateBody()).at("problem"), kb_);
        // The shadow session is built the way SessionManager::create builds
        // its WhatIfSession; timing it gives the one-time compile and encode
        // cost that every ask reuses.
        bool hit = false;
        double missCompileMs = 0;
        Clock::time_point t = Clock::now();
        const std::shared_ptr<const reason::Compilation> compilation =
            shadow_.compilationFor(problem, hit, missCompileMs);
        createCompileMs_ = msSince(t);
        createCacheHit_ = hit;
        reason::QueryOptions options = reason::SessionOptions{}.query;
        options.warmStart = shadow_.snapshotFor(problem);
        t = Clock::now();
        heldSolver_ = std::make_unique<reason::SolverSession>(compilation, options);
        createEncodeMs_ = msSince(t);

        sessions_ = std::make_unique<reason::SessionManager>(
            service_, reason::SessionOptions{});
        const reason::SessionManager::CreateResult created =
            sessions_->create(problem);
        if (created.shed) throw std::runtime_error("traced session create shed");
        sessionId_ = created.id;
    }

    /// One /v1/session/{id}/ask: the route's calls on the SessionManager,
    /// then the same assumptions checked on the shadow held solver.
    Sample ask(const Request& r, Answer* answer = nullptr,
               std::int64_t* lastSolves = nullptr) {
        Sample s;
        Clock::time_point t = Clock::now();
        const json::Value doc = json::parse(r.body);
        const reason::Variation variation = serve::variationFromJson(doc);
        s.decodeMs = msSince(t);

        t = Clock::now();
        const std::optional<reason::SessionManager::AskOutcome> outcome =
            sessions_->ask(sessionId_, variation);
        s.serviceMs = msSince(t);
        if (!outcome.has_value())
            throw std::runtime_error("traced session vanished");

        t = Clock::now();
        const std::string written =
            json::write(serve::answerToJson(outcome->answer, &outcome->trace));
        s.writeMs = msSince(t);

        // WhatIfSession::ask turns each pin into an assumption literal.
        reason::SolverSession& solver = *heldSolver_;
        std::vector<smt::NodeId> assumptions;
        for (const auto& [name, include] : variation.systems) {
            const smt::NodeId var = solver.compilation().systemVar(name);
            assumptions.push_back(include ? var : solver.store().mkNot(var));
        }
        const sat::SolverStats before = solver.backend().stats();
        t = Clock::now();
        const bool sat = solver.backend().check(assumptions) ==
                         smt::CheckStatus::Sat;
        takeStats(s, solver.backend().stats(), before, msSince(t));
        if (sat) {
            t = Clock::now();
            const reason::Design design = solver.extractDesign();
            s.extractMs = msSince(t);
        }
        s.unattributedMs =
            s.serviceMs - s.solveMs - s.extractMs.value_or(0.0);
        s.cacheHit = createCacheHit_;

        if (answer != nullptr) {
            answer->verdict = reason::verdictName(outcome->answer.verdict);
            if (answer->verdict != (sat ? "sat" : "unsat"))
                fail(r, "shadow held solver differs from SessionManager::ask");
            // Cumulative stats grow only while the one held solver answers.
            const auto solves =
                static_cast<std::int64_t>(outcome->trace.stats.solves);
            if (solves <= *lastSolves)
                fail(r, "self-check: session solver was rebuilt");
            *lastSolves = solves;
        }
        return s;
    }

    std::vector<Metric> summarize(const std::vector<Sample>& samples,
                                  const std::vector<Exchange>& exchanges,
                                  const std::vector<double>& rttMs,
                                  bool session) {
        const std::size_t n = samples.size();
        const auto med = [&](auto field) {
            std::vector<double> v;
            for (const Sample& s : samples) v.push_back(field(s));
            return median(std::move(v));
        };
        std::vector<double> extract;
        std::uint64_t probes = 0, failed = 0;
        std::size_t hits = 0;
        for (const Sample& s : samples) {
            if (s.extractMs.has_value()) extract.push_back(*s.extractMs);
            probes += s.probes;
            failed += s.failedLiterals;
            hits += s.cacheHit ? 1 : 0;
        }
        std::vector<double> bytes;
        for (const Exchange& e : exchanges)
            bytes.push_back(static_cast<double>(e.reply.body.size()));

        // A session compiles and encodes once, at create; per ask that cost
        // is the create's share. No ask compiles or encodes (self-checked).
        const double perAsk = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
        const double cacheHitRatio =
            session ? (createCacheHit_ ? 1.0 : 0.0)
                    : (n > 0 ? static_cast<double>(hits) / static_cast<double>(n)
                             : 0.0);
        if (stream_.kind() == WorkloadKind::FeasibleHot && cacheHitRatio != 1.0)
            failRun("self-check: feasible_hot cache_hit_ratio is not 1");
        if (stream_.kind() == WorkloadKind::OptimizeCold && cacheHitRatio != 0.0)
            failRun("self-check: optimize_cold cache_hit_ratio is not 0");

        const std::size_t compileSamples = session ? 1 : n;
        return {
            {"net.rtt_ms", median(rttMs), "ms", rttMs.size()},
            {"serve.decode_ms", med([](const Sample& s) { return s.decodeMs; }), "ms", n},
            {"serve.write_ms", med([](const Sample& s) { return s.writeMs; }), "ms", n},
            {"serve.response_bytes", median(bytes), "bytes", bytes.size()},
            {"reason.compile_ms",
             session ? createCompileMs_ * perAsk
                     : med([](const Sample& s) { return s.compileMs; }),
             "ms", compileSamples},
            {"reason.cache_hit_ratio", cacheHitRatio, "ratio", compileSamples},
            {"smt.encode_ms",
             session ? createEncodeMs_ * perAsk
                     : med([](const Sample& s) { return s.encodeMs; }),
             "ms", compileSamples},
            {"smt.solve_ms", med([](const Sample& s) { return s.solveMs; }), "ms", n},
            // Asks do not inprocess (the held solver simplified during
            // the warm-up asks); on session_ask this is that cost per ask.
            {"sat.inprocess_ms",
             session ? heldSolver_->backend().stats().simplifyMs * perAsk
                     : med([](const Sample& s) { return s.inprocessMs; }),
             "ms", n},
            {"sat.search_ms",
             med([](const Sample& s) { return s.solveMs - s.inprocessMs; }), "ms", n},
            {"sat.conflicts",
             med([](const Sample& s) { return static_cast<double>(s.conflicts); }),
             "count", n},
            {"sat.propagations",
             med([](const Sample& s) { return static_cast<double>(s.propagations); }),
             "count", n},
            {"sat.solves",
             med([](const Sample& s) { return static_cast<double>(s.solves); }),
             "count", n},
            {"sat.failed_literal_ratio",
             probes > 0 ? static_cast<double>(failed) / static_cast<double>(probes)
                        : 0.0,
             "ratio", static_cast<std::size_t>(probes)},
            {"reason.extract_ms", median(extract), "ms", extract.size()},
            {"reason.service_ms", med([](const Sample& s) { return s.serviceMs; }), "ms", n},
            {"reason.unattributed_ms",
             med([](const Sample& s) { return s.unattributedMs; }), "ms", n},
        };
    }

    RequestStream& stream_;
    const kb::KnowledgeBase& kb_;
    CheckReport& report_;
    reason::Service service_; ///< answers like larserved's Service
    reason::Service shadow_;  ///< same sequence, driven one step at a time
    std::unique_ptr<reason::SessionManager> sessions_;
    std::string sessionId_;
    std::unique_ptr<reason::SolverSession> heldSolver_;
    double createCompileMs_ = 0, createEncodeMs_ = 0;
    bool createCacheHit_ = false;
};

} // namespace

std::vector<Metric> runTraced(RequestStream& stream,
                              const std::vector<Exchange>& exchanges,
                              const std::vector<double>& rttMs,
                              const kb::KnowledgeBase& kb, CheckReport& report) {
    Replayer replayer(stream, kb, report);
    return replayer.run(exchanges, rttMs);
}

} // namespace perfbench
