#include "reason/session.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/fault_injector.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace lar::reason {

namespace {

/// Pre-interned lar_session_* handles (same pattern as ServiceMetrics).
struct SessionMetrics {
    obs::Counter& created;
    obs::Counter& closed;
    obs::Counter& expired;
    obs::Counter& shed;
    obs::Counter& asks;
    obs::Gauge& active;
    obs::Histogram& askLatencyMs;

    static SessionMetrics& get() {
        static SessionMetrics m = [] {
            obs::Registry& reg = obs::Registry::global();
            return SessionMetrics{
                reg.counter("lar_session_created_total",
                            "What-if sessions opened"),
                reg.counter("lar_session_closed_total",
                            "What-if sessions closed by the client"),
                reg.counter("lar_session_expired_total",
                            "What-if sessions evicted on lease expiry"),
                reg.counter("lar_session_shed_total",
                            "Session creates refused by admission control"),
                reg.counter("lar_session_asks_total",
                            "Variations answered across all sessions"),
                reg.gauge("lar_session_active", "Live what-if sessions"),
                reg.histogram("lar_session_ask_latency_ms",
                              "Per-ask latency inside SessionManager",
                              obs::latencyBucketsMs()),
            };
        }();
        return m;
    }
};

std::string makeSessionId(std::uint64_t seq) {
    // splitmix64 spreads the sequence number so ids don't look consecutive
    // (they are not a security boundary — the server binds to localhost by
    // default — just collision-free and unambiguous in logs).
    std::uint64_t state = seq;
    const std::uint64_t word = util::splitmix64(state);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "s-%016llx",
                  static_cast<unsigned long long>(word));
    return buf;
}

} // namespace

SessionManager::SessionManager(Service& service, const SessionOptions& options)
    : service_(service), options_(options) {
    sweeper_ = std::thread([this] { sweep(); });
}

SessionManager::~SessionManager() {
    {
        const std::lock_guard<std::mutex> lock(sweepMutex_);
        stopping_ = true;
    }
    sweepCv_.notify_all();
    sweeper_.join();
    drain();
}

SessionManager::CreateResult SessionManager::create(const Problem& problem) {
    SessionMetrics& metrics = SessionMetrics::get();
    CreateResult result;
    result.leaseTtlMs = options_.leaseTtl.count();

    if (service_.draining()) {
        result.shed = true;
        metrics.shed.inc();
        return result;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (options_.maxSessions > 0 &&
            sessions_.size() >= options_.maxSessions) {
            result.shed = true;
            metrics.shed.inc();
            return result;
        }
    }

    // Compile (or cache-hit) outside the session-map lock: compilation can
    // take milliseconds and must not block asks on other sessions.
    const std::shared_ptr<const Compilation> compilation =
        service_.compilationFor(problem, result.cacheHit, result.compileMs);

    auto session = std::make_shared<Session>();
    QueryOptions query = options_.query;
    query.cancelFlag = &session->cancel;
    query.warmStart = service_.snapshotFor(problem);
    session->whatIf = std::make_unique<WhatIfSession>(compilation, query);
    result.warmStarted = session->whatIf->warmStarted();
    result.warmStartClauses = session->whatIf->warmStartImported();
    service_.countWarmStartImport(result.warmStartClauses);

    {
        const std::lock_guard<std::mutex> lock(mutex_);
        // Re-check the shed conditions: compilation ran unlocked.
        if (service_.draining() ||
            (options_.maxSessions > 0 &&
             sessions_.size() >= options_.maxSessions)) {
            result.shed = true;
            metrics.shed.inc();
            return result;
        }
        session->id = makeSessionId(++nextId_);
        session->leaseExpiry = Clock::now() + options_.leaseTtl;
        sessions_.emplace(session->id, session);
        result.id = session->id;
        metrics.active.set(static_cast<double>(sessions_.size()));
    }
    metrics.created.inc();
    util::logLineJson(util::LogLevel::Info, "session_created",
                      {{"id", result.id},
                       {"warm_started", result.warmStarted},
                       {"warm_clauses",
                        static_cast<std::uint64_t>(result.warmStartClauses)}});
    return result;
}

std::shared_ptr<SessionManager::Session> SessionManager::find(
    const std::string& id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
}

std::optional<SessionManager::AskOutcome> SessionManager::ask(
    const std::string& id, const Variation& variation,
    const std::string& traceId, std::shared_ptr<obs::Trace> requestTrace) {
    const std::shared_ptr<Session> session = find(id);
    if (session == nullptr) return std::nullopt;

    SessionMetrics& metrics = SessionMetrics::get();
    std::optional<util::ScopedLogTraceId> logScope;
    if (!traceId.empty()) logScope.emplace(traceId);

    // Session asks share the Service's flight recorder and in-flight
    // registry with plain queries: one endpoint sees the whole process.
    // "queued" while waiting on the per-session ask serialization.
    const std::shared_ptr<InflightQuery> inflight =
        service_.flightRecorder().admit(id, traceId, /*sessionId=*/id,
                                        QueryKind::Feasibility);

    // Span collection mirrors Service::runTimed: join the request's trace
    // when the HTTP layer supplied one, otherwise a fresh collector.
    std::shared_ptr<obs::Trace> spanTrace = std::move(requestTrace);
    std::optional<obs::ScopedTrace> scopedTrace;
    std::optional<obs::Span> askSpan;
    if (obs::enabled()) {
        if (spanTrace == nullptr) spanTrace = std::make_shared<obs::Trace>();
        if (obs::currentContext().trace != spanTrace.get())
            scopedTrace.emplace(*spanTrace);
        askSpan.emplace("ask");
    }

    util::Stopwatch timer;
    AskOutcome outcome;
    std::uint64_t askIndex = 0;
    {
        // Per-session serialization: the backend is single-threaded.
        // Holding askMutex (not the manager mutex) keeps asks on *other*
        // sessions fully concurrent.
        const std::lock_guard<std::mutex> askLock(session->askMutex);
        inflight->phase.store(QueryPhase::Solve, std::memory_order_relaxed);
        askIndex = session->asks.fetch_add(1, std::memory_order_relaxed) + 1;
        util::FaultInjector::global().maybeFault("session.ask");
        outcome.answer = session->whatIf->ask(variation);
    }
    const double totalMs = timer.millis();
    askSpan.reset(); // close "ask" before the tree is exported
    scopedTrace.reset();
    service_.flightRecorder().finish(inflight);

    {
        // Renew the lease after the ask: a long solve must not expire its
        // own session. If the sweeper evicted it mid-solve, the session is
        // gone from the map and this renewal is a harmless no-op on the
        // (still-alive, shared) Session object.
        const std::lock_guard<std::mutex> lock(mutex_);
        session->leaseExpiry = Clock::now() + options_.leaseTtl;
    }

    outcome.trace.id = id + "#" + std::to_string(askIndex);
    outcome.trace.traceId = traceId;
    outcome.trace.kind = QueryKind::Feasibility;
    outcome.trace.backend = options_.query.backend;
    outcome.trace.cacheHit = true; // the session *is* the warm compilation
    outcome.trace.solveMs = totalMs;
    outcome.trace.totalMs = totalMs;
    traceAnswer(outcome.answer, outcome.trace);
    outcome.trace.warmStartAttempted = session->whatIf->warmStarted();
    outcome.trace.spans = spanTrace;
    service_.flightRecorder().record(outcome.trace);

    metrics.asks.inc();
    metrics.askLatencyMs.observe(totalMs);
    util::logLineJson(util::LogLevel::Info, "session_ask",
                      {{"id", id},
                       {"verdict", verdictName(outcome.answer.verdict)},
                       {"total_ms", totalMs}});
    return outcome;
}

bool SessionManager::renew(const std::string& id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    it->second->leaseExpiry = Clock::now() + options_.leaseTtl;
    return true;
}

void SessionManager::exportSnapshot(Session& session) {
    // Serialize against any in-flight ask: exportSnapshot reads solver
    // internals. Asks only add assumptions (never clauses), so the export
    // normally succeeds and the next session on this problem starts warm.
    const std::lock_guard<std::mutex> askLock(session.askMutex);
    sat::SolverSnapshot snap = session.whatIf->exportSnapshot();
    if (snap.empty()) return;
    service_.storeSnapshot(
        session.whatIf->compilation().problem(),
        std::make_shared<const sat::SolverSnapshot>(std::move(snap)));
}

bool SessionManager::close(const std::string& id) {
    std::shared_ptr<Session> session;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = sessions_.find(id);
        if (it == sessions_.end()) return false;
        session = std::move(it->second);
        sessions_.erase(it);
        SessionMetrics::get().active.set(
            static_cast<double>(sessions_.size()));
    }
    exportSnapshot(*session);
    SessionMetrics::get().closed.inc();
    util::logLineJson(util::LogLevel::Info, "session_closed", {{"id", id}});
    return true;
}

void SessionManager::drain() {
    std::vector<std::shared_ptr<Session>> victims;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        victims.reserve(sessions_.size());
        for (auto& [id, session] : sessions_) {
            session->cancel.store(true, std::memory_order_release);
            victims.push_back(session);
        }
        sessions_.clear();
        SessionMetrics::get().active.set(0.0);
    }
    // Export after cancelling: the cancel flag makes in-flight asks return
    // quickly, then the askMutex in exportSnapshot waits for each to leave.
    for (const std::shared_ptr<Session>& session : victims)
        exportSnapshot(*session);
    if (!victims.empty())
        util::logLineJson(util::LogLevel::Info, "session_drain",
                          {{"evicted",
                            static_cast<std::uint64_t>(victims.size())}});
}

std::size_t SessionManager::activeSessions() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

std::vector<SessionManager::SessionInfo> SessionManager::list() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Clock::time_point now = Clock::now();
    std::vector<SessionInfo> out;
    out.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) {
        SessionInfo info;
        info.id = id;
        info.asks = session->asks.load(std::memory_order_relaxed);
        info.leaseRemainingMs =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                session->leaseExpiry - now)
                .count();
        info.warmStarted = session->whatIf->warmStarted();
        out.push_back(std::move(info));
    }
    return out;
}

void SessionManager::sweep() {
    std::unique_lock<std::mutex> sweepLock(sweepMutex_);
    while (!stopping_) {
        sweepCv_.wait_for(sweepLock, options_.sweepInterval,
                          [this] { return stopping_; });
        if (stopping_) break;
        std::vector<std::shared_ptr<Session>> expired;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            const Clock::time_point now = Clock::now();
            for (auto it = sessions_.begin(); it != sessions_.end();) {
                if (it->second->leaseExpiry <= now) {
                    expired.push_back(it->second);
                    it = sessions_.erase(it);
                } else {
                    ++it;
                }
            }
            if (!expired.empty())
                SessionMetrics::get().active.set(
                    static_cast<double>(sessions_.size()));
        }
        for (const std::shared_ptr<Session>& session : expired) {
            exportSnapshot(*session);
            SessionMetrics::get().expired.inc();
            util::logLineJson(util::LogLevel::Info, "session_expired",
                              {{"id", session->id}});
        }
    }
}

} // namespace lar::reason
