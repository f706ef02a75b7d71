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
    obs::Gauge& active;

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
                reg.gauge("lar_session_active", "Live what-if sessions"),
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

QueryOptions cancellable(QueryOptions query, std::atomic<bool>& cancel) {
    query.cancelFlag = &cancel;
    return query;
}

/// One ask on a held solver: the variation's pins become the assumptions of
/// a feasibility run, and a Sat answer also carries the witness design.
/// Unknown names are a structured error that never reaches the solver: an
/// assumption that maps to nothing would make the ask vacuously feasible,
/// which is the worst possible answer to a typo.
Answer askOn(SolverSession& solver, const Variation& variation) {
    Compilation::Assumptions lowered =
        solver.compilation().assumptionsFor(variation, solver.store());
    if (!lowered.unknownNames.empty()) {
        Answer answer;
        answer.verdict = Verdict::Error;
        answer.unknownNames = std::move(lowered.unknownNames);
        answer.stats = solver.backend().stats();
        answer.warmStartImported = solver.warmStartImported();
        return answer;
    }
    solver.backend().restartDeadline(); // timeoutMs bounds each ask
    Answer answer = solver.run(QueryKind::Feasibility, 0, lowered.literals);
    if (answer.verdict == Verdict::Sat) answer.design = solver.extractDesign();
    return answer;
}

} // namespace

SessionManager::Session::Session(std::shared_ptr<const Compilation> compilation,
                                 QueryOptions query)
    : solver(std::move(compilation), cancellable(std::move(query), cancel)) {}

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

    QueryOptions query = options_.query;
    query.warmStart = service_.snapshotFor(problem);
    const auto session =
        std::make_shared<Session>(compilation, std::move(query));
    result.warmStarted = session->solver.warmStarted();
    result.warmStartClauses = session->solver.warmStartImported();

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
    // Counted only once admitted: a refused create's import never serves.
    service_.countWarmStartImport(result.warmStartClauses);
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

    // Session asks share the Service's query lifecycle: the same flight
    // recorder, in-flight registry ("queued" while waiting on the
    // per-session ask serialization), span joining and done log line.
    QueryRequest request;
    request.traceId = traceId;
    request.kind = QueryKind::Feasibility;
    request.options.backend = options_.query.backend;
    request.requestTrace = std::move(requestTrace);
    QueryScope scope(service_, request, id, /*admitted=*/nullptr,
                     /*sessionId=*/id);
    QueryResult& result = scope.result();
    AskOutcome outcome;
    try {
        // Per-session serialization: the backend is single-threaded.
        // Holding askMutex (not the manager mutex) keeps asks on *other*
        // sessions fully concurrent.
        const std::lock_guard<std::mutex> askLock(session->askMutex);
        scope.inflight().phase.store(QueryPhase::Solve,
                                     std::memory_order_relaxed);
        const std::uint64_t askIndex =
            session->asks.fetch_add(1, std::memory_order_relaxed) + 1;
        result.id = id + "#" + std::to_string(askIndex);
        util::FaultInjector::global().maybeFault("session.ask");
        util::Stopwatch solveTimer;
        outcome.answer = askOn(session->solver, variation);
        result.trace.solveMs = solveTimer.millis();
    } catch (const std::exception& e) {
        scope.fail(e);
        (void)scope.finish();
        throw;
    }

    {
        // Renew the lease after the ask: a long solve must not expire its
        // own session. If the sweeper evicted it mid-solve, the session is
        // gone from the map and this renewal is a harmless no-op on the
        // (still-alive, shared) Session object.
        const std::lock_guard<std::mutex> lock(mutex_);
        session->leaseExpiry = Clock::now() + options_.leaseTtl;
    }

    result.verdict = outcome.answer.verdict;
    result.trace.cacheHit = true; // the session *is* the warm compilation
    traceAnswer(outcome.answer, result.trace);
    result.trace.warmStartAttempted = session->solver.warmStarted();
    outcome.trace = scope.finish().trace;
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
    sat::SolverSnapshot snap = session.solver.exportSnapshot();
    if (snap.empty()) return;
    service_.storeSnapshot(
        session.solver.compilation().problem(),
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
        info.warmStarted = session->solver.warmStarted();
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
