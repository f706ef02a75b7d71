// Server-side what-if sessions with lease-based lifecycles.
//
// The paper's §5.1 workflow — change one pin, ask again — would solve cold
// on every round-trip through /v1/query. SessionManager makes the session a
// first-class server resource: create() compiles (or cache-hits) the
// problem once and holds a SolverSession over it; ask() lowers each
// variation to assumptions (Compilation::assumptionsFor) and answers it
// with a feasibility run on that held solver (SolverSession::run, the
// executor Engine queries use), so learnt clauses carry over from ask to
// ask; close() (or lease expiry) tears it down.
//
// Lifecycle and safety:
//  * every session holds a lease; ask() and renew() extend it, and a sweep
//    thread evicts sessions whose lease expired (an abandoned client cannot
//    pin solver state forever);
//  * asks on one session serialize on a per-session mutex (the underlying
//    solver is single-threaded); asks on different sessions run freely in
//    parallel;
//  * an in-flight ask keeps its Session alive through a shared_ptr even if
//    the sweeper evicts it mid-solve — the ask completes normally, later
//    asks get "unknown session";
//  * create() respects admission control: it sheds when the Service is
//    draining or the session cap is reached;
//  * drain() flips every session's cancel flag (in-flight asks return
//    Verdict::Cancelled, never Error) and evicts everything.
//
// Observability: every ask runs inside a reason::QueryScope, the lifecycle
// Service queries use — so an ask is listed in the Service's in-flight
// registry while it waits and solves, its spans join the request's trace
// under an "ask" root, and its trace (id "<session>#<n>") is recorded in
// the Service's flight recorder, logged as "session_ask" and counted in
// lar_session_asks_total — also when the ask throws.
//
// Warm-start coupling: create() seeds the session's solver from the
// Service's fingerprint-keyed snapshot cache, and close()/eviction exports
// the session's learnt state back into it — so the next session (or plain
// /v1/query) on the same problem starts warm.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "reason/compile.hpp"
#include "reason/service.hpp"

namespace lar::reason {

struct SessionOptions {
    /// Lease granted at create() and re-granted by every ask()/renew().
    std::chrono::milliseconds leaseTtl{60'000};
    /// Idle-eviction sweep cadence.
    std::chrono::milliseconds sweepInterval{1'000};
    /// Max live sessions; create() sheds beyond this (0 = unbounded).
    std::size_t maxSessions = 64;
    /// Solver knobs for every session (backend, budgets, seed). The
    /// manager fills warmStart/cancelFlag itself.
    QueryOptions query;
};

class SessionManager {
public:
    /// Outcome of create(): `shed` set means no session was made (service
    /// draining or session cap hit) and `id` is empty.
    struct CreateResult {
        std::string id;
        bool shed = false;
        std::int64_t leaseTtlMs = 0;
        bool warmStarted = false;           ///< snapshot accepted at import
        std::size_t warmStartClauses = 0;   ///< clauses integrated from it
        double compileMs = 0.0;             ///< 0 ≈ compilation cache hit
        bool cacheHit = false;
    };

    /// Outcome of one ask (nullopt from ask() means unknown/expired id).
    struct AskOutcome {
        Answer answer;    ///< stats cumulative per session
        QueryTrace trace; ///< kind=Feasibility, closed by QueryScope
    };

    /// The Service provides the compilation cache, the warm-start snapshot
    /// cache, and the draining signal; it must outlive the manager.
    explicit SessionManager(Service& service,
                            const SessionOptions& options = {});
    ~SessionManager();

    SessionManager(const SessionManager&) = delete;
    SessionManager& operator=(const SessionManager&) = delete;

    /// Compiles (or cache-hits) `problem` and opens a session over it.
    /// The KB behind `problem` must outlive the session.
    [[nodiscard]] CreateResult create(const Problem& problem);

    /// Answers a variation on session `id`, renewing its lease. Returns
    /// nullopt when the id is unknown or already evicted. `traceId` is the
    /// request's end-to-end trace identity (stamped into the trace, the log
    /// lines, and the in-flight registry entry); `requestTrace` the HTTP
    /// layer's span collector for the ask's spans to join — both optional
    /// for direct library callers.
    [[nodiscard]] std::optional<AskOutcome> ask(
        const std::string& id, const Variation& variation,
        const std::string& traceId = "",
        std::shared_ptr<obs::Trace> requestTrace = nullptr);

    /// Extends the lease; false when the id is unknown.
    [[nodiscard]] bool renew(const std::string& id);

    /// Closes the session, exporting its learnt state into the Service's
    /// warm-start cache; false when the id is unknown.
    bool close(const std::string& id);

    /// Cancels in-flight asks and evicts every session (lease GC for
    /// server drain). Learnt state is still exported. Idempotent; the
    /// manager sheds creates once the Service drains.
    void drain();

    [[nodiscard]] std::size_t activeSessions() const;
    [[nodiscard]] const SessionOptions& options() const { return options_; }

    /// One row of GET /v1/debug/sessions: what an operator needs to tell a
    /// healthy session from a leaked one.
    struct SessionInfo {
        std::string id;
        std::uint64_t asks = 0;          ///< variations answered so far
        std::int64_t leaseRemainingMs = 0; ///< negative = past due, not swept yet
        bool warmStarted = false;
    };
    /// Live sessions, unspecified order.
    [[nodiscard]] std::vector<SessionInfo> list() const;

private:
    using Clock = std::chrono::steady_clock;

    struct Session {
        Session(std::shared_ptr<const Compilation> compilation,
                QueryOptions query);

        std::string id;
        std::mutex askMutex;             ///< serializes asks on this session
        std::atomic<bool> cancel{false}; ///< flipped by drain(); the solver
                                         ///< polls it, so it comes first
        SolverSession solver;            ///< held across asks
        Clock::time_point leaseExpiry;   ///< guarded by the manager mutex
        std::atomic<std::uint64_t> asks{0}; ///< answered so far (atomic: the
                                            ///< debug listing reads it without
                                            ///< taking askMutex)
    };

    [[nodiscard]] std::shared_ptr<Session> find(const std::string& id);
    /// Exports the session's solver state into the Service warm-start cache.
    void exportSnapshot(Session& session);
    void sweep();

    Service& service_;
    SessionOptions options_;

    mutable std::mutex mutex_; ///< guards sessions_, nextId_, lease expiries
    std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
    std::uint64_t nextId_ = 0;

    std::thread sweeper_;
    std::condition_variable sweepCv_;
    std::mutex sweepMutex_;
    bool stopping_ = false;
};

} // namespace lar::reason
