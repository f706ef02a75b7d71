// Concurrent query service with compilation caching.
//
// The paper's workflow is interactive: an architect (or a fleet of CI jobs)
// fires bursts of queries, most of which share a problem — the same spec
// checked for feasibility, optimized, and enumerated; or many seeds of the
// same optimization. Service makes that burst cheap and concurrent:
//
//  * a fingerprint-keyed LRU cache of Compilation objects (hash of the
//    problem spec ⊕ the knowledge base's revision token), so repeated
//    queries skip the problem → formulas translation entirely;
//  * a fixed thread pool running batch queries concurrently — each query
//    gets its own Engine (own backend instance) over the shared immutable
//    Compilation, so backends stay single-threaded;
//  * a QueryTrace per query (compile/solve split, cache outcome, search
//    counters, hierarchical span tree) for observability.
//
// Every returned QueryResult — answered, shed, cancelled or expired before
// starting, failed before or while running — closes through one QueryScope
// (as do session asks), which records its trace in the flight recorder,
// logs a "query_done" line at Info level and counts it:
// lar_queries_total{kind} grows by exactly one per returned result.
//
// Batch results are bit-identical to running the same requests
// sequentially: queries share nothing mutable, and every randomized aspect
// is governed by the request's QueryOptions::seed.
//
// Lifetime: cached Compilations reference the knowledge bases behind the
// problems they were compiled from (same rule as Engine). Keep every KB
// passed in alive for the Service's lifetime, or clearCache() after
// dropping one. Mutating a KB is safe — its revision token changes, so
// stale entries can never be served (they only age out of the LRU).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/span.hpp"
#include "reason/compile.hpp"
#include "reason/engine.hpp"
#include "reason/flight_recorder.hpp"
#include "reason/query_options.hpp"
#include "reason/trace.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "util/threadpool.hpp"

namespace lar::reason {

/// What to do with new work when the batch queue is full (see
/// ServiceOptions::maxQueueDepth).
enum class ShedPolicy {
    RejectNew,  ///< refuse the incoming request (it comes back `shed`)
    DropOldest, ///< drop the longest-queued not-yet-started request instead
};

/// Bounded retry policy applied per query by the Service. Apart from it, a
/// Z3 query whose backend is unavailable or throws is answered once by the
/// built-in CDCL backend (QueryResult::backendFellBack is set); that
/// fallback is not a retry attempt.
struct RetryPolicy {
    /// Total solve attempts per query (1 = no retry). Further attempts run
    /// only when the previous one returned Unknown through a non-deadline
    /// budget — retrying after the end-to-end deadline or a cancellation
    /// would be pointless. Each retry re-solves with a derived (different)
    /// seed, the portfolio trick: another phase assignment often escapes
    /// the region that exhausted the budget.
    int maxAttempts = 1;
};

struct ServiceOptions {
    /// Max cached compilations; least-recently-used entries are evicted.
    std::size_t cacheCapacity = 32;
    /// Worker threads for runBatch(); 0 = hardware concurrency. Also the
    /// budget for intra-query portfolio parallelism: a query asking for
    /// QueryOptions::portfolioWorkers > 1 is granted extra solver threads
    /// only while the concurrently-solving queries plus their extras stay
    /// within this count.
    unsigned workers = 0;
    /// Admission control for runBatch(): max requests waiting to start
    /// (0 = unbounded). The depth is counted service-wide, so concurrent
    /// runBatch() calls share one bound. At saturation `shedPolicy` decides
    /// who is shed (DropOldest picks its victim from the submitting batch);
    /// shed queries come back with QueryResult::shed set — never silently
    /// dropped.
    std::size_t maxQueueDepth = 0;
    ShedPolicy shedPolicy = ShedPolicy::RejectNew;
    RetryPolicy retry;
    /// Warm-start snapshot cache: max snapshots kept (LRU, keyed by the same
    /// compilation fingerprint as the compilation cache); 0 disables warm
    /// starting entirely (the default). When enabled, single-worker CDCL
    /// queries import the cached snapshot for their fingerprint (phases,
    /// activities, short learnt clauses) and export an updated one when they
    /// finish. Verdicts are provably unaffected (see sat::SolverSnapshot),
    /// but a warm query may find a *different equally-valid model* than a
    /// cold one — leave this off where bit-identical designs across service
    /// instances matter more than latency.
    std::size_t warmStartCapacity = 0;
    /// Flight-recorder ring: completed QueryTraces retained for
    /// GET /v1/debug/traces (biased retention — failures pinned, p95-slow
    /// kept, the healthy majority sampled). 0 disables retention; the
    /// in-flight registry works either way.
    std::size_t flightRecorderCapacity = 256;
};

/// One query in a batch.
struct QueryRequest {
    std::string id; ///< echoed in the result/trace; "" → position index
    /// End-to-end request trace identity (minted or propagated by the HTTP
    /// layer). Stamped into the QueryTrace and every log line this query
    /// emits; "" for direct library callers.
    std::string traceId;
    QueryKind kind = QueryKind::Optimize;
    Problem problem;
    int maxDesigns = 4; ///< QueryKind::Enumerate only
    QueryOptions options;
    /// When set, the query's spans join this externally-owned trace (the
    /// HTTP layer's, whose "http" span is already open on the calling
    /// thread) instead of a fresh per-query one — so one span tree covers
    /// server handling, queue/compile, and solver phases.
    std::shared_ptr<obs::Trace> requestTrace;
};

/// Per-query failure record. Queries never throw out of run()/runBatch():
/// any exception (organic or injected) is caught into this struct so one
/// poisoned problem cannot kill a batch. Filled exactly when the result's
/// verdict is Verdict::Error.
struct QueryError {
    std::string errorKind;   ///< "parse_error" / "encoding_error" /
                             ///< "logic_error" / "fault_injected" / ...
    std::string message;     ///< the exception's what()
};

/// Outcome of one query; which fields are filled depends on the kind.
/// `verdict` is the one authoritative outcome (see reason::Verdict). The
/// historic boolean views (`feasible()`/`timedOut()`/`ok()`/…) are gone;
/// the JSON wire fields of the same names are computed from the verdict at
/// serialization time (service_io.cpp), so the wire format is unchanged.
struct QueryResult {
    std::string id;
    QueryKind kind = QueryKind::Optimize;
    Verdict verdict = Verdict::Unknown; ///< the authoritative outcome
    /// Failure isolation: filled when verdict == Verdict::Error (the other
    /// payload fields are then meaningless).
    QueryError error;
    int retries = 0;        ///< reseeded re-solves performed after Unknown
    bool backendFellBack = false; ///< Z3 failed → CDCL answered instead
    std::optional<Design> design;              ///< Synthesize/Optimize
    std::vector<Design> designs;               ///< Enumerate
    std::vector<std::string> conflictingRules; ///< Feasibility/Explain
    /// Populated when the request's QueryOptions::collectTrace is set.
    QueryTrace trace;
};

/// Process-wide totals of the solver inprocessing counters (the lar_sat_*
/// metric family), summed over every query the Service answered.
struct InprocessingTotals {
    std::uint64_t subsumed = 0;
    std::uint64_t eliminatedVars = 0;
    std::uint64_t probes = 0;
    std::uint64_t arenaGcs = 0;
    double arenaWasteBytes = 0.0; ///< the last query's solver (a gauge)
};

/// Prepared images (see Compilation) held by the compile cache right now:
/// the lar_prepared_images / lar_prepared_bytes gauges.
struct PreparedTotals {
    std::size_t images = 0;
    std::size_t bytes = 0; ///< exact heap bytes of those images
};

struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
};

class QueryScope;

class Service {
public:
    explicit Service(const ServiceOptions& options = {});

    /// Answers one query on the calling thread (cache shared with batches).
    [[nodiscard]] QueryResult run(const QueryRequest& request);

    /// Answers every request concurrently on the pool; results come back in
    /// request order and match a sequential run bit-for-bit.
    [[nodiscard]] std::vector<QueryResult> runBatch(
        const std::vector<QueryRequest>& requests);

    [[nodiscard]] CacheStats cacheStats() const;
    /// Drops every cached compilation and warm-start snapshot.
    void clearCache();
    [[nodiscard]] unsigned workerCount() const { return pool_.workerCount(); }

    /// The flight recorder: every returned result lands here (bounded,
    /// biased retention) and every admitted query is listed while it runs.
    /// Session owners (reason::SessionManager) register their asks against
    /// the same recorder so one endpoint sees the whole process.
    [[nodiscard]] FlightRecorder& flightRecorder() { return recorder_; }
    [[nodiscard]] const FlightRecorder& flightRecorder() const {
        return recorder_;
    }

    // -- graceful drain (used by larserved on SIGTERM) ----------------------
    /// Stops admitting work: every request that has not started solving when
    /// this returns — new run()/runBatch() submissions and queued batch work
    /// alike — comes back Verdict::Shed. In-flight queries are left to
    /// finish; use cancelActive() to interrupt them. One-way; there is no
    /// un-drain (tear the Service down and build a new one instead).
    void beginDrain();
    [[nodiscard]] bool draining() const {
        return draining_.load(std::memory_order_acquire);
    }
    /// Flips the cancellation flag of every in-flight query (the caller's
    /// QueryOptions::cancelFlag when one was supplied, a per-query internal
    /// flag otherwise), so each returns Verdict::Cancelled — never Error —
    /// within a few solver polling intervals. Typically called when a drain
    /// grace period expires.
    void cancelActive();
    /// Queries currently between admission and completion (solving or
    /// compiling). Drain is complete when this reaches zero.
    [[nodiscard]] std::size_t activeQueries() const;

    /// The compilation the cache would serve for `problem` (compiling and
    /// inserting on miss). Exposed so callers can pre-warm or share it with
    /// their own Engines and SolverSessions.
    [[nodiscard]] std::shared_ptr<const Compilation> compilationFor(
        const Problem& problem);
    /// Like compilationFor(), reporting whether the cache hit and the
    /// compile time paid on a miss.
    [[nodiscard]] std::shared_ptr<const Compilation> compilationFor(
        const Problem& problem, bool& cacheHit, double& compileMs);

    /// The cached warm-start snapshot for `problem`'s fingerprint, or
    /// nullptr (miss / warm starting disabled). Exposed so session owners
    /// (reason::SessionManager) can seed their held solvers from the same
    /// cache the query path feeds.
    [[nodiscard]] std::shared_ptr<const sat::SolverSnapshot> snapshotFor(
        const Problem& problem);
    /// Stores/refreshes the snapshot for `problem`'s fingerprint (LRU,
    /// bounded by ServiceOptions::warmStartCapacity; no-op when disabled or
    /// `snapshot` is null/empty).
    void storeSnapshot(const Problem& problem,
                       std::shared_ptr<const sat::SolverSnapshot> snapshot);

    /// Counts clauses a what-if session imported from a warm-start snapshot
    /// (sessions import at create(), outside the query path).
    void countWarmStartImport(std::size_t clauses);

    /// Reads the lar_sat_* counters this Service registers (for /statusz).
    [[nodiscard]] InprocessingTotals inprocessingTotals() const;
    /// Counts the prepared images the compile cache holds and publishes
    /// the count and bytes as the lar_prepared_* gauges. Walks the cache
    /// under its lock, so only readers call it: /statusz, /metrics, a
    /// metrics dump, and clearCache().
    PreparedTotals preparedTotals() const;

private:
    struct CacheKey {
        std::uint64_t problemHash = 0;
        std::uint64_t kbInstance = 0;
        std::uint64_t kbMutations = 0;
        [[nodiscard]] bool operator==(const CacheKey&) const = default;
    };
    struct CacheKeyHash {
        [[nodiscard]] std::size_t operator()(const CacheKey& k) const;
    };
    using LruList =
        std::list<std::pair<CacheKey, std::shared_ptr<const Compilation>>>;

    using Clock = std::chrono::steady_clock;

    [[nodiscard]] static CacheKey fingerprint(const Problem& problem);
    /// Executes an admitted query under `scope` with the end-to-end
    /// deadline fixed at submission time, and closes the scope. Never
    /// throws: exceptions land in QueryResult::error.
    [[nodiscard]] QueryResult runTimed(
        QueryScope& scope, const QueryRequest& request,
        std::optional<Clock::time_point> deadline);
    /// The solve attempt loop: one Engine::run per attempt, retries on
    /// Unknown per RetryPolicy, falls back Z3 → CDCL on backend failure.
    /// Fills result.verdict, the payload and the trace telemetry (with a
    /// human verdict detail such as "3 designs" when one exists).
    /// `cancelFlag` (never null) overrides the request's own flag — it is
    /// the drain-registered flag runTimed chose. Throws on unrecoverable
    /// error.
    void solveWithPolicy(const QueryRequest& request,
                         std::shared_ptr<const Compilation> compilation,
                         const std::optional<Clock::time_point>& deadline,
                         std::atomic<bool>* cancelFlag, QueryResult& result,
                         InflightQuery& inflight);
    /// Copies one attempt's Answer into `result` (verdict, payload, trace
    /// telemetry) and the process metrics, and stores the exported
    /// warm-start snapshot, if any.
    void recordAnswer(Answer answer, const QueryRequest& request,
                      const QueryOptions& effective, QueryResult& result);
    /// Registers an in-flight query's cancellation flag so cancelActive()
    /// can reach it. Returns false when the service is already draining —
    /// the query must report Shed instead of starting.
    [[nodiscard]] bool registerActive(std::atomic<bool>* flag);
    void unregisterActive(std::atomic<bool>* flag);
    /// Claims solver threads for one query against the pool-wide budget:
    /// always the query's own thread, plus up to `requested - 1` portfolio
    /// extras while the budget (workerCount()) has headroom. Returns the
    /// total claimed (= the portfolio width to run with).
    [[nodiscard]] unsigned claimSolveThreads(int requested);
    void releaseSolveThreads(unsigned claimed);

    ServiceOptions options_;
    util::ThreadPool pool_;
    FlightRecorder recorder_;
    /// Set once by beginDrain(); guarded by drainMutex_ together with the
    /// active-flag list so a query either registers before the drain flips
    /// flags or observes draining_ and sheds — never neither.
    std::atomic<bool> draining_{false};
    mutable std::mutex drainMutex_;
    std::vector<std::atomic<bool>*> activeCancelFlags_;
    /// Requests submitted to the pool but not yet started. Service-wide so
    /// ServiceOptions::maxQueueDepth holds across concurrent runBatch calls.
    std::atomic<std::size_t> queuedDepth_{0};
    /// Solver threads currently in use (one per actively-solving query plus
    /// its granted portfolio extras). Intra-query parallelism and batch
    /// concurrency share the workerCount() budget through this counter.
    std::atomic<unsigned> threadsInUse_{0};

    mutable std::mutex cacheMutex_;
    LruList lru_; ///< front = most recently used
    std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    /// Warm-start snapshot LRU, same key space as the compilation cache and
    /// guarded by the same cacheMutex_ (both are touched once per query).
    using SnapList =
        std::list<std::pair<CacheKey, std::shared_ptr<const sat::SolverSnapshot>>>;
    SnapList snapLru_; ///< front = most recently used
    std::unordered_map<CacheKey, SnapList::iterator, CacheKeyHash> snapIndex_;
};

/// One query's lifecycle, from admission to the result handed back. Every
/// Service result and every session ask runs inside one; finish() is the
/// only place a result reaches the trace envelope, the flight recorder, the
/// done log line and the query counters.
class QueryScope {
public:
    /// Opens at admission: installs the request's trace id as the ambient
    /// log identity, takes the in-flight entry (or adopts `admitted`, taken
    /// at batch submission) and joins the request's span trace (or a fresh
    /// one) under a root span. `id` is the result's id. A non-empty
    /// `sessionId` marks a session ask: root span "ask", log event
    /// "session_ask", counted in lar_session_asks_total instead of
    /// lar_queries_total.
    QueryScope(Service& service, const QueryRequest& request, std::string id,
               std::shared_ptr<InflightQuery> admitted = nullptr,
               std::string sessionId = "");
    ~QueryScope(); ///< leaves the in-flight registry if finish() never ran
    QueryScope(const QueryScope&) = delete;
    QueryScope& operator=(const QueryScope&) = delete;

    /// The result under construction (id and kind preset); the executor
    /// fills verdict, payload and the trace fields only it measures.
    [[nodiscard]] QueryResult& result() { return result_; }
    [[nodiscard]] InflightQuery& inflight() { return *inflight_; }
    /// Marks the result failed by `e` (Verdict::Error plus QueryError).
    void fail(const std::exception& e);
    /// Closes spans, leaves the in-flight registry, stamps the trace
    /// envelope (id, trace id, kind, backend, total time, verdict, error),
    /// counts, logs and records the trace, then hands the result back — its
    /// trace emptied when the request declined one. Call once.
    [[nodiscard]] QueryResult finish();

private:
    Service& service_;
    const QueryRequest& request_;
    const std::string sessionId_;
    QueryResult result_;
    std::optional<util::ScopedLogTraceId> logScope_;
    std::shared_ptr<InflightQuery> inflight_;
    std::shared_ptr<obs::Trace> spanTrace_;
    std::optional<obs::ScopedTrace> scopedTrace_;
    std::optional<obs::Span> rootSpan_;
    util::Stopwatch timer_;
};

} // namespace lar::reason
