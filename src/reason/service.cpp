#include "reason/service.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "reason/problem_io.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace lar::reason {

namespace {

std::uint64_t fnv1a64(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// Maps an exception to the QueryError::errorKind vocabulary. Order matters:
/// most-derived classes first (FaultInjectedError is a lar::Error).
const char* errorKindOf(const std::exception& e) {
    if (dynamic_cast<const util::FaultInjectedError*>(&e) != nullptr)
        return "fault_injected";
    if (dynamic_cast<const ParseError*>(&e) != nullptr) return "parse_error";
    if (dynamic_cast<const EncodingError*>(&e) != nullptr)
        return "encoding_error";
    if (dynamic_cast<const LogicError*>(&e) != nullptr) return "logic_error";
    if (dynamic_cast<const Error*>(&e) != nullptr) return "error";
    return "exception";
}

/// Pre-interned handles into the global registry: interning locks once at
/// first use, after which every query updates plain atomics.
struct ServiceMetrics {
    obs::Counter& cacheHits;
    obs::Counter& cacheMisses;
    obs::Counter& cacheEvictions;
    obs::Counter& shed;
    obs::Counter& cancelled;
    obs::Counter& failed;
    obs::Counter& retries;
    obs::Counter& fallbacks;
    obs::Counter& deadlineExpired;
    obs::Histogram& queryLatencyMs;
    obs::Histogram& compileMs;
    obs::Histogram& queueWaitMs;
    obs::Counter& portfolioQueries;
    obs::Counter& portfolioShared;
    obs::Counter& portfolioImported;
    obs::Counter& portfolioLost;
    obs::Histogram& portfolioCancelMs;
    obs::Histogram& portfolioWidth;
    obs::Counter& warmHits;
    obs::Counter& warmMisses;
    obs::Counter& warmImportedClauses;
    obs::Counter& warmStored;
    obs::Counter& warmEvictions;
    obs::Counter& satSubsumed;
    obs::Counter& satEliminatedVars;
    obs::Counter& satProbes;
    obs::Counter& satArenaGcs;
    obs::Gauge& satArenaWaste;
    obs::Gauge& preparedImages;
    obs::Gauge& preparedBytes;
    obs::Counter& sessionAsks;
    obs::Histogram& askLatencyMs;
    obs::Counter* queriesByKind[5];

    [[nodiscard]] obs::Counter& queries(QueryKind kind) {
        return *queriesByKind[static_cast<int>(kind)];
    }

    /// Wins per diversity profile ("config" label). Interning locks only on
    /// a profile's first win; the handful of profile names keeps the series
    /// set tiny.
    [[nodiscard]] static obs::Counter& portfolioWins(const std::string& config) {
        return obs::Registry::global().counter(
            "lar_portfolio_wins_total", "Portfolio races won, by configuration",
            {{"config", config}});
    }

    static ServiceMetrics& get() {
        static ServiceMetrics m = [] {
            obs::Registry& reg = obs::Registry::global();
            const std::vector<double>& msBounds = obs::latencyBucketsMs();
            ServiceMetrics built{
                reg.counter("lar_cache_hits_total",
                            "Compilation cache hits in Service::compilationFor"),
                reg.counter("lar_cache_misses_total",
                            "Compilation cache misses in Service::compilationFor"),
                reg.counter("lar_service_cache_evictions_total",
                            "Compilations evicted from the Service LRU cache"),
                reg.counter("lar_queries_shed_total",
                            "Queries rejected or dropped by admission control"),
                reg.counter("lar_queries_cancelled_total",
                            "Queries stopped by their cancellation flag"),
                reg.counter("lar_queries_failed_total",
                            "Queries that ended with QueryResult::error"),
                reg.counter("lar_query_retries_total",
                            "Reseeded re-solves after an Unknown verdict"),
                reg.counter("lar_backend_fallbacks_total",
                            "Queries answered by CDCL after a Z3 failure"),
                reg.counter("lar_queries_deadline_expired_total",
                            "Queries whose end-to-end deadline expired before "
                            "solving"),
                reg.histogram("lar_query_latency_ms",
                              "End-to-end per-query latency in Service", msBounds),
                reg.histogram("lar_compile_ms",
                              "Problem compilation time on cache misses", msBounds),
                reg.histogram("lar_queue_wait_ms",
                              "Submit-to-start wait of batch queries", msBounds),
                reg.counter("lar_portfolio_queries_total",
                            "Queries solved by a portfolio race (width > 1)"),
                reg.counter("lar_portfolio_clauses_shared_total",
                            "Learnt clauses published into portfolio exchanges"),
                reg.counter("lar_portfolio_clauses_imported_total",
                            "Learnt-clause copies integrated by portfolio "
                            "workers"),
                reg.counter("lar_portfolio_clauses_lost_total",
                            "Exchange clauses overwritten or over-long, never "
                            "imported"),
                reg.histogram("lar_portfolio_cancel_latency_ms",
                              "Winner verdict to all-workers-stopped latency",
                              {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500}),
                reg.histogram("lar_portfolio_width",
                              "Portfolio width actually granted per query",
                              {1, 2, 4, 8, 16}),
                reg.counter("lar_warmstart_hits_total",
                            "Queries that found a warm-start snapshot for "
                            "their fingerprint"),
                reg.counter("lar_warmstart_misses_total",
                            "Warm-start-eligible queries with no cached "
                            "snapshot"),
                reg.counter("lar_warmstart_clauses_imported_total",
                            "Learnt clauses integrated from warm-start "
                            "snapshots"),
                reg.counter("lar_warmstart_snapshots_stored_total",
                            "Warm-start snapshots stored/refreshed in the "
                            "cache"),
                reg.counter("lar_warmstart_evictions_total",
                            "Warm-start snapshots evicted from the LRU"),
                reg.counter("lar_sat_subsumed_total",
                            "Clauses removed by inprocessing subsumption"),
                reg.counter("lar_sat_eliminated_vars_total",
                            "Variables removed by bounded variable "
                            "elimination"),
                reg.counter("lar_sat_probes_total",
                            "Literals probed by failed-literal probing"),
                reg.counter("lar_sat_arena_gcs_total",
                            "Clause-arena compactions in query solvers"),
                reg.gauge("lar_sat_arena_waste_bytes",
                          "Dead clause bytes awaiting arena compaction "
                          "(last query's solver)"),
                reg.gauge("lar_prepared_images",
                          "Prepared solver images held by the compile cache"),
                reg.gauge("lar_prepared_bytes",
                          "Exact heap bytes of the prepared solver images in "
                          "the compile cache"),
                reg.counter("lar_session_asks_total",
                            "Variations answered across all sessions"),
                reg.histogram("lar_session_ask_latency_ms",
                              "Per-ask latency inside SessionManager", msBounds),
                {}};
            for (const QueryKind kind :
                 {QueryKind::Feasibility, QueryKind::Explain, QueryKind::Synthesize,
                  QueryKind::Optimize, QueryKind::Enumerate})
                built.queriesByKind[static_cast<int>(kind)] =
                    &reg.counter("lar_queries_total",
                                 "Query results returned by Service, by kind",
                                 {{"kind", toString(kind)}});
            return built;
        }();
        return m;
    }
};

/// Milliseconds from now until `deadline` (negative when already past).
double millisUntil(const std::chrono::steady_clock::time_point deadline) {
    return std::chrono::duration<double, std::milli>(
               deadline - std::chrono::steady_clock::now())
        .count();
}

bool cancelRequested(const QueryOptions& options) {
    return options.cancelFlag != nullptr &&
           options.cancelFlag->load(std::memory_order_relaxed);
}

/// Attempt `n` (2, 3, …) of a query gets a derived, necessarily different
/// seed so the re-solve explores another phase assignment.
std::uint64_t deriveSeed(std::uint64_t base, int attempt) {
    std::uint64_t state = base + static_cast<std::uint64_t>(attempt);
    const std::uint64_t derived = util::splitmix64(state);
    return derived == 0 ? 1 : derived;
}

} // namespace

std::size_t Service::CacheKeyHash::operator()(const CacheKey& k) const {
    // splitmix64-style mix of the three words.
    std::uint64_t h = k.problemHash;
    for (const std::uint64_t w : {k.kbInstance, k.kbMutations}) {
        h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 31;
    }
    return static_cast<std::size_t>(h);
}

Service::CacheKey Service::fingerprint(const Problem& problem) {
    expects(problem.kb != nullptr, "Service: problem has no knowledge base");
    // problemToText covers every problem field; the KB contributes through
    // its revision token, not its content — cheaper than hashing the whole
    // catalog, and exact as long as mutation goes through the KB's API.
    const kb::KnowledgeBase::Revision rev = problem.kb->revision();
    return CacheKey{fnv1a64(problemToText(problem)), rev.instance,
                    rev.mutations};
}

Service::Service(const ServiceOptions& options)
    : options_(options), pool_(options.workers),
      recorder_(options.flightRecorderCapacity) {
    expects(options_.cacheCapacity > 0, "Service: cacheCapacity must be > 0");
    expects(options_.retry.maxAttempts >= 1,
            "Service: retry.maxAttempts must be >= 1");
}

std::shared_ptr<const Compilation> Service::compilationFor(
    const Problem& problem, bool& cacheHit, double& compileMs) {
    const CacheKey key = fingerprint(problem);
    {
        const std::lock_guard<std::mutex> lock(cacheMutex_);
        const auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second); // bump to front
            ++hits_;
            ServiceMetrics::get().cacheHits.inc();
            cacheHit = true;
            compileMs = 0.0;
            return it->second->second;
        }
        ++misses_;
        ServiceMetrics::get().cacheMisses.inc();
    }
    // Compile outside the lock: concurrent misses on *different* problems
    // proceed in parallel. Two threads missing the same key both compile;
    // the loser adopts the winner's (identical) entry.
    util::FaultInjector::global().maybeFault("service.compile");
    util::Stopwatch compileTimer;
    auto compiled = std::make_shared<const Compilation>(problem);
    compileMs = compileTimer.millis();
    ServiceMetrics::get().compileMs.observe(compileMs);
    cacheHit = false;

    const std::lock_guard<std::mutex> lock(cacheMutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) return it->second->second;
    util::FaultInjector::global().maybeFault("service.cache_insert");
    lru_.emplace_front(key, std::move(compiled));
    index_.emplace(key, lru_.begin());
    while (lru_.size() > options_.cacheCapacity) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ServiceMetrics::get().cacheEvictions.inc();
    }
    return lru_.front().second;
}

std::shared_ptr<const Compilation> Service::compilationFor(
    const Problem& problem) {
    bool hit = false;
    double ms = 0.0;
    return compilationFor(problem, hit, ms);
}

std::shared_ptr<const sat::SolverSnapshot> Service::snapshotFor(
    const Problem& problem) {
    if (options_.warmStartCapacity == 0) return nullptr;
    const CacheKey key = fingerprint(problem);
    const std::lock_guard<std::mutex> lock(cacheMutex_);
    const auto it = snapIndex_.find(key);
    if (it == snapIndex_.end()) {
        ServiceMetrics::get().warmMisses.inc();
        return nullptr;
    }
    snapLru_.splice(snapLru_.begin(), snapLru_, it->second); // bump to front
    ServiceMetrics::get().warmHits.inc();
    return it->second->second;
}

void Service::storeSnapshot(
    const Problem& problem,
    std::shared_ptr<const sat::SolverSnapshot> snapshot) {
    if (options_.warmStartCapacity == 0 || snapshot == nullptr ||
        snapshot->empty())
        return;
    const CacheKey key = fingerprint(problem);
    const std::lock_guard<std::mutex> lock(cacheMutex_);
    ServiceMetrics::get().warmStored.inc();
    if (const auto it = snapIndex_.find(key); it != snapIndex_.end()) {
        it->second->second = std::move(snapshot); // refresh in place
        snapLru_.splice(snapLru_.begin(), snapLru_, it->second);
        return;
    }
    snapLru_.emplace_front(key, std::move(snapshot));
    snapIndex_.emplace(key, snapLru_.begin());
    while (snapLru_.size() > options_.warmStartCapacity) {
        snapIndex_.erase(snapLru_.back().first);
        snapLru_.pop_back();
        ServiceMetrics::get().warmEvictions.inc();
    }
}

QueryResult Service::run(const QueryRequest& request) {
    std::optional<Clock::time_point> deadline;
    if (request.options.timeoutMs > 0)
        deadline = Clock::now() +
                   std::chrono::milliseconds(request.options.timeoutMs);
    QueryScope scope(*this, request, request.id);
    return runTimed(scope, request, deadline);
}

unsigned Service::claimSolveThreads(int requested) {
    unsigned claimed = 1; // the query's own thread always solves
    threadsInUse_.fetch_add(1, std::memory_order_acq_rel);
    if (requested > 1) {
        const unsigned budget = std::max(workerCount(), 1u);
        const unsigned want = static_cast<unsigned>(requested) - 1;
        unsigned current = threadsInUse_.load(std::memory_order_relaxed);
        while (true) {
            const unsigned avail = budget > current ? budget - current : 0;
            const unsigned grant = std::min(want, avail);
            if (grant == 0) break;
            if (threadsInUse_.compare_exchange_weak(current, current + grant,
                                                    std::memory_order_acq_rel)) {
                claimed += grant;
                break;
            }
        }
    }
    return claimed;
}

void Service::releaseSolveThreads(unsigned claimed) {
    threadsInUse_.fetch_sub(claimed, std::memory_order_acq_rel);
}

void Service::beginDrain() {
    const std::lock_guard<std::mutex> lock(drainMutex_);
    if (draining_.exchange(true, std::memory_order_acq_rel)) return;
    util::logLineJson(util::LogLevel::Info, "service_drain",
                      {{"active_queries",
                        static_cast<std::uint64_t>(activeCancelFlags_.size())}});
}

void Service::cancelActive() {
    const std::lock_guard<std::mutex> lock(drainMutex_);
    for (std::atomic<bool>* flag : activeCancelFlags_)
        flag->store(true, std::memory_order_release);
}

std::size_t Service::activeQueries() const {
    const std::lock_guard<std::mutex> lock(drainMutex_);
    return activeCancelFlags_.size();
}

bool Service::registerActive(std::atomic<bool>* flag) {
    const std::lock_guard<std::mutex> lock(drainMutex_);
    if (draining_.load(std::memory_order_relaxed)) return false;
    activeCancelFlags_.push_back(flag);
    return true;
}

void Service::unregisterActive(std::atomic<bool>* flag) {
    const std::lock_guard<std::mutex> lock(drainMutex_);
    // Erase one instance only: concurrent queries may legally share one
    // caller-owned flag.
    for (auto it = activeCancelFlags_.begin(); it != activeCancelFlags_.end();
         ++it) {
        if (*it == flag) {
            *it = activeCancelFlags_.back();
            activeCancelFlags_.pop_back();
            return;
        }
    }
}

void Service::solveWithPolicy(const QueryRequest& request,
                              std::shared_ptr<const Compilation> compilation,
                              const std::optional<Clock::time_point>& deadline,
                              std::atomic<bool>* cancelFlag,
                              QueryResult& result, InflightQuery& inflight) {
    ServiceMetrics& metrics = ServiceMetrics::get();
    QueryOptions effective = request.options;
    effective.cancelFlag = cancelFlag;

    // Budget intra-query parallelism against the pool: a portfolio request
    // only fans out while the concurrently-solving queries leave headroom.
    const bool portfolioRequested =
        effective.backend == smt::BackendKind::Cdcl &&
        effective.portfolioWorkers > 1;
    const unsigned claimed =
        claimSolveThreads(portfolioRequested ? effective.portfolioWorkers : 1);
    struct ThreadsRelease {
        Service& service;
        unsigned claimed;
        ~ThreadsRelease() { service.releaseSolveThreads(claimed); }
    } threadsRelease{*this, claimed};
    effective.portfolioWorkers = static_cast<int>(claimed);
    result.trace.portfolioWorkers = static_cast<int>(claimed);
    inflight.workers.store(static_cast<int>(claimed), std::memory_order_relaxed);
    if (portfolioRequested) metrics.portfolioWidth.observe(claimed);

    // Warm-start reuse: single-worker CDCL queries on a recently-seen
    // fingerprint start from that fingerprint's cached snapshot instead of
    // cold, and leave an updated snapshot behind. Portfolio races are
    // excluded (their workers diverge from the replay baseline) and the
    // request's own warmStart, if any, wins.
    if (options_.warmStartCapacity > 0 &&
        effective.backend == smt::BackendKind::Cdcl && claimed == 1) {
        if (effective.warmStart == nullptr)
            effective.warmStart = snapshotFor(request.problem);
        effective.captureSnapshot = true;
    }

    bool fellBack = false;
    int attempt = 0;
    while (true) {
        ++attempt;
        if (deadline.has_value()) {
            // timeoutMs is end-to-end: each attempt only gets what is left.
            const double left = millisUntil(*deadline);
            if (left <= 0.0) {
                result.verdict = Verdict::TimedOut;
                metrics.deadlineExpired.inc();
                return;
            }
            effective.timeoutMs =
                std::max(1, static_cast<int>(std::ceil(left)));
        }
        try {
            util::FaultInjector::global().maybeFault("service.solve");
            recordAnswer(Engine(compilation, effective)
                             .run(request.kind, request.maxDesigns),
                         request, effective, result);
            if (request.kind == QueryKind::Enumerate)
                result.trace.verdictDetail =
                    std::to_string(result.designs.size()) + " designs";
            if (!gaveUp(result.verdict)) return;
            if (cancelRequested(effective)) {
                result.verdict = Verdict::Cancelled;
                return;
            }
            const bool deadlineSpent =
                deadline.has_value() && millisUntil(*deadline) <= 0.0;
            // The deadline expiring mid-solve is a timeout; any other budget
            // giving out (conflicts/propagations/memory, retries included)
            // stays Unknown.
            result.verdict = deadlineSpent ? Verdict::TimedOut : Verdict::Unknown;
            if (deadlineSpent)
                return; // the end-to-end budget is spent; no point retrying
            if (attempt >= options_.retry.maxAttempts) return;
            effective.seed = deriveSeed(request.options.seed, attempt);
            ++result.retries;
            metrics.retries.inc();
        } catch (const std::exception&) {
            // Graceful degradation: a Z3 query whose backend is unavailable
            // or faults is re-answered by the built-in CDCL stack, once.
            if (effective.backend == smt::BackendKind::Z3 && !fellBack) {
                fellBack = true;
                result.backendFellBack = true;
                metrics.fallbacks.inc();
                effective.backend = smt::BackendKind::Cdcl;
                --attempt; // the fallback re-solve is not a retry attempt
                continue;
            }
            throw;
        }
    }
}

void Service::recordAnswer(Answer answer, const QueryRequest& request,
                           const QueryOptions& effective, QueryResult& result) {
    ServiceMetrics& metrics = ServiceMetrics::get();
    traceAnswer(answer, result.trace);
    result.verdict = answer.verdict;
    result.design = std::move(answer.design);
    result.designs = std::move(answer.designs);
    result.conflictingRules = std::move(answer.conflictingRules);
    // The engine (and its stats) is per-attempt, so these are clean
    // per-query increments, not cumulative re-counts.
    metrics.satSubsumed.inc(answer.stats.subsumedClauses);
    metrics.satEliminatedVars.inc(answer.stats.eliminatedVars);
    metrics.satProbes.inc(answer.stats.probedLiterals);
    metrics.satArenaGcs.inc(answer.stats.arenaGcs);
    metrics.satArenaWaste.set(static_cast<double>(answer.stats.arenaWasteBytes));
    if (answer.portfolio.has_value()) {
        const smt::PortfolioStats& portfolio = *answer.portfolio;
        metrics.portfolioQueries.inc();
        metrics.portfolioShared.inc(portfolio.clausesShared);
        metrics.portfolioImported.inc(portfolio.clausesImported);
        metrics.portfolioLost.inc(portfolio.clausesLost);
        if (portfolio.winner >= 0) {
            ServiceMetrics::portfolioWins(portfolio.winnerConfig).inc();
            metrics.portfolioCancelMs.observe(portfolio.cancelLatencyMs);
        }
    }
    if (effective.captureSnapshot) {
        result.trace.warmStartAttempted = effective.warmStart != nullptr;
        metrics.warmImportedClauses.inc(answer.warmStartImported);
        storeSnapshot(request.problem, std::move(answer.snapshot));
    }
}

void Service::countWarmStartImport(std::size_t clauses) {
    ServiceMetrics::get().warmImportedClauses.inc(clauses);
}

InprocessingTotals Service::inprocessingTotals() const {
    const ServiceMetrics& metrics = ServiceMetrics::get();
    return {metrics.satSubsumed.value(), metrics.satEliminatedVars.value(),
            metrics.satProbes.value(), metrics.satArenaGcs.value(),
            metrics.satArenaWaste.value()};
}

QueryScope::QueryScope(Service& service, const QueryRequest& request,
                       std::string id, std::shared_ptr<InflightQuery> admitted,
                       std::string sessionId)
    : service_(service), request_(request), sessionId_(std::move(sessionId)),
      inflight_(std::move(admitted)), spanTrace_(request.requestTrace) {
    result_.id = std::move(id);
    result_.kind = request.kind;
    // The request's trace id becomes this thread's ambient log identity for
    // the query's whole execution — the done line and every line below it
    // join the server's http_request line on one grep.
    if (!request.traceId.empty()) logScope_.emplace(request.traceId);
    if (inflight_ == nullptr)
        inflight_ = service_.flightRecorder().admit(
            result_.id, request.traceId, sessionId_, request.kind);
    // Span collection is always on while instrumentation is enabled (the
    // flight recorder wants spans whether or not the client asked for a
    // trace in its response), so everything below — Compilation ctor
    // ("compile"), Engine ("solve"), backend checks and their progress
    // samples — nests under the root span.
    if (obs::enabled()) {
        if (spanTrace_ == nullptr) spanTrace_ = std::make_shared<obs::Trace>();
        if (obs::currentContext().trace != spanTrace_.get())
            scopedTrace_.emplace(*spanTrace_);
        rootSpan_.emplace(sessionId_.empty() ? "query" : "ask");
    }
}

QueryScope::~QueryScope() { service_.flightRecorder().finish(inflight_); }

void QueryScope::fail(const std::exception& e) {
    result_.verdict = Verdict::Error;
    result_.error.errorKind = errorKindOf(e);
    result_.error.message = e.what();
}

QueryResult QueryScope::finish() {
    rootSpan_.reset(); // close the root span before exporting the tree
    scopedTrace_.reset();
    service_.flightRecorder().finish(std::exchange(inflight_, nullptr));

    // The trace is filled whether or not the client asked for it in the
    // response: the flight recorder retains it either way.
    QueryTrace& trace = result_.trace;
    trace.id = result_.id;
    trace.traceId = request_.traceId;
    trace.kind = request_.kind;
    trace.backend = request_.options.backend;
    trace.totalMs = timer_.millis();
    trace.verdict = result_.verdict;
    trace.retries = result_.retries;
    trace.backendFellBack = result_.backendFellBack;
    trace.errorKind = result_.error.errorKind;
    trace.errorMessage = result_.error.message;
    trace.spans = spanTrace_;

    ServiceMetrics& metrics = ServiceMetrics::get();
    if (sessionId_.empty()) {
        metrics.queries(trace.kind).inc();
        metrics.queryLatencyMs.observe(trace.totalMs);
    } else {
        metrics.sessionAsks.inc();
        metrics.askLatencyMs.observe(trace.totalMs);
    }
    if (trace.queueWaitMs > 0.0) metrics.queueWaitMs.observe(trace.queueWaitMs);
    if (trace.verdict == Verdict::Shed) metrics.shed.inc();
    if (trace.verdict == Verdict::Cancelled) metrics.cancelled.inc();
    if (!trace.errorKind.empty()) metrics.failed.inc();

    util::logLineJson(util::LogLevel::Info,
                      sessionId_.empty() ? "query_done" : "session_ask",
                      {{"id", trace.id},
                       {"kind", toString(trace.kind)},
                       {"cache", trace.cacheHit ? "hit" : "miss"},
                       {"verdict", verdictName(trace.verdict)},
                       {"total_ms", trace.totalMs},
                       {"queue_wait_ms", trace.queueWaitMs},
                       {"retries", trace.retries},
                       {"cancelled", trace.verdict == Verdict::Cancelled},
                       {"backend_fallback", trace.backendFellBack},
                       {"error", trace.errorKind}});
    service_.flightRecorder().record(trace);
    // The caller declined a trace in its result: hand back an empty one
    // (the recorder's copy above is the surviving record).
    if (!request_.options.collectTrace) trace = QueryTrace{};
    return std::move(result_);
}

QueryResult Service::runTimed(QueryScope& scope, const QueryRequest& request,
                              std::optional<Clock::time_point> deadline) {
    QueryResult& result = scope.result();
    // Drain/cancel plumbing: every admitted query solves under a cancel
    // flag the Service can reach — the caller's when one was supplied, this
    // stack slot otherwise (safe: the query is synchronous on this thread).
    std::atomic<bool> localCancel{false};
    std::atomic<bool>* cancelFlag = request.options.cancelFlag != nullptr
                                        ? request.options.cancelFlag
                                        : &localCancel;

    try {
        if (cancelRequested(request.options)) {
            // Cancelled while queued: report without doing any work.
            result.verdict = Verdict::Cancelled;
        } else if (deadline.has_value() && millisUntil(*deadline) <= 0.0) {
            // Expired while queued: timed out without solving.
            result.verdict = Verdict::TimedOut;
            ServiceMetrics::get().deadlineExpired.inc();
        } else if (!registerActive(cancelFlag)) {
            // The service began draining before this query started: shed,
            // exactly like admission control (the work was never attempted).
            result.verdict = Verdict::Shed;
        } else {
            struct ActiveGuard {
                Service& service;
                std::atomic<bool>* flag;
                ~ActiveGuard() { service.unregisterActive(flag); }
            } activeGuard{*this, cancelFlag};
            InflightQuery& inflight = scope.inflight();
            inflight.phase.store(QueryPhase::Compile, std::memory_order_relaxed);
            const std::shared_ptr<const Compilation> compilation = compilationFor(
                request.problem, result.trace.cacheHit, result.trace.compileMs);
            inflight.phase.store(QueryPhase::Solve, std::memory_order_relaxed);
            util::Stopwatch solveTimer;
            // solveWithPolicy re-checks the deadline, so compile time is
            // deducted from the solver's budget automatically.
            solveWithPolicy(request, compilation, deadline, cancelFlag, result,
                            inflight);
            result.trace.solveMs = solveTimer.millis();
        }
    } catch (const std::exception& e) {
        // Failure isolation: no query ever throws out of the Service.
        scope.fail(e);
    }
    return scope.finish();
}

std::vector<QueryResult> Service::runBatch(
    const std::vector<QueryRequest>& requests) {
    std::vector<std::future<QueryResult>> futures;
    futures.reserve(requests.size());
    // Hand the submitter's obs context to the workers so task spans nest
    // under any span open here; capture submit time for queue-wait metrics
    // and for the per-request end-to-end deadlines.
    const obs::Context context = obs::currentContext();
    const auto submitted = Clock::now();

    // Admission control: one slot per request, claimed by the worker
    // (Queued → Running) or by the shedder (Queued → Shed). runBatch joins
    // every future before returning, so the worker lambdas may safely hold
    // references to these locals and to `requests`. The depth itself lives
    // in queuedDepth_ so maxQueueDepth bounds concurrent runBatch calls
    // together; DropOldest can only shed victims from this batch's slots.
    constexpr int kQueued = 0, kRunning = 1, kShed = 2;
    struct Slot {
        std::atomic<int> state{0};
    };
    std::vector<Slot> slots(requests.size());

    for (std::size_t i = 0; i < requests.size(); ++i) {
        const QueryRequest& request = requests[i];
        std::string id = request.id.empty() ? std::to_string(i) : request.id;
        std::optional<Clock::time_point> deadline;
        if (request.options.timeoutMs > 0)
            deadline = submitted +
                       std::chrono::milliseconds(request.options.timeoutMs);

        if (options_.maxQueueDepth > 0 &&
            queuedDepth_.load(std::memory_order_acquire) >= options_.maxQueueDepth) {
            if (options_.shedPolicy == ShedPolicy::RejectNew) {
                QueryScope scope(*this, request, std::move(id));
                scope.result().verdict = Verdict::Shed;
                std::promise<QueryResult> ready;
                ready.set_value(scope.finish());
                futures.push_back(ready.get_future());
                continue;
            }
            // DropOldest: shed the longest-queued request that has not
            // started yet; when everything already runs, admit anyway.
            for (std::size_t j = 0; j < i; ++j) {
                int expected = kQueued;
                if (slots[j].state.compare_exchange_strong(
                        expected, kShed, std::memory_order_acq_rel)) {
                    queuedDepth_.fetch_sub(1, std::memory_order_acq_rel);
                    break;
                }
            }
        }

        queuedDepth_.fetch_add(1, std::memory_order_acq_rel);
        // Join the in-flight registry at submission: queue wait is visible
        // to GET /v1/debug/inflight as the "queued" phase.
        std::shared_ptr<InflightQuery> inflight = recorder_.admit(
            id, request.traceId, /*sessionId=*/"", request.kind);
        futures.push_back(pool_.submit([this, &request, &slots, i,
                                        id = std::move(id), context,
                                        submitted, deadline, inflight]() {
            const obs::ScopedContext scoped(context);
            QueryScope scope(*this, request, id, inflight);
            try {
                // Latency-injection point (tests saturate the queue with
                // it); fires while the task still counts as queued, so a
                // delayed task remains eligible for DropOldest shedding.
                util::FaultInjector::global().maybeFault("service.task_start");
                int expected = kQueued;
                if (!slots[i].state.compare_exchange_strong(
                        expected, kRunning, std::memory_order_acq_rel)) {
                    // Shed while waiting: report it, never drop silently.
                    scope.result().verdict = Verdict::Shed;
                    return scope.finish();
                }
            } catch (const std::exception& e) {
                // A fault before the claim: release the queue slot unless
                // DropOldest already took it.
                int expected = kQueued;
                if (slots[i].state.compare_exchange_strong(
                        expected, kRunning, std::memory_order_acq_rel))
                    queuedDepth_.fetch_sub(1, std::memory_order_acq_rel);
                scope.fail(e);
                return scope.finish();
            }
            queuedDepth_.fetch_sub(1, std::memory_order_acq_rel);
            scope.result().trace.queueWaitMs =
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          submitted)
                    .count();
            return runTimed(scope, request, deadline);
        }));
    }
    std::vector<QueryResult> results;
    results.reserve(futures.size());
    for (std::future<QueryResult>& future : futures)
        results.push_back(future.get());
    return results;
}

CacheStats Service::cacheStats() const {
    const std::lock_guard<std::mutex> lock(cacheMutex_);
    return CacheStats{hits_, misses_, lru_.size(), options_.cacheCapacity};
}

void Service::clearCache() {
    {
        const std::lock_guard<std::mutex> lock(cacheMutex_);
        lru_.clear();
        index_.clear();
        snapLru_.clear();
        snapIndex_.clear();
    }
    (void)preparedTotals();
}

PreparedTotals Service::preparedTotals() const {
    PreparedTotals totals;
    {
        const std::lock_guard<std::mutex> lock(cacheMutex_);
        for (const auto& [key, compilation] : lru_) {
            const std::size_t bytes = compilation->preparedBytes();
            totals.images += bytes > 0 ? 1 : 0;
            totals.bytes += bytes;
        }
    }
    ServiceMetrics& metrics = ServiceMetrics::get();
    metrics.preparedImages.set(static_cast<double>(totals.images));
    metrics.preparedBytes.set(static_cast<double>(totals.bytes));
    return totals;
}

} // namespace lar::reason
