// Unified per-query knobs for the reasoning layer.
//
// Every entry point that answers an architect query — Engine, session asks,
// the free §5.1 helpers, and the concurrent Service — takes a QueryOptions
// instead of a bare smt::BackendKind, so new knobs (seeds, timeouts, trace
// collection, portfolio width) reach the whole stack without another round
// of signature churn. QueryOptions is the sole entry point: the deprecated
// trailing-BackendKind shims of the first release have been removed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "smt/backend.hpp"

namespace lar::reason {

struct QueryOptions {
    /// Solver backend answering the query.
    smt::BackendKind backend = smt::BackendKind::Cdcl;
    /// Nonzero: seed for randomized search aspects (initial CDCL phases,
    /// Z3 random_seed). 0 keeps the deterministic default; either way a
    /// fixed seed reproduces the identical answer.
    std::uint64_t seed = 0;
    /// Wall-clock budget in milliseconds; 0 = unlimited. Under the Service
    /// this is an END-TO-END deadline measured from submission: queue wait
    /// and compilation are deducted before the solver starts, and a request
    /// that expires while still queued answers TimedOut without solving.
    /// Used directly it bounds a whole Engine query (its prepare round and
    /// every solver call share one deadline) or one session ask.
    /// On exhaustion the query's Answer carries Verdict::TimedOut (the typed
    /// Engine methods: FeasibilityReport::timedOut, or nullopt).
    int timeoutMs = 0;
    /// Conflict budget per solver call; -1 = unlimited. Exhaustion answers
    /// Verdict::Unknown, and under the Service retry policy triggers a
    /// reseeded re-solve.
    std::int64_t conflictBudget = -1;
    /// Propagation budget per solver call; -1 = unlimited (CDCL only).
    std::int64_t propagationBudget = -1;
    /// Learnt-clause arena cap in MiB; -1 = unlimited. The CDCL solver
    /// reduces its database first and only gives up when everything left is
    /// glue or locked; Z3 maps to max_memory where supported.
    std::int64_t memoryBudgetMb = -1;
    /// Cooperative cancellation: when non-null, flipping the flag (from any
    /// thread) makes the query answer Verdict::Cancelled within a few solver
    /// polling intervals. The flag is owned by the caller and must outlive
    /// the query.
    std::atomic<bool>* cancelFlag = nullptr;
    /// Collect a QueryTrace (times, solver statistics, cache outcome) for
    /// the query. Service honours this per request; an Engine Answer always
    /// carries the cheap solver stats regardless.
    bool collectTrace = true;
    /// Sample CDCL search progress every this many conflicts (0 = never).
    /// Samples land on the active obs span and the global solver histograms;
    /// they cannot change verdicts. Z3 has no such hook and ignores this.
    int progressEveryConflicts = 256;
    /// Portfolio width: ≤ 1 solves single-threaded (the default); N > 1
    /// races N diverse CDCL configurations per solver call, first definitive
    /// verdict wins, the rest are cancelled, and short learnt clauses are
    /// shared between workers (see smt::PortfolioBackend). Z3 ignores this.
    /// Under the Service the width is budgeted against the worker pool, so a
    /// loaded batch may grant fewer workers than requested (the trace's
    /// portfolio.workers records the width actually used).
    int portfolioWorkers = 1;
    /// Warm-start snapshot imported into the session's solver right after
    /// the hard assertions are replayed (heuristic phases/activities plus
    /// short learnt clauses — see sat::SolverSnapshot for why this cannot
    /// change verdicts). Only sound when the snapshot was exported from a
    /// session over the IDENTICAL compilation (same fingerprint); the solver
    /// refuses on any shape mismatch. Honoured by the single-worker CDCL
    /// backend; Z3 and portfolio backends ignore it. nullptr = cold start.
    std::shared_ptr<const sat::SolverSnapshot> warmStart;
    /// Run CDCL inprocessing (subsumption, vivification, failed-literal
    /// probing, equivalent-literal substitution, bounded variable
    /// elimination) before search and at restart boundaries. Strictly
    /// verdict-preserving — models are reconstructed and unsat cores keep
    /// only real assumptions — so this is a performance knob, not a
    /// semantics knob. Z3 manages its own preprocessing and ignores it.
    bool simplify = true;
    /// Export a warm-start snapshot from the query's solver session when the
    /// query ends (surfaced as Answer::snapshot). Off by default —
    /// exporting copies the short learnt clauses — and a no-op for queries
    /// whose session grew the clause DB (optimize bounds, enumeration
    /// blocking clauses) or for backends without snapshot support. The
    /// Service turns this on to feed its fingerprint-keyed warm-start cache.
    bool captureSnapshot = false;

    /// The smt-layer view of these options. Progress plumbing (the obs-layer
    /// callback) is attached by SolverSession, not here, to keep this header
    /// obs-free.
    [[nodiscard]] smt::BackendConfig backendConfig() const {
        smt::BackendConfig config;
        config.seed = seed;
        config.timeoutMs = timeoutMs;
        config.conflictBudget = conflictBudget;
        config.propagationBudget = propagationBudget;
        config.memoryBudgetMb = memoryBudgetMb;
        config.cancelFlag = cancelFlag;
        config.progressEveryConflicts = progressEveryConflicts;
        config.portfolioWorkers = portfolioWorkers;
        config.simplify = simplify;
        return config;
    }
};

/// Convenience: options for a specific backend, other knobs defaulted.
[[nodiscard]] inline QueryOptions withBackend(smt::BackendKind kind) {
    QueryOptions options;
    options.backend = kind;
    return options;
}

} // namespace lar::reason
