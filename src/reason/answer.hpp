// The one outcome type of every architect query.
//
// SolverSession::run answers feasibility / explain / synthesize / optimize /
// enumerate with an Answer, for Engine queries and session asks alike:
// verdict, payload and solver telemetry travel together in one
// value, so no caller has to read a second channel to learn how a query
// ended. Every solver status becomes a Verdict in verdictOf() alone.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reason/design.hpp"
#include "reason/query_options.hpp"
#include "reason/trace.hpp"

namespace lar::reason {

struct Answer {
    /// Sat / Unsat, or — when the solver gave up — TimedOut (deadline),
    /// Cancelled (cancel flag) or Unknown (conflict/propagation/memory
    /// budget). Error only for a what-if ask naming unknown entities.
    Verdict verdict = Verdict::Unknown;
    /// The backend's stop reason after the query's last solver call (None
    /// for an ask refused for unknown names). Distinguishes deadline expiry
    /// from budgets and cancellation.
    sat::StopReason stopReason = sat::StopReason::None;

    std::optional<Design> design;              ///< Synthesize/Optimize/ask: Sat
    std::vector<Design> designs;               ///< Enumerate
    std::vector<std::string> conflictingRules; ///< Feasibility/Explain/ask: Unsat
    /// Entities a what-if variation named that the compilation lacks
    /// ("system/<name>", "hardware/<class>/<model>", "option/<name>");
    /// non-empty exactly when verdict == Error.
    std::vector<std::string> unknownNames;

    /// Search counters of the query's solver (a what-if session's are
    /// cumulative across its asks; exact for CDCL, best-effort for Z3).
    sat::SolverStats stats;
    /// Race figures when the query ran a portfolio (portfolioWorkers > 1 on
    /// CDCL); nullopt for single-worker queries.
    std::optional<smt::PortfolioStats> portfolio;
    /// Clauses integrated from QueryOptions::warmStart (0 = cold/refused).
    std::size_t warmStartImported = 0;
    /// Snapshot exported when QueryOptions::captureSnapshot was set and the
    /// session's clause DB still equalled the replay baseline (check and
    /// core queries qualify; optimize/enumerate grow clauses and refuse).
    std::shared_ptr<const sat::SolverSnapshot> snapshot;
};

/// The single mapping from a solver status to a Verdict. Unknown splits by
/// the backend's stop reason; a backend that reports StopReason::None (Z3)
/// is Cancelled when the query's cancel flag is set, Unknown otherwise.
[[nodiscard]] Verdict verdictOf(smt::CheckStatus status, sat::StopReason stop,
                                const QueryOptions& options);

/// Copies an answer's verdict and solver telemetry (stop reason, stats,
/// portfolio and warm-start figures) into `trace`. Service queries and
/// session asks fill their traces through this one function.
void traceAnswer(const Answer& answer, QueryTrace& trace);

} // namespace lar::reason
