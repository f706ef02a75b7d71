#include "reason/answer.hpp"

namespace lar::reason {

Verdict verdictOf(smt::CheckStatus status, sat::StopReason stop,
                  const QueryOptions& options) {
    switch (status) {
        case smt::CheckStatus::Sat: return Verdict::Sat;
        case smt::CheckStatus::Unsat: return Verdict::Unsat;
        case smt::CheckStatus::Unknown: break;
    }
    switch (stop) {
        case sat::StopReason::Deadline: return Verdict::TimedOut;
        case sat::StopReason::Cancelled: return Verdict::Cancelled;
        case sat::StopReason::None:
            if (options.cancelFlag != nullptr &&
                options.cancelFlag->load(std::memory_order_relaxed))
                return Verdict::Cancelled;
            return Verdict::Unknown;
        default: return Verdict::Unknown;
    }
}

void traceAnswer(const Answer& answer, QueryTrace& trace) {
    trace.verdict = answer.verdict;
    trace.stopReason = answer.stopReason;
    trace.stats = answer.stats;
    trace.warmStartClauses = answer.warmStartImported;
    if (answer.portfolio.has_value()) {
        trace.portfolioWinner = answer.portfolio->winnerConfig;
        trace.portfolioShared = answer.portfolio->clausesShared;
        trace.portfolioImported = answer.portfolio->clausesImported;
        trace.portfolioLost = answer.portfolio->clausesLost;
        trace.portfolioCancelMs = answer.portfolio->cancelLatencyMs;
    }
}

} // namespace lar::reason
