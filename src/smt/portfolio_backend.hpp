// Parallel portfolio over diverse CDCL workers with learnt-clause sharing.
//
// K CdclBackend instances hold the identical compiled formula (same addHard
// sequence over one FormulaStore → identical CNF, identical variable
// numbering) and race every check/optimize call under diverse
// configurations: different initial-phase seeds, restart cadences, VSIDS
// decay, and phase-saving switches. The first worker with a definitive
// verdict wins and cooperatively cancels its siblings through the shared
// race-cancel flag (the solvers' existing cancelFlag polling). Workers
// exchange short learnt clauses (LBD ≤ shareLbdMax or size ≤ shareSizeMax)
// through a bounded lock-free sat::ClauseExchange; imports are validated
// against the importing solver's level-0 assignment at restart boundaries.
//
// Soundness invariants:
//  * learnt clauses are implied by the clause database alone (never by the
//    assumptions of the call that learnt them), so sharing is sound exactly
//    while all workers hold identical clause databases;
//  * addHard() keeps the databases identical (every worker asserts the same
//    formula), so sharing stays on across incremental check() calls;
//  * optimize() workers add divergent bound clauses, so sharing is switched
//    off permanently before the first optimize() fan-out;
//  * after an optimize() race only the winner holds the optimum locked in
//    (Backend contract), so from then on the portfolio collapses to that
//    sole worker — later addHard/check/optimize/model calls all forward to
//    it, which is exactly the enumeration (blocking-clause) pattern.
//
// The wrapper satisfies smt::Backend, so Engine queries, session asks, unsat
// cores and optimization work unchanged on top of it.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "sat/clause_exchange.hpp"
#include "smt/backend.hpp"
#include "smt/cdcl_backend.hpp"

namespace lar::smt {

class PortfolioBackend final : public Backend {
public:
    /// Hard cap on racing workers (exchange sizing; more buys nothing on
    /// commodity hosts).
    static constexpr int kMaxWorkers = 16;

    /// Uses `config.portfolioWorkers` workers (clamped to [2, kMaxWorkers]).
    PortfolioBackend(const FormulaStore& store, const BackendConfig& config);
    ~PortfolioBackend() override = default;

    void addHard(NodeId formula, int track = -1) override;
    CheckStatus check(std::span<const NodeId> assumptions = {}) override;
    CheckStatus checkWithTracks(std::span<const int> activeTracks,
                                std::span<const NodeId> assumptions = {}) override;
    [[nodiscard]] bool modelValue(NodeId var) const override;
    [[nodiscard]] CoreResult unsatCore() const override;
    OptimizeResult optimize(std::span<const ObjectiveSpec> objectives,
                            std::span<const NodeId> assumptions = {}) override;
    /// The last race winner's counters (worker 0 before any race) — the
    /// portfolio-wide aggregate lives in portfolioStats().
    [[nodiscard]] sat::SolverStats stats() const override;
    [[nodiscard]] std::optional<PortfolioStats> portfolioStats() const override;
    /// The stats worker's stop reason: after a race without a definitive
    /// verdict every worker stopped for the same class of reason (shared
    /// deadline/cancel flag), so one worker's answer stands in for all.
    [[nodiscard]] sat::StopReason lastStopReason() const override {
        return workers_[static_cast<std::size_t>(statsWorker_)]->lastStopReason();
    }
    [[nodiscard]] std::string name() const override { return "cdcl-portfolio"; }
    void restartDeadline() override {
        for (auto& worker : workers_) worker->restartDeadline();
    }

    /// Diversity-profile name applied to worker `i` ("base" for worker 0,
    /// which runs the stock configuration).
    [[nodiscard]] static const char* profileName(int i);

private:
    /// Runs `attempt` on every worker concurrently; the first to return
    /// true (definitive) wins and flips the race-cancel flag. Returns the
    /// winner index or -1 (nobody definitive). Relays the caller's
    /// cancelFlag into the race while waiting. Worker exceptions are
    /// rethrown only when no worker produced a definitive verdict.
    int race(const std::function<bool(CdclBackend&, int)>& attempt);
    /// Permanently stops clause exchange (called before optimize fan-out).
    void disableSharing();
    /// Collapses the portfolio onto `worker` (post-optimize): later calls
    /// forward to it, and its solver polls the caller's cancel flag again
    /// instead of the race-cancel flag the finished race left set.
    void becomeSoleWorker(int worker);

    std::vector<std::unique_ptr<CdclBackend>> workers_;
    std::unique_ptr<sat::ClauseExchange> exchange_;
    /// The flag every worker's solver polls; set by the race winner or
    /// relayed from the caller's BackendConfig::cancelFlag.
    std::atomic<bool> raceCancel_{false};
    const std::atomic<bool>* callerCancel_ = nullptr;
    int active_ = -1;      ///< ≥ 0: sole-worker mode (post-optimize)
    int statsWorker_ = 0;  ///< worker whose model/core/stats are current
    bool sharingEnabled_ = true;
    PortfolioStats pstats_;
};

} // namespace lar::smt
