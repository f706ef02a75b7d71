// Backend over the from-scratch CDCL solver (src/sat) with CNF encodings
// (src/encode) and linear-search MaxSAT (src/opt).
#pragma once

#include <unordered_map>

#include "encode/cnf_builder.hpp"
#include "sat/solver.hpp"
#include "smt/backend.hpp"

namespace lar::smt {

class CdclBackend final : public Backend {
public:
    explicit CdclBackend(const FormulaStore& store, const BackendConfig& config = {})
        : store_(&store) {
        sat::SolverOptions opts;
        opts.randomSeed = config.seed;
        opts.timeBudgetMs = config.timeoutMs > 0 ? config.timeoutMs : -1;
        opts.conflictBudget = config.conflictBudget;
        opts.propagationBudget = config.propagationBudget;
        opts.memoryBudgetMb = config.memoryBudgetMb;
        opts.cancelFlag = config.cancelFlag;
        opts.progressEvery = config.progressEveryConflicts;
        opts.progressFn = config.progressFn;
        opts.simplify.enable = config.simplify;
        solver_.setOptions(opts);
    }

    void addHard(NodeId formula, int track = -1) override;
    CheckStatus check(std::span<const NodeId> assumptions = {}) override;
    CheckStatus checkWithTracks(std::span<const int> activeTracks,
                                std::span<const NodeId> assumptions = {}) override;
    [[nodiscard]] bool modelValue(NodeId var) const override;
    [[nodiscard]] CoreResult unsatCore() const override { return lastCore_; }
    OptimizeResult optimize(std::span<const ObjectiveSpec> objectives,
                            std::span<const NodeId> assumptions = {}) override;
    [[nodiscard]] std::string name() const override { return "cdcl"; }
    [[nodiscard]] sat::SolverStats stats() const override { return solver_.stats(); }
    [[nodiscard]] sat::StopReason lastStopReason() const override {
        return solver_.stopReason();
    }
    void markSnapshotBaseline() override { solver_.markSnapshotBaseline(); }
    [[nodiscard]] sat::SolverSnapshot exportSnapshot() const override {
        return solver_.exportSnapshot();
    }
    std::size_t importSnapshot(const sat::SolverSnapshot& snapshot) override {
        return solver_.importSnapshot(snapshot);
    }

    /// Underlying solver knobs (diversity profile, clause-sharing hooks).
    /// Read with solverOptions(), write with setSolverOptions() — the solver
    /// rejects option changes while a solve() is in flight (LogicError), per
    /// its threading contract (solver.hpp).
    [[nodiscard]] const sat::SolverOptions& solverOptions() const {
        return solver_.options();
    }
    void setSolverOptions(const sat::SolverOptions& opts) {
        solver_.setOptions(opts);
    }

private:
    /// Polarity bits for occurrence analysis of LinLeq atoms.
    enum : int { kPos = 1, kNeg = 2 };

    struct LinLeqGate {
        sat::Lit out = sat::kUndefLit;
        bool forwardBuilt = false;  ///< out → (Σ ≤ bound)
        bool backwardBuilt = false; ///< ¬out → (Σ ≥ bound+1)
    };

    sat::Lit compile(NodeId id);
    sat::Lit compileLinLeq(NodeId id);
    /// Emits the counter directions required by the node's polarity mask.
    void emitLinLeqDirections(NodeId id);
    /// Records polarity of every LinLeq under `id`; upgrades already-built
    /// gates when a new polarity appears.
    void notePolarity(NodeId id, int mask);
    sat::Lit assumptionLit(NodeId id);
    std::vector<sat::Lit> buildAssumptionLits(std::span<const NodeId> assumptions);
    void captureCore(std::span<const NodeId> assumptions);

    const FormulaStore* store_;
    sat::Solver solver_;
    encode::CnfBuilder builder_{solver_};
    std::unordered_map<NodeId, sat::Lit> cache_;
    std::unordered_map<NodeId, int> polarity_;
    std::unordered_map<NodeId, LinLeqGate> linleqGates_;
    std::vector<std::pair<int, sat::Lit>> selectors_; ///< (track id, selector)
    CoreResult lastCore_;
};

} // namespace lar::smt
