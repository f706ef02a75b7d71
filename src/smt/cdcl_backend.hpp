// Backend over the from-scratch CDCL solver (src/sat) with CNF encodings
// (src/encode) and linear-search MaxSAT (src/opt).
//
// A backend can be *prepared* (prepare(): the first inprocessing round over
// the hard assertions, see sat::Solver::prepare) and then flattened into an
// immutable CdclImage; the cloning constructor rebuilds an identical backend
// from it without replaying addHard() or the round.
#pragma once

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "encode/cnf_builder.hpp"
#include "sat/solver.hpp"
#include "smt/backend.hpp"

namespace lar::smt {

/// Encoding state of one LinLeq atom: which occurrence polarities it has
/// been seen in, and which directions of its counter exist.
struct LinLeqGate {
    sat::Lit out = sat::kUndefLit; ///< undefined until compiled
    int polarity = 0;              ///< kPos | kNeg occurrences seen so far
    bool forwardBuilt = false;     ///< out → (Σ ≤ bound)
    bool backwardBuilt = false;    ///< ¬out → (Σ ≥ bound+1)
};

struct CdclImage;

class CdclBackend final : public Backend {
public:
    explicit CdclBackend(const FormulaStore& store, const BackendConfig& config = {});
    /// Clone of the prepared backend `image` was taken from, over `store`
    /// (a copy of that backend's store, or the store itself: node ids must
    /// mean the same formulas), under `config`'s seed, budgets and hooks.
    CdclBackend(const FormulaStore& store, const BackendConfig& config,
                const CdclImage& image);

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
    void restartDeadline() override;
    void markSnapshotBaseline() override { solver_.markSnapshotBaseline(); }
    [[nodiscard]] sat::SolverSnapshot exportSnapshot() const override {
        return solver_.exportSnapshot();
    }
    std::size_t importSnapshot(const sat::SolverSnapshot& snapshot) override {
        return solver_.importSnapshot(snapshot);
    }

    /// Brings the replayed hard assertions to the prepared state (see
    /// sat::Solver::prepare). Call once, after the last addHard() and before
    /// the first check. False: the round was cut short (deadline, cancel,
    /// memory budget) or the formula is Unsat — keep no image of it.
    bool prepare() { return solver_.prepare(); }
    /// Flat image of the prepared state; only directly after a prepare()
    /// that returned true.
    [[nodiscard]] std::unique_ptr<const CdclImage> image() const;

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

    sat::Lit compile(NodeId id);
    sat::Lit compileLinLeq(NodeId id);
    /// Emits the counter directions required by the node's polarity mask.
    void emitLinLeqDirections(NodeId id);
    /// Records polarity of every LinLeq under `id`; upgrades already-built
    /// gates when a new polarity appears.
    void notePolarity(NodeId id, int mask);
    [[nodiscard]] sat::Lit compiled(NodeId id) const {
        return static_cast<std::size_t>(id) < lits_.size()
                   ? lits_[static_cast<std::size_t>(id)]
                   : sat::kUndefLit;
    }
    sat::Lit assumptionLit(NodeId id);
    std::vector<sat::Lit> buildAssumptionLits(std::span<const NodeId> assumptions);
    void captureCore(std::span<const NodeId> assumptions);

    const FormulaStore* store_;
    int timeoutMs_ = 0;
    sat::Solver solver_;
    encode::CnfBuilder builder_{solver_};
    std::vector<sat::Lit> lits_; ///< NodeId → compiled literal (kUndefLit: not yet)
    std::unordered_map<NodeId, LinLeqGate> linleq_;
    std::vector<std::pair<int, sat::Lit>> selectors_; ///< (track id, selector)
    CoreResult lastCore_;
};

/// Immutable image of a prepared CdclBackend: the solver image plus the
/// encoder's maps, flattened (compiled literals by NodeId, LinLeq gates
/// as (NodeId, gate) pairs). It copies no FormulaStore — a clone reads the store
/// it is given.
struct CdclImage {
    sat::SolverImage solver;
    std::vector<sat::Lit> lits;
    std::vector<std::pair<NodeId, LinLeqGate>> linleq;
    std::vector<std::pair<int, sat::Lit>> selectors;
    sat::Lit trueLit = sat::kUndefLit;

    /// Exact heap bytes held.
    [[nodiscard]] std::size_t bytes() const {
        return solver.bytes() + lits.size() * sizeof(sat::Lit) +
               linleq.size() * sizeof(linleq[0]) +
               selectors.size() * sizeof(selectors[0]);
    }
};

} // namespace lar::smt
