// Abstract solver backend consumed by the reasoning engine.
//
// Two implementations exist: CdclBackend (the from-scratch CDCL solver with
// CNF encodings and MaxSAT) and Z3Backend (native Z3 C++ API — the solver
// family the paper's prototype used). They are interchangeable and the test
// suite cross-checks their verdicts on random formulas.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sat/solver.hpp"
#include "smt/formula.hpp"

namespace lar::smt {

enum class CheckStatus { Sat, Unsat, Unknown };

/// Soft constraint: pay `weight` when `formula` is violated. Softs sharing a
/// non-negative `exclusiveGroup` must have at most one violated member in
/// any model (caller-guaranteed); backends may exploit this to keep their
/// objective counters small.
struct SoftItem {
    NodeId formula = kInvalidNode;
    std::int64_t weight = 1;
    int exclusiveGroup = -1;
};

/// One lexicographic objective level (earlier levels dominate later ones).
struct ObjectiveSpec {
    std::string name;
    std::vector<SoftItem> softs;
};

/// Result of an optimize() call: per-level violation costs, in order.
/// `unknown` is set when a budget/deadline/cancellation interrupted the
/// search — either nothing is proven (feasible == false) or the costs are a
/// best-effort bound with the matching model loaded (CDCL backend only; Z3
/// reports interrupted optimization as infeasible+unknown).
struct OptimizeResult {
    bool feasible = false;
    bool unknown = false;
    std::vector<std::int64_t> costs;
};

/// Unsat-core: which tracked hard constraints and which assumptions clash.
struct CoreResult {
    std::vector<int> tracks;            ///< track ids passed to addHard
    std::vector<NodeId> assumptions;    ///< failing members of the assumption set
};

/// Cumulative portfolio figures for a backend that races several workers
/// (see PortfolioBackend); single-worker backends report std::nullopt from
/// Backend::portfolioStats().
struct PortfolioStats {
    int workers = 1;              ///< racing solver configurations
    int races = 0;                ///< check/optimize calls fanned out so far
    int winner = -1;              ///< worker index that won the last race
    std::string winnerConfig;     ///< diversity-profile name of that worker
    std::uint64_t clausesShared = 0;   ///< published into the exchange
    std::uint64_t clausesImported = 0; ///< integrated by importing workers
    std::uint64_t clausesLost = 0;     ///< overwritten/over-long, never imported
    double cancelLatencyMs = 0.0; ///< last race: verdict → all workers stopped
};

class Backend {
public:
    virtual ~Backend() = default;

    /// Asserts `formula` as a hard constraint. When `track` >= 0 the
    /// constraint participates in unsat cores under that id (tracked
    /// constraints are enforced through a selector, so they cost one extra
    /// assumption per check).
    virtual void addHard(NodeId formula, int track = -1) = 0;

    /// Satisfiability under assumptions. Each assumption must be a Var or
    /// Not(Var) node.
    virtual CheckStatus check(std::span<const NodeId> assumptions = {}) = 0;

    /// Like check(), but only the tracked constraints whose ids appear in
    /// `activeTracks` are enforced (untracked constraints always hold).
    /// Used for deletion-based unsat-core minimization.
    virtual CheckStatus checkWithTracks(std::span<const int> activeTracks,
                                        std::span<const NodeId> assumptions = {}) = 0;

    /// Value of a Var node in the model of the last Sat check/optimize.
    [[nodiscard]] virtual bool modelValue(NodeId var) const = 0;

    /// After an Unsat check: the conflicting tracked constraints/assumptions.
    [[nodiscard]] virtual CoreResult unsatCore() const = 0;

    /// Lexicographic optimization under assumptions. On success the model of
    /// the optimum is available through modelValue(). Backends may leave the
    /// optimum locked in (the engine uses one backend instance per query).
    virtual OptimizeResult optimize(std::span<const ObjectiveSpec> objectives,
                                    std::span<const NodeId> assumptions = {}) = 0;

    /// Cumulative search statistics for this backend instance (the engine
    /// uses one instance per query, so these read as per-query figures).
    /// The CDCL backend reports exact counters; Z3 maps what its statistics
    /// API exposes (best effort — unknown counters stay zero).
    [[nodiscard]] virtual sat::SolverStats stats() const = 0;

    /// Portfolio race figures; std::nullopt for single-worker backends.
    [[nodiscard]] virtual std::optional<PortfolioStats> portfolioStats() const {
        return std::nullopt;
    }

    /// Why the last check/optimize stopped without a definitive verdict
    /// (deadline vs. budget vs. cancellation). StopReason::None when the last
    /// call was definitive, or for backends that don't track it (Z3).
    [[nodiscard]] virtual sat::StopReason lastStopReason() const {
        return sat::StopReason::None;
    }

    /// Starts the BackendConfig::timeoutMs budget afresh from now. Backends
    /// start it at construction and every later check/optimize gets only
    /// the time left, so a query's calls share one deadline; a long-lived
    /// what-if session restarts it per ask.
    virtual void restartDeadline() = 0;

    // -- warm-start snapshots (CDCL single-worker backend only) --------------
    // Defaults make snapshots a no-op: Z3 has no exportable learnt state and
    // the portfolio backend's workers diverge from the replay baseline, so
    // only CdclBackend overrides these (see sat::SolverSnapshot for the
    // soundness argument).

    /// Records the current clause database as the snapshot baseline. Called
    /// by the reasoning layer right after replaying a compilation's hard
    /// assertions, before any query-specific clauses.
    virtual void markSnapshotBaseline() {}

    /// Exports heuristic state + short learnt clauses, or an empty snapshot
    /// when the backend doesn't support it / the clause DB grew past the
    /// baseline.
    [[nodiscard]] virtual sat::SolverSnapshot exportSnapshot() const {
        return {};
    }

    /// Imports a snapshot exported from an identically-built backend;
    /// returns the number of clauses integrated (0 = refused/unsupported).
    virtual std::size_t importSnapshot(const sat::SolverSnapshot&) { return 0; }

    [[nodiscard]] virtual std::string name() const = 0;
};

/// Kinds of backends available in this build.
enum class BackendKind { Cdcl, Z3 };

/// Per-instance knobs shared by all backends, mapped from
/// reason::QueryOptions by the reasoning layer.
struct BackendConfig {
    /// Nonzero: seed for randomized search aspects (initial phases for the
    /// CDCL backend, random_seed for Z3). 0 keeps the deterministic default.
    std::uint64_t seed = 0;
    /// Wall-clock budget in milliseconds from backend construction (or the
    /// last restartDeadline()), shared by every check/optimize call; 0 =
    /// none. On exhaustion checks return CheckStatus::Unknown and optimize()
    /// reports unknown.
    int timeoutMs = 0;
    /// Conflict budget per solver call; -1 = unlimited. CDCL maps this to
    /// SolverOptions::conflictBudget; Z3 to max_conflicts where the linked
    /// libz3 supports it (best effort).
    std::int64_t conflictBudget = -1;
    /// Propagation budget per solver call; -1 = unlimited (CDCL only).
    std::int64_t propagationBudget = -1;
    /// Learnt-clause arena cap in MiB; -1 = unlimited. CDCL enforces it via
    /// SolverOptions::memoryBudgetMb; Z3 maps to max_memory (best effort).
    std::int64_t memoryBudgetMb = -1;
    /// Cooperative cancellation flag, polled on the deadline cadence by the
    /// CDCL solver. The Z3 backend checks it at call entry only (coarse).
    /// Owned by the caller; may be flipped from any thread.
    const std::atomic<bool>* cancelFlag = nullptr;
    /// Fire `progressFn` every this many conflicts during CDCL search
    /// (0 = never). Observation only: verdicts, models, and costs are
    /// identical with probes on or off. Z3 exposes no equivalent hook, so
    /// the Z3 backend ignores both fields and reports search counters only
    /// through stats().
    int progressEveryConflicts = 0;
    std::function<void(const sat::SolverProgress&)> progressFn;
    /// Portfolio width: number of diverse CDCL workers racing each
    /// check/optimize call, first definitive verdict wins (≤ 1 = classic
    /// single-threaded solving). Honoured by the CDCL backend only — Z3
    /// ignores it. makeBackend(BackendKind::Cdcl, …) returns a
    /// PortfolioBackend when this exceeds 1.
    int portfolioWorkers = 1;
    /// Run CDCL inprocessing (subsumption, vivification, probing,
    /// equivalence reduction, bounded variable elimination) before search
    /// and at restart boundaries. Verdict-preserving; Z3 ignores it.
    bool simplify = true;
};

/// True when the library was built with Z3 support.
[[nodiscard]] bool haveZ3();

struct CdclImage;

/// Creates a backend over `store`; with `image`, a clone of the prepared
/// single-worker CDCL backend it was taken from (see CdclImage). Throws
/// LogicError for BackendKind::Z3 when the library was built without Z3.
[[nodiscard]] std::unique_ptr<Backend> makeBackend(BackendKind kind,
                                                   const FormulaStore& store,
                                                   const BackendConfig& config = {},
                                                   const CdclImage* image = nullptr);

} // namespace lar::smt
