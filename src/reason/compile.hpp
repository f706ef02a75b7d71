// Compilation of a design Problem into solver formulas.
//
// Variable map:
//   sys/<name>        — system <name> is part of the design
//   hw/<class>/<model> — <model> is the chosen model for <class>
//   fact/<name>       — derived fact holds (defined as OR of providers + pin)
//   opt/<name>        — free deployment option switched on
//
// A Compilation is built once per (Problem, KB revision): it owns the
// formula store, the recorded hard assertions, the objective stack and the
// variable maps, all immutable after construction. Queries bind a
// SolverSession to it, which copies the store (node ids are preserved, so
// the compilation's variable maps stay valid) and owns all mutable solve
// state. This is what lets the Service cache compilations and share one
// across concurrent queries.
//
// The one lazily written part is the *prepared image*. A single-worker CDCL
// session with inprocessing on does not solve the bare replay: it first
// prepares it — the hard assertions through Tseitin with every selector
// and Var node frozen, then the first inprocessing round (see
// sat::Solver::prepare) — and adds query work (objective softs, blocking
// clauses, assumptions, the warm-start import) only on top. The first such
// session over a Compilation solves on its fresh prepared state; the
// second also keeps a compact, immutable image of it here
// (Compilation::prepare, once, under std::call_once); every later one clones that image (smt::CdclImage)
// instead of replaying and inprocessing, and then searches exactly as the
// fresh state would. A fingerprint seen once never holds an image, and an
// image lives and dies with its Compilation (the Service's compile LRU
// entry). Z3, portfolio and inprocessing-off sessions still replay.
//
// Every hard rule asserted into a backend carries a track id whose
// human-readable description is kept in trackedRules(); unsat cores map back
// through it to produce the §6-style explanations ("which of your
// requirements are in conflict").
//
// SolverSession::run is the one query executor: Engine::run calls it on a
// fresh session per query, SessionManager on the session a what-if session
// holds, with each Variation lowered to assumptions.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "reason/answer.hpp"
#include "reason/design.hpp"
#include "reason/problem.hpp"
#include "reason/query_options.hpp"
#include "smt/backend.hpp"

namespace lar::smt {
class CdclBackend;
struct CdclImage;
} // namespace lar::smt

namespace lar::reason {

/// One what-if variation: pins applied on top of a compiled problem. Only
/// pin-style changes lower to assumptions; anything that changes rules (new
/// workloads, different budgets) needs a new compilation.
struct Variation {
    /// System name → must be deployed (true) / must not (false).
    std::map<std::string, bool> systems;
    /// Hardware class → the model that must be used.
    std::map<kb::HardwareClass, std::string> hardwareModels;
    /// Option name → forced value.
    std::map<std::string, bool> options;
};

class Compilation {
public:
    /// Compiles `problem` into formulas. The problem is copied; the
    /// knowledge base it references must outlive the compilation.
    explicit Compilation(const Problem& problem);
    ~Compilation();

    /// One recorded hard constraint; track < 0 means untracked
    /// (definitional — never part of an explanation).
    struct HardAssertion {
        smt::NodeId formula = smt::kInvalidNode;
        int track = -1;
    };

    [[nodiscard]] const smt::FormulaStore& store() const { return store_; }
    [[nodiscard]] const Problem& problem() const { return problem_; }
    [[nodiscard]] const std::vector<HardAssertion>& hardAssertions() const {
        return hards_;
    }

    /// Description of tracked rule `track` (index into trackedRules()).
    [[nodiscard]] const std::vector<std::string>& trackedRules() const {
        return ruleDescriptions_;
    }
    [[nodiscard]] std::vector<std::string> describeTracks(
        const std::vector<int>& tracks) const;

    /// Lexicographic objective stack built from Problem::objectivePriority.
    [[nodiscard]] const std::vector<smt::ObjectiveSpec>& objectives() const {
        return objectives_;
    }

    /// Variable lookups (kInvalidNode when the entity is unknown).
    [[nodiscard]] smt::NodeId systemVar(const std::string& name) const;
    [[nodiscard]] smt::NodeId hardwareVar(kb::HardwareClass cls,
                                          const std::string& model) const;
    [[nodiscard]] smt::NodeId optionVar(const std::string& name) const;

    /// A variation lowered to solver assumptions.
    struct Assumptions {
        std::vector<smt::NodeId> literals;
        /// Pins naming entities this compilation lacks ("system/<name>",
        /// "hardware/<class>/<model>", "option/<name>"), in variation order.
        std::vector<std::string> unknownNames;
    };
    /// Maps each pin of `variation` to a literal built in `store` (a
    /// session's copy). An unknown name maps to no literal: it lands in
    /// unknownNames, so the caller can refuse the variation instead of
    /// answering it vacuously.
    [[nodiscard]] Assumptions assumptionsFor(const Variation& variation,
                                             smt::FormulaStore& store) const;

    /// Reads `backend`'s current model into a Design (resource accounting
    /// and cost computed from the chosen hardware).
    [[nodiscard]] Design extractDesign(const smt::Backend& backend) const;

    /// Builds (in `store` — a session's copy) the clause that blocks
    /// `backend`'s current projected design (chosen systems + hardware), so
    /// the next check produces a different equivalence-class representative.
    [[nodiscard]] smt::NodeId blockingClause(const smt::Backend& backend,
                                             smt::FormulaStore& store) const;

    /// Brings `backend`, with the hard assertions replayed, to the prepared
    /// state (smt::CdclBackend::prepare). From the second call on, the
    /// first prepare that is not cut short leaves its image here. Safe from
    /// any thread.
    void prepare(smt::CdclBackend& backend) const;
    /// The kept prepared image (nullptr until a second prepared session
    /// stored one). Safe from any thread.
    [[nodiscard]] const smt::CdclImage* preparedImage() const {
        return image_.load(std::memory_order_acquire);
    }
    /// Exact bytes the kept image holds (0 without one).
    [[nodiscard]] std::size_t preparedBytes() const;

private:
    // -- construction passes --------------------------------------------------
    void collectFactsAndOptions();
    void buildHardwareVars();
    void buildSystemVars();
    void defineFacts();
    void buildCategoryRules();
    void buildSystemRules();
    void buildCapabilityRules();
    void buildResourceRules();
    void buildBandwidthRules();
    void buildPerformanceBounds();
    void buildPins();
    void buildBudgets();
    void buildExtraConstraint();
    void buildObjectives();

    [[nodiscard]] smt::NodeId compileRequirement(const kb::Requirement& r);
    /// OR over simple paths from `from` to `to` in the ordering graph of
    /// `objective`, with each path contributing AND(edge conditions).
    [[nodiscard]] smt::NodeId betterFormula(const std::string& objective,
                                            const std::string& from,
                                            const std::string& to);

    int track(std::string description);
    void assertTracked(smt::NodeId formula, std::string description);
    void assertUntracked(smt::NodeId formula);

    Problem problem_;
    smt::FormulaStore store_;
    std::vector<HardAssertion> hards_;

    std::map<std::string, smt::NodeId> systemVars_;
    std::map<kb::HardwareClass, std::map<std::string, smt::NodeId>> hardwareVars_;
    std::map<std::string, smt::NodeId> factVars_;
    std::map<std::string, smt::NodeId> optionVars_;

    std::vector<std::string> ruleDescriptions_;
    std::vector<smt::ObjectiveSpec> objectives_;

    // The prepared image: written once, by the second prepared session.
    mutable std::atomic<int> prepares_{0}; ///< prepared sessions so far
    mutable std::once_flag imageOnce_;
    mutable std::unique_ptr<const smt::CdclImage> imageOwner_;
    mutable std::atomic<const smt::CdclImage*> image_{nullptr};
};

/// A query's mutable solver state over an immutable (possibly shared,
/// possibly cached) Compilation: a private copy of the formula store plus a
/// backend holding the hard assertions — prepared fresh, cloned from the
/// compilation's image, or (Z3, portfolio, inprocessing off) replayed.
/// Everything a query locks in — optimization bounds, blocking clauses,
/// learned clauses — stays inside the session and dies with it.
class SolverSession {
public:
    explicit SolverSession(std::shared_ptr<const Compilation> compilation,
                           const QueryOptions& options = {});

    // The backend holds a pointer to store_, so the session must stay put
    // (guaranteed copy elision still allows returning a prvalue).
    SolverSession(const SolverSession&) = delete;
    SolverSession& operator=(const SolverSession&) = delete;

    /// Answers one query of `kind` under `assumptions` on this session's
    /// solver. Enumerate returns up to `maxDesigns` designs, of the optimal
    /// equivalence class when `optimizeFirst`; the other kinds ignore both.
    /// The answer carries the verdict, its payload (a Feasibility answer
    /// names the conflicting rules but carries no design) and the session's
    /// cumulative solver telemetry. Feasibility and Explain leave only learnt
    /// clauses behind, so a held session can answer again; Optimize and
    /// Enumerate lock their bounds and blocking clauses in.
    [[nodiscard]] Answer run(QueryKind kind, int maxDesigns = 0,
                             std::span<const smt::NodeId> assumptions = {},
                             bool optimizeFirst = true);

    [[nodiscard]] smt::Backend& backend() { return *backend_; }
    [[nodiscard]] const smt::Backend& backend() const { return *backend_; }
    /// The session's private store copy (mutable: variation assumptions and
    /// blocking clauses build new nodes here; compilation node ids are
    /// preserved by the copy).
    [[nodiscard]] smt::FormulaStore& store() { return store_; }
    [[nodiscard]] const Compilation& compilation() const { return *compilation_; }

    [[nodiscard]] Design extractDesign() const {
        return compilation_->extractDesign(*backend_);
    }
    /// Asserts the clause blocking the backend's current projected design.
    void blockCurrentDesign();

    /// Clauses integrated from QueryOptions::warmStart (0 = cold start or
    /// the backend refused the snapshot).
    [[nodiscard]] std::size_t warmStartImported() const {
        return warmStartImported_;
    }
    /// True when a warm-start snapshot was requested AND the backend
    /// accepted it.
    [[nodiscard]] bool warmStarted() const { return warmStarted_; }
    /// Exports the session's learnt heuristic state for a later session over
    /// the same compilation; empty when the backend doesn't support it or
    /// the clause DB grew past the replay baseline (optimization bounds,
    /// blocking clauses).
    [[nodiscard]] sat::SolverSnapshot exportSnapshot() const {
        return backend_->exportSnapshot();
    }

private:
    std::shared_ptr<const Compilation> compilation_;
    QueryOptions options_; ///< as given, minus the imported warm start
    smt::FormulaStore store_;
    std::unique_ptr<smt::Backend> backend_;
    std::size_t warmStartImported_ = 0;
    bool warmStarted_ = false;
};

} // namespace lar::reason
