// The reasoning engine — the paper's §5.1 prototype, as a library.
//
// An Engine binds a compiled problem instance (owned or shared, e.g. from
// the Service's compilation cache) and answers the architect's queries on
// it: feasibility with rule-level conflict explanations (§6
// "Explainability"), synthesis, lexicographic optimization (Listing 3 line
// 10), and equivalence-class enumeration. run() answers each query through
// SolverSession::run, the one executor, on a fresh session: an Answer
// carrying the verdict, the payload and the solver telemetry. The typed
// methods are projections of it.
//
// Reentrancy contract: every query acquires a fresh SolverSession from the
// compilation, so queries are independent — optimize() followed by
// synthesize() on the same Engine no longer sees locked optimization
// bounds, and the same Engine can be reused for any number of queries. The
// Engine itself is not thread-safe (it remembers the last verdict for
// lastQueryUnknown()); to run queries concurrently, give each thread its
// own Engine over the same shared Compilation — that is exactly what
// reason::Service does.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reason/answer.hpp"
#include "reason/compile.hpp"
#include "reason/design.hpp"
#include "reason/problem.hpp"
#include "reason/query_options.hpp"

namespace lar::reason {

struct FeasibilityReport {
    bool feasible = false;
    /// The solver gave up (deadline, budget or cancellation) before
    /// reaching a verdict; `feasible` is false but means "unknown".
    bool timedOut = false;
    /// When infeasible: human-readable descriptions of the clashing rules
    /// (from the backend's unsat core).
    std::vector<std::string> conflictingRules;
};

class Engine {
public:
    /// Compiles `problem` and binds the engine to it.
    explicit Engine(const Problem& problem, const QueryOptions& options = {});

    /// Binds the engine to an already-compiled (possibly cached, possibly
    /// shared across engines) problem instance.
    explicit Engine(std::shared_ptr<const Compilation> compilation,
                    const QueryOptions& options = {});

    /// Answers one query of `kind` on a fresh solver session. Enumerate
    /// returns up to `maxDesigns` designs of the optimal equivalence class;
    /// the other kinds ignore `maxDesigns`.
    [[nodiscard]] Answer run(QueryKind kind, int maxDesigns = 0);

    /// Is any compliant design possible? On failure, names the conflict.
    [[nodiscard]] FeasibilityReport checkFeasible();

    /// Like checkFeasible(), but on failure shrinks the conflict to a
    /// locally-minimal rule set by deletion: every rule left in the report
    /// is necessary (dropping it alone makes the rest satisfiable). This is
    /// the §6 "which of your requirements are in conflict" answer.
    [[nodiscard]] FeasibilityReport explainMinimalConflict();

    /// Any compliant design (no optimization).
    [[nodiscard]] std::optional<Design> synthesize();

    /// Lexicographically optimal design per Problem::objectivePriority.
    /// objectiveCosts in the result carries the per-level violation costs.
    [[nodiscard]] std::optional<Design> optimize();

    /// Representatives of distinct designs (projected on chosen systems and
    /// hardware), up to `maxDesigns`. When `optimizeFirst` is set, only
    /// designs in the *optimal* equivalence class are enumerated — the §6
    /// goal of returning classes instead of an arbitrary model.
    [[nodiscard]] std::vector<Design> enumerateDesigns(int maxDesigns,
                                                       bool optimizeFirst = false);

    /// True when the most recent query returned without an answer because
    /// the solver gave up (deadline, conflict/propagation/memory budget, or
    /// cancellation) — i.e. "no design" meant Unknown, not a proven
    /// verdict. Results that did produce an answer (possibly best-effort,
    /// e.g. an interrupted optimize() that found a model) leave this false.
    [[nodiscard]] bool lastQueryUnknown() const { return gaveUp(lastVerdict_); }

    [[nodiscard]] const QueryOptions& options() const { return options_; }
    [[nodiscard]] const Compilation& compilation() const { return *compilation_; }
    [[nodiscard]] const Problem& problem() const {
        return compilation_->problem();
    }

private:
    [[nodiscard]] Answer execute(QueryKind kind, int maxDesigns,
                                 bool optimizeFirst);

    std::shared_ptr<const Compilation> compilation_;
    QueryOptions options_;
    Verdict lastVerdict_ = Verdict::Sat; ///< not "unknown" before any query
};

// -- §5.1-style query helpers (compile + solve per call) ----------------------

/// Compares the optimal designs of two scenarios (e.g. with/without CXL
/// servers, or before/after adding workloads).
struct ScenarioComparison {
    std::optional<Design> a;
    std::optional<Design> b;
    /// Ripple-effect change list (empty when either side is infeasible).
    std::vector<std::string> changes;
};
[[nodiscard]] ScenarioComparison compareScenarios(const Problem& a,
                                                  const Problem& b,
                                                  const QueryOptions& options = {});
/// §5.1 query 2 ("keep Sonata unless there are huge benefits"): optimal
/// design with `system` pinned vs left unpinned, with per-objective cost
/// deltas (positive delta = keeping the system costs that much more).
struct RetentionReport {
    std::optional<Design> keeping;
    std::optional<Design> unpinned;
    std::vector<std::int64_t> extraCostPerObjective;
    double extraHardwareCostUsd = 0.0;
    /// True when switching away wins by more than `threshold` at some
    /// objective level (checked most-important first).
    [[nodiscard]] bool worthSwitching(std::int64_t threshold) const;
};
[[nodiscard]] RetentionReport analyzeRetention(const Problem& problem,
                                               const std::string& system,
                                               const QueryOptions& options = {});
/// §3.1 value-of-information: would learning how `systemA` compares to
/// `systemB` on `objective` change the optimal design? If not, the
/// measurement is not worth running.
struct InformationValue {
    std::optional<Design> ifABetter;
    std::optional<Design> ifBBetter;
    bool changesDesign = false;
};
[[nodiscard]] InformationValue valueOfInformation(
    const Problem& problem, const std::string& objective,
    const std::string& systemA, const std::string& systemB,
    const QueryOptions& options = {});
/// §6: when the problem is under-specified, several designs tie at the
/// optimum. Each suggestion names a category whose choice is not pinned
/// down by the current knowledge + goals, with the tied contenders — the
/// minimal-effort input (an ordering, a pin) the architect could provide to
/// make the solution unique.
struct DisambiguationSuggestion {
    kb::Category category = kb::Category::NetworkStack;
    std::vector<std::string> contenders;
    std::string suggestion; ///< human-readable next step
};
[[nodiscard]] std::vector<DisambiguationSuggestion> suggestDisambiguation(
    const Problem& problem, int sampleDesigns = 8,
    const QueryOptions& options = {});
/// §3.1 breadth-first granularity refinement: encode coarsely first, refine
/// only where it matters. A refinement hint names a system the optimal
/// design *relies on* whose encoding is thin — no requirements, no resource
/// demands, or no orderings comparing it — so the architect knows where
/// detail pays off next.
struct RefinementHint {
    std::string system;
    std::vector<std::string> gaps; ///< e.g. "no deployment requirements"
};
[[nodiscard]] std::vector<RefinementHint> suggestRefinements(
    const Problem& problem, const Design& design);

} // namespace lar::reason
