// Weighted MaxSAT and lexicographic multi-objective optimization.
//
// The reasoning layer turns conditional partial-order preferences ("Snap is
// better than Linux on throughput when load ≥ 40 Gbps") into weighted soft
// constraints and optimizes them per objective, in the priority order the
// architect declares (Listing 3: Optimize(latency > Hardware cost >
// monitoring)). The optimizer runs a linear SAT→UNSAT search over a
// Generalized-Totalizer objective counter, as one solution-improving
// solve() per objective level: the counter bound is the last assumption,
// every better model swaps in the next tighter bound mid-search, and the
// search ends when the bound is refuted. The final bound is then locked as
// a hard constraint (no re-solve — the optimal model stays loaded) before
// the next objective level runs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "encode/cnf_builder.hpp"
#include "encode/pb.hpp"

namespace lar::opt {

/// A soft constraint: pay `weight` whenever `lit` is false in the model.
/// Softs sharing a non-negative `exclusiveGroup` are guaranteed by the
/// caller to have at most one *violated* member at a time (e.g. penalties
/// attached to an exactly-one selector); the objective counter exploits this
/// to stay linear instead of enumerating subset sums.
struct SoftConstraint {
    sat::Lit lit;
    std::int64_t weight = 1;
    int exclusiveGroup = -1;
};

/// One lexicographic level: minimize the total weight of violated softs.
struct Objective {
    std::string name;
    std::vector<SoftConstraint> softs;
};

/// Costs per level (same order as the objectives); empty when infeasible.
/// `unknown` is set when a solver budget/deadline/cancellation interrupted
/// the search: either nothing is proven (feasible == false) or the reported
/// costs are a best-effort bound rather than a proven optimum (anytime
/// behaviour — the model for the best bound found so far stays loaded, and
/// remaining objective levels are skipped).
struct LexResult {
    bool feasible = false;
    bool unknown = false;
    std::vector<std::int64_t> costs;
};

/// Minimizes the violation cost of `softs` subject to the solver's hard
/// clauses and `assumptions`. Returns std::nullopt when the hard part is
/// unsatisfiable; otherwise the optimal cost, with the optimal model loaded
/// in the solver and the bound locked in as a hard constraint (so later
/// optimization levels preserve it).
///
/// At most two solve() calls: one plain solve for a first model (and, when
/// its cost is above 0, the objective counter built from it), then one
/// solution-improving solve (Solver::solve with a model hook) that tightens
/// the counter bound on every better model until the bound is refuted.
///
/// Budgets: the solver's conflict/propagation budgets apply per solve()
/// call, so each bounds a whole objective level's search, not a single
/// improvement step; the Solver::setDeadline deadline (what a query's
/// timeout becomes) bounds all levels together. When the solver returns Unknown (budget,
/// deadline, or cancellation), `*unknown` is set (if provided) and the
/// search degrades gracefully: Unknown before any model → std::nullopt
/// (feasibility unproven); Unknown mid-improvement → the best cost found so
/// far, locked as usual, with the model attaining it loaded (anytime
/// behaviour).
std::optional<std::int64_t> minimizeAndLock(encode::CnfBuilder& builder,
                                            std::span<const SoftConstraint> softs,
                                            std::span<const sat::Lit> assumptions = {},
                                            bool* unknown = nullptr);

/// Runs minimizeAndLock for each objective in order.
LexResult optimizeLex(encode::CnfBuilder& builder,
                      std::span<const Objective> objectives,
                      std::span<const sat::Lit> assumptions = {});

} // namespace lar::opt
