#include "opt/maxsat.hpp"

#include <map>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace lar::opt {

std::optional<std::int64_t> minimizeAndLock(encode::CnfBuilder& builder,
                                            std::span<const SoftConstraint> softs,
                                            std::span<const sat::Lit> assumptions,
                                            bool* unknown) {
    sat::Solver& solver = builder.solver();
    const auto flagUnknown = [unknown] {
        if (unknown != nullptr) *unknown = true;
    };

    // Penalty terms: weight is paid when the soft literal is FALSE. Group
    // them by exclusiveGroup so the counter can use one leaf per group.
    std::vector<encode::PbTerm> penalties;
    std::map<int, std::vector<encode::PbTerm>> groupIndex;
    std::vector<std::vector<encode::PbTerm>> groups;
    penalties.reserve(softs.size());
    for (const SoftConstraint& s : softs) {
        expects(s.weight >= 0, "minimizeAndLock: negative soft weight");
        if (s.weight == 0) continue;
        const encode::PbTerm term{s.weight, ~s.lit};
        penalties.push_back(term);
        if (s.exclusiveGroup >= 0)
            groupIndex[s.exclusiveGroup].push_back(term);
        else
            groups.push_back({term});
    }
    for (auto& [id, members] : groupIndex) groups.push_back(std::move(members));

    std::vector<sat::Lit> assume(assumptions.begin(), assumptions.end());
    const sat::SolveResult first = solver.solve(assume);
    if (first == sat::SolveResult::Unknown) {
        // Interrupted before any model: feasibility itself is unproven.
        flagUnknown();
        return std::nullopt;
    }
    if (first != sat::SolveResult::Sat) return std::nullopt;
    std::int64_t cost = encode::evalPb(solver, penalties);
    if (cost == 0 || penalties.empty()) {
        // Zero cost still needs the lock: later lexicographic levels must
        // not trade this objective away. Cost 0 means every weighted soft
        // literal is true in the model, so assert them directly — no
        // counter needed. (The first model rarely landed here before the
        // solver grew inprocessing; now it often starts optimal.)
        for (const encode::PbTerm& p : penalties) builder.assertLit(~p.lit);
        return cost;
    }

    // Counter clamped just above the first cost: tighter bounds only. Its
    // outputs are the bounds the improving hook swaps in mid-search, so they
    // must keep their identity through inprocessing.
    const encode::PbSum counter(
        builder, std::span<const std::vector<encode::PbTerm>>(groups),
        /*clampAt=*/cost + 1);
    for (const sat::Lit out : counter.outputs()) solver.freeze(out.var());

    // One solution-improving search for the whole level: every model found
    // under atMost(cost-1) tightens that last assumption to the new cost-1,
    // until the bound is refuted (the last model is optimal) or a budget
    // stops the search (the last model is the best bound so far).
    assume.push_back(counter.atMostLit(builder, cost - 1));
    const sat::SolveResult descent =
        solver.solve(assume, [&]() -> std::optional<sat::Lit> {
            const std::int64_t improved = encode::evalPb(solver, penalties);
            ensures(improved < cost, "minimizeAndLock: cost failed to decrease");
            cost = improved;
            util::logAt(util::LogLevel::Debug, "maxsat: improved cost to ", cost);
            if (cost == 0) return std::nullopt;
            return counter.atMostLit(builder, cost - 1);
        });
    ensures(descent != sat::SolveResult::Sat || cost == 0,
            "minimizeAndLock: improving search stopped above cost 0");
    if (descent == sat::SolveResult::Unknown) flagUnknown();

    // Lock the optimum (or the best bound) as a hard constraint. The model
    // attaining it is still loaded: solve() only replaces it with a better one.
    builder.assertLit(counter.atMostLit(builder, cost));
    return cost;
}

LexResult optimizeLex(encode::CnfBuilder& builder,
                      std::span<const Objective> objectives,
                      std::span<const sat::Lit> assumptions) {
    LexResult result;
    for (const Objective& objective : objectives) {
        bool unknown = false;
        const auto cost =
            minimizeAndLock(builder, objective.softs, assumptions, &unknown);
        if (!cost.has_value()) {
            // infeasible (or interrupted before a model): costs empty/partial
            result.unknown = unknown;
            return result;
        }
        util::logAt(util::LogLevel::Debug, "lex: objective '", objective.name,
                    "' optimal cost ", *cost);
        result.costs.push_back(*cost);
        if (unknown) {
            // Best-effort bound at this level; deeper levels would optimize
            // against an unproven lock, so stop here with what we have.
            result.unknown = true;
            break;
        }
    }
    result.feasible = true;
    // When there are no objectives at all, still report hard feasibility.
    if (objectives.empty()) {
        const sat::SolveResult r = builder.solver().solve(assumptions);
        result.feasible = r == sat::SolveResult::Sat;
        result.unknown = r == sat::SolveResult::Unknown;
    }
    return result;
}

} // namespace lar::opt
