// Clause vivification (distillation).
//
// For a clause C = (l1 ∨ … ∨ lk): detach C, then assume ¬l1, ¬l2, …
// one literal at a time, propagating after each assumption (C itself is
// detached so it cannot propagate against the probe):
//
//   * value(li) == True under the prefix  → C is implied by (l1…li): shrink.
//   * value(li) == False under the prefix → li is redundant in C: drop it.
//   * propagation conflicts after ¬li     → the prefix (l1…li) is already
//     a consequence: shrink C to it.
//
// Every shrink replaces C by a clause that implies it and is itself implied
// by the rest of the formula, so the solver state stays equivalent.

#include <vector>

#include "sat/simplify/simplify.hpp"

namespace lar::sat {

bool Simplifier::vivify() {
    const std::vector<ClauseRef> snapshot = s_.clauses_;
    std::vector<Lit> lits;
    std::vector<Lit> kept;

    for (const ClauseRef ref : snapshot) {
        if (halted()) return true;
        if (s_.arena_.deleted(ref)) continue;
        const std::uint32_t size = s_.arena_.size(ref);
        if (!budget(4 * static_cast<std::int64_t>(size))) return true;

        lits.clear();
        bool satisfied = false;
        for (std::uint32_t i = 0; i < size; ++i) {
            const Lit l = s_.arena_.lit(ref, i);
            if (s_.value(l) == lbool::True) {
                satisfied = true;
                break;
            }
            lits.push_back(l); // keep level-0-false lits: the walk drops them
        }
        if (satisfied) {
            removeLongClause(ref, /*countRemoved=*/false);
            continue;
        }

        s_.detachClause(ref);
        kept.clear();
        bool conflicted = false;
        bool aborted = false;
        const std::uint64_t propsBefore = s_.stats_.propagations;
        for (const Lit l : lits) {
            const lbool v = s_.value(l);
            if (v == lbool::True) {
                // Implied by the kept prefix: C shrinks to kept + l.
                kept.push_back(l);
                break;
            }
            if (v == lbool::False) continue; // redundant under the prefix
            kept.push_back(l);
            s_.newDecisionLevel();
            s_.enqueue(~l, Reason::none());
            const Solver::Conflict conflict = s_.propagate();
            if (s_.pendingStop_ != StopReason::None) {
                solveStop_ = s_.pendingStop_;
                s_.pendingStop_ = StopReason::None;
                aborted = true;
                break;
            }
            if (conflict.found()) {
                conflicted = true;
                break;
            }
        }
        s_.backtrackTo(0);
        // Propagation under the assumed prefix dominates vivification cost
        // (each assumption can sweep the whole watch structure); charge it
        // so the tick budget bounds wall time, not just clause count.
        (void)budget(2 * static_cast<std::int64_t>(s_.stats_.propagations -
                                                   propsBefore));
        if (aborted) {
            s_.attachClause(ref); // unchanged
            return true;
        }
        (void)conflicted; // a conflict just means the walk ended early
        if (kept.size() == lits.size() &&
            static_cast<std::uint32_t>(lits.size()) == size) {
            s_.attachClause(ref); // nothing learned
            continue;
        }
        ++s_.stats_.vivifiedClauses;
        if (!rewriteLongClause(ref, kept)) return false;
        if (halted()) return true;
    }
    return true;
}

} // namespace lar::sat
