#pragma once

#include <cstdint>
#include <vector>

#include "sat/clause.hpp"
#include "sat/solver.hpp"
#include "sat/types.hpp"

namespace lar::sat {

// One inprocessing round over a Solver at decision level 0. Constructed and
// driven by Solver::runSimplifyRound(); split across several translation
// units (scc.cpp, probe.cpp, subsume.cpp, vivify.cpp, eliminate.cpp) by
// technique. The class is a friend of Solver and manipulates its clause
// database directly.
//
// Budget protocol: every technique charges abstract ticks through budget();
// when the per-round tick budget runs out the round stops cleanly
// (stopped_) and the search continues on the partially simplified formula.
// Solve-level limits (deadline, cancellation, propagation budget) are
// polled on the same cadence; when one trips, solveStop_ records it and
// run() returns Stop so the enclosing solve() can return Unknown.
//
// Invariant maintained throughout: after every level-0 propagation all
// trail reasons are cleared (propagateTop), so freeing a clause can never
// leave a dangling reason for garbageCollect() to forward.
class Simplifier {
public:
    /// `tickLimit` is this round's tick budget (< 0 = unlimited), already
    /// scaled by the scheduler — see Solver::runSimplifyRound().
    Simplifier(Solver& s, std::int64_t tickLimit);

    /// Runs the full pipeline once. See Solver::SimplifyOutcome.
    Solver::SimplifyOutcome run();

private:
    // -- techniques (one TU each) -------------------------------------------
    bool equivalence(); ///< scc.cpp: equivalent-literal substitution
    bool probe();       ///< probe.cpp: failed literals + hyper-binary resolution
    bool subsume();     ///< subsume.cpp: subsumption + self-subsuming resolution
    bool vivify();      ///< vivify.cpp: clause vivification
    bool eliminate();   ///< eliminate.cpp: bounded variable elimination

    // -- shared helpers (simplify.cpp) --------------------------------------
    /// Charges `cost` ticks and polls solve-level limits; false once the
    /// round must stop (tick budget, memory, or a solve-level limit).
    bool budget(std::int64_t cost);
    [[nodiscard]] bool halted() const {
        return stopped_ || solveStop_ != StopReason::None || !s_.ok_;
    }
    /// Propagates to fixpoint at level 0 and clears all trail reasons.
    /// Returns false on conflict (formula Unsat; s_.ok_ cleared).
    bool propagateTop();
    /// Detaches + frees a long clause and counts it removed.
    void removeLongClause(ClauseRef ref, bool countRemoved = true);
    /// Rewrites a long clause to `lits` (already value-filtered literals may
    /// remain; the helper re-checks values at level 0). Handles every
    /// resulting size: empty → Unsat, unit → enqueue + propagate, binary →
    /// implication graph, ≥3 → in-place truncate keeping the ref stable.
    /// Returns false when the formula became Unsat.
    bool rewriteLongClause(ClauseRef ref, const std::vector<Lit>& lits);
    /// Adds a value-checked binary clause (a ∨ b) at level 0. Handles
    /// degenerate cases (tautology, satisfied, unit, empty). Returns false
    /// when the formula became Unsat.
    bool addCheckedBinary(Lit a, Lit b, bool learnt);
    /// Rebuilds occ_ (problem long clauses only) if not yet built this round.
    void buildOcc();
    /// Fresh stamp generation for the subset-check scratch array.
    std::uint32_t nextStamp();

    Solver& s_;
    std::int64_t ticks_ = 0;
    std::int64_t tickLimit_ = -1;
    bool stopped_ = false;        ///< tick/memory budget exhausted (benign)
    bool memStop_ = false;        ///< the stop was the memory budget
    StopReason solveStop_ = StopReason::None; ///< solve-level limit tripped
    int pollCountdown_ = 0;

    bool occBuilt_ = false;
    std::vector<std::vector<ClauseRef>> occ_; ///< Lit::index() → problem refs
    std::vector<std::uint32_t> stamp_;        ///< Lit::index() → generation
    std::uint32_t stampGen_ = 0;
};

} // namespace lar::sat
