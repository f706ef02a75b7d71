// Inprocessing driver + helpers shared by the technique TUs.
//
// Everything here runs at decision level 0, between propagation fixpoints.
// The one invariant worth calling out: after every level-0 propagation the
// trail reasons are cleared (propagateTop). Level-0 facts never participate
// in conflict analysis again, so the reasons carry no information — and
// clearing them means a technique may free any clause (subsumed, satisfied,
// strengthened away) without leaving a dangling reason ref for
// garbageCollect() to forward.

#include "sat/simplify/simplify.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lar::sat {

Simplifier::Simplifier(Solver& s, std::int64_t tickLimit)
    : s_(s),
      tickLimit_(tickLimit),
      stamp_(static_cast<std::size_t>(2 * s.numVars()), 0u) {}

bool Simplifier::budget(std::int64_t cost) {
    if (stopped_ || solveStop_ != StopReason::None) return false;
    ticks_ += cost;
    if (tickLimit_ >= 0 && ticks_ > tickLimit_) {
        stopped_ = true;
        return false;
    }
    // Poll the solve-level limits (deadline, cancellation, budgets) on a
    // coarse cadence so a round never outlives the solve it belongs to.
    if (--pollCountdown_ <= 0) {
        pollCountdown_ = 256;
        const StopReason stop = s_.limitExceeded();
        if (stop != StopReason::None) {
            solveStop_ = stop;
            return false;
        }
    }
    return true;
}

bool Simplifier::propagateTop() {
    expects(s_.decisionLevel() == 0, "simplify: propagateTop requires level 0");
    const Solver::Conflict conflict = s_.propagate();
    if (s_.pendingStop_ != StopReason::None) {
        solveStop_ = s_.pendingStop_;
        s_.pendingStop_ = StopReason::None;
    }
    // Clear level-0 trail reasons — see the file comment.
    for (const Lit l : s_.trail_)
        s_.varData_[static_cast<std::size_t>(l.var())].reason = Reason::none();
    if (conflict.found()) {
        s_.ok_ = false;
        return false;
    }
    return true;
}

void Simplifier::removeLongClause(ClauseRef ref, bool countRemoved) {
    s_.detachClause(ref);
    if (s_.arena_.learnt(ref))
        s_.learntBytes_ -= s_.arena_.footprintBytes(ref);
    s_.arena_.free(ref);
    if (countRemoved) ++s_.stats_.removedClauses;
}

bool Simplifier::rewriteLongClause(ClauseRef ref, const std::vector<Lit>& lits) {
    // Re-filter against the current level-0 assignment so the surviving
    // watches always sit on unassigned literals.
    std::vector<Lit> out;
    out.reserve(lits.size());
    for (const Lit l : lits) {
        const lbool v = s_.value(l);
        if (v == lbool::True) {
            removeLongClause(ref);
            return true;
        }
        if (v == lbool::False) continue;
        out.push_back(l);
    }
    const bool learnt = s_.arena_.learnt(ref);
    if (out.empty()) {
        removeLongClause(ref, /*countRemoved=*/false);
        s_.ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        removeLongClause(ref, /*countRemoved=*/false);
        if (!s_.enqueue(out[0], Reason::none())) {
            s_.ok_ = false;
            return false;
        }
        return propagateTop();
    }
    if (out.size() == 2) {
        removeLongClause(ref, /*countRemoved=*/false);
        s_.attachBinary(out[0], out[1], learnt);
        return true;
    }
    // Shrink in place: the ref stays stable, so occ_ and the clause lists
    // remain valid (the dropped tail is booked as arena waste).
    s_.detachClause(ref);
    if (learnt) s_.learntBytes_ -= s_.arena_.footprintBytes(ref);
    for (std::size_t i = 0; i < out.size(); ++i)
        s_.arena_.setLit(ref, static_cast<std::uint32_t>(i), out[i]);
    s_.arena_.truncate(ref, static_cast<std::uint32_t>(out.size()));
    if (learnt) s_.learntBytes_ += s_.arena_.footprintBytes(ref);
    s_.attachClause(ref);
    return true;
}

bool Simplifier::addCheckedBinary(Lit a, Lit b, bool learnt) {
    const auto unit = [this](Lit l) {
        if (!s_.enqueue(l, Reason::none())) {
            s_.ok_ = false;
            return false;
        }
        return propagateTop();
    };
    if (a == ~b) return true; // tautology
    if (a == b) return unit(a);
    const lbool va = s_.value(a);
    const lbool vb = s_.value(b);
    if (va == lbool::True || vb == lbool::True) return true;
    if (va == lbool::False && vb == lbool::False) {
        s_.ok_ = false;
        return false;
    }
    if (va == lbool::False) return unit(b);
    if (vb == lbool::False) return unit(a);
    s_.attachBinary(a, b, learnt);
    // Learnt binaries (hyper-binary resolution) grow learnt memory; honour
    // the solver memory budget by stopping the round rather than the solve.
    if (learnt && s_.memoryBudgetBytes_ >= 0 &&
        static_cast<std::int64_t>(s_.learntBytes_) > s_.memoryBudgetBytes_) {
        stopped_ = true;
        memStop_ = true;
    }
    return true;
}

void Simplifier::buildOcc() {
    if (occBuilt_) return;
    occBuilt_ = true;
    occ_.assign(static_cast<std::size_t>(2 * s_.numVars()), {});
    std::int64_t pushed = 0;
    for (const ClauseRef ref : s_.clauses_) {
        if (s_.arena_.deleted(ref)) continue;
        const std::uint32_t size = s_.arena_.size(ref);
        for (std::uint32_t i = 0; i < size; ++i)
            occ_[static_cast<std::size_t>(s_.arena_.lit(ref, i).index())]
                .push_back(ref);
        pushed += size;
    }
    // Charged after the fact: consumers need a COMPLETE occurrence map, so
    // the build never stops halfway — it may overshoot the slice by one
    // build's worth of ticks, and the next budget() call notices.
    (void)budget(pushed);
    // occ_ is maintained as a SUPERSET from here on: strengthening leaves
    // stale entries behind, elimination appends entries for new resolvents.
    // Every consumer re-validates (deleted bit + actual membership scan).
}

std::uint32_t Simplifier::nextStamp() {
    if (++stampGen_ == 0) {
        std::fill(stamp_.begin(), stamp_.end(), 0u);
        stampGen_ = 1;
    }
    return stampGen_;
}

Solver::SimplifyOutcome Simplifier::run() {
    using Outcome = Solver::SimplifyOutcome;
    const SimplifyOptions& so = s_.opts_.simplify;

    const Outcome outcome = [&]() -> Outcome {
        if (!propagateTop()) return Outcome::Unsat;
        if (solveStop_ != StopReason::None) return Outcome::Stop;

        struct Step {
            bool enabled;
            bool (Simplifier::*fn)();
        };
        const Step steps[] = {
            {so.equivalence, &Simplifier::equivalence},
            {so.probing, &Simplifier::probe},
            {so.subsumption, &Simplifier::subsume},
            {so.vivification, &Simplifier::vivify},
            {so.elimination, &Simplifier::eliminate},
        };
        // Budget slicing: each step gets an equal share of the ticks still
        // unspent (unused ticks roll forward). Without this an expensive
        // early step — vivification, typically — eats the whole round and
        // starves elimination behind it. A slice-stopped step truncates
        // only itself; the round goes on and reports a Ticks stop at the
        // end. A memory stop halts the round outright.
        const std::int64_t totalLimit = tickLimit_;
        bool truncated = false;
        int stepsLeft = 0;
        for (const Step& step : steps) stepsLeft += step.enabled ? 1 : 0;
        for (const Step& step : steps) {
            if (!step.enabled) continue;
            if (totalLimit >= 0) {
                const std::int64_t remaining = totalLimit - ticks_;
                if (remaining <= 0) {
                    truncated = true;
                    break;
                }
                tickLimit_ = ticks_ + remaining / stepsLeft;
                stopped_ = false; // fresh slice for this step
            }
            --stepsLeft;
            (void)(this->*step.fn)();
            if (!s_.ok_) return Outcome::Unsat;
            if (solveStop_ != StopReason::None) return Outcome::Stop;
            if (stopped_) {
                truncated = true;
                if (memStop_) break;
            }
        }
        tickLimit_ = totalLimit;
        stopped_ = truncated;
        return Outcome::Done;
    }();

    // Sweep freed refs out of the clause lists (free() only marks).
    std::erase_if(s_.clauses_,
                  [this](ClauseRef r) { return s_.arena_.deleted(r); });
    std::erase_if(s_.learnts_,
                  [this](ClauseRef r) { return s_.arena_.deleted(r); });

    if (outcome == Outcome::Stop) {
        s_.stopReason_ = solveStop_;
    } else if (outcome == Outcome::Done) {
        if (stopped_) {
            ++s_.stats_.simplifyStops;
            s_.stats_.lastSimplifyStop =
                memStop_ ? SimplifyStop::Memory : SimplifyStop::Ticks;
        } else {
            s_.stats_.lastSimplifyStop = SimplifyStop::None;
        }
    }
    return outcome;
}

} // namespace lar::sat
