// Failed-literal probing over the binary implication graph, with lazy
// hyper-binary resolution and literal lifting.
//
// Probing a literal l means: decide l at a temporary level 1, propagate, and
// look at what happened. A conflict proves ¬l at level 0 (a failed literal).
// Implied literals whose reason is a LONG clause expose missing binary
// shortcuts: l → m holds, so the binary (¬l ∨ m) is added to the graph
// (hyper-binary resolution) — future propagations take the O(1) binary path
// and conflict analysis gets shorter reasons. When both phases of a root
// variable are probed, literals implied by both are implied outright
// (lifting) and enqueue at level 0.
//
// Only roots of the binary graph are probed (unassigned literal with
// successors but no predecessors): probing a non-root u is subsumed by
// probing the roots above it.

#include <algorithm>

#include "sat/simplify/simplify.hpp"
#include "util/error.hpp"

namespace lar::sat {

namespace {
constexpr std::size_t kMaxHyperBinariesPerProbe = 8;
} // namespace

bool Simplifier::probe() {
    const std::size_t numLits = static_cast<std::size_t>(2 * s_.numVars());
    if (numLits == 0) return true;

    // In-degrees over the implication graph (entry {other} in list j is the
    // edge Lit(j) → other).
    std::vector<std::uint32_t> indeg(numLits, 0);
    for (const auto& list : s_.binWatches_)
        for (const Solver::BinWatcher& bw : list)
            ++indeg[static_cast<std::size_t>(bw.other.index())];

    const auto isRoot = [&](Lit l) {
        const auto i = static_cast<std::size_t>(l.index());
        return s_.value(l.var()) == lbool::Undef &&
               s_.eliminated_[static_cast<std::size_t>(l.var())] == 0 &&
               indeg[i] == 0 && !s_.binWatches_[i].empty();
    };

    // One probe: decide l at level 1, propagate, harvest. Returns false on
    // a solve-level stop (solveStop_ set). `failed` reports a conflict.
    // Implied literals are stamped with `gen` (0 = don't stamp) and those
    // already stamped with `liftGen` are collected into `lifted`.
    std::vector<Lit> hyper;
    std::vector<Lit> lifted;
    const auto probeOne = [&](Lit l, std::uint32_t gen, std::uint32_t liftGen,
                              bool& failed) {
        failed = false;
        hyper.clear();
        ++s_.stats_.probedLiterals;
        s_.newDecisionLevel();
        s_.enqueue(l, Reason::none());
        const std::uint64_t propsBefore = s_.stats_.propagations;
        const Solver::Conflict conflict = s_.propagate();
        // Propagation is the real cost of a probe; charge it so the tick
        // budget bounds wall time (the caller's halted() checks pick the
        // stop up after this probe completes).
        (void)budget(2 * static_cast<std::int64_t>(s_.stats_.propagations -
                                                   propsBefore));
        if (s_.pendingStop_ != StopReason::None) {
            solveStop_ = s_.pendingStop_;
            s_.pendingStop_ = StopReason::None;
            s_.backtrackTo(0);
            return false;
        }
        if (conflict.found()) {
            failed = true;
            s_.backtrackTo(0);
            return true;
        }
        const auto levelOneStart =
            static_cast<std::size_t>(s_.trailLim_[0]) + 1; // skip l itself
        for (std::size_t i = levelOneStart; i < s_.trail_.size(); ++i) {
            const Lit m = s_.trail_[i];
            const auto mi = static_cast<std::size_t>(m.index());
            if (liftGen != 0 && stamp_[mi] == liftGen) lifted.push_back(m);
            if (gen != 0) stamp_[mi] = gen;
            if (hyper.size() < kMaxHyperBinariesPerProbe &&
                s_.reasonOf(m.var()).isClause())
                hyper.push_back(m);
        }
        s_.backtrackTo(0);
        return true;
    };

    // Attach the harvested hyper-binaries (¬l ∨ m), skipping duplicates:
    // that clause would sit as entry {m} in list l.index().
    const auto attachHyper = [&](Lit l) {
        for (const Lit m : hyper) {
            const auto& list = s_.binWatches_[static_cast<std::size_t>(l.index())];
            const bool dup = std::any_of(
                list.begin(), list.end(),
                [m](const Solver::BinWatcher& bw) { return bw.other == m; });
            if (dup) continue;
            if (!addCheckedBinary(~l, m, /*learnt=*/true)) return false;
            ++s_.stats_.hyperBinaries;
            if (halted()) return true;
        }
        return true;
    };

    for (std::size_t i = 0; i < numLits; ++i) {
        const Lit l = Lit::fromIndex(static_cast<std::int32_t>(i));
        if (!isRoot(l)) continue;
        if (!budget(8 + static_cast<std::int64_t>(
                            s_.binWatches_[i].size())))
            break;
        const bool paired = isRoot(~l) && l.index() < (~l).index();

        bool failed = false;
        const std::uint32_t gen = paired ? nextStamp() : 0;
        if (!probeOne(l, gen, 0, failed)) return true; // solve-level stop
        if (failed) {
            ++s_.stats_.failedLiterals;
            if (!s_.enqueue(~l, Reason::none())) {
                s_.ok_ = false;
                return false;
            }
            if (!propagateTop()) return false;
            if (halted()) return true;
            continue;
        }
        if (!attachHyper(l)) return false;
        if (halted()) return true;

        if (!paired || s_.value(l.var()) != lbool::Undef) continue;
        lifted.clear();
        if (!probeOne(~l, 0, gen, failed)) return true;
        if (failed) {
            ++s_.stats_.failedLiterals;
            if (!s_.enqueue(l, Reason::none())) {
                s_.ok_ = false;
                return false;
            }
            if (!propagateTop()) return false;
            if (halted()) return true;
            continue;
        }
        if (!attachHyper(~l)) return false;
        if (halted()) return true;
        // Lifting: implied by l AND by ¬l → implied outright.
        for (const Lit m : lifted) {
            if (s_.value(m) == lbool::True) continue;
            ++s_.stats_.failedLiterals;
            if (!s_.enqueue(m, Reason::none())) {
                s_.ok_ = false;
                return false;
            }
        }
        if (!lifted.empty() && !propagateTop()) return false;
        if (halted()) return true;
    }
    return true;
}

} // namespace lar::sat
