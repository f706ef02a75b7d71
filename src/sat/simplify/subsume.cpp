// Backward subsumption and self-subsuming resolution (strengthening).
//
// Sources are PROBLEM clauses only (binaries from the implication graph,
// long clauses up to a size cap); targets are the problem long clauses
// reached through the occurrence lists. Restricting sources to problem
// clauses keeps deletion sound without a promotion mechanism: a learnt
// clause may be dropped later (DB reduction, elimination), so it must never
// be the only thing standing in for a removed problem clause.
//
// Subset checks use a stamp array: stamp the source literals with a fresh
// generation, then one scan of the candidate counts how many of its
// literals are stamped (hits) and whether exactly one appears negated
// (self-subsumption). hits == |C| → C ⊆ D, remove D. hits == |C|-1 with one
// negated match → resolve C and D on that literal and strengthen D in place.

#include <algorithm>

#include "sat/simplify/simplify.hpp"

namespace lar::sat {

namespace {
constexpr std::uint32_t kMaxSourceSize = 16;
} // namespace

bool Simplifier::subsume() {
    buildOcc();

    std::vector<Lit> source;
    std::vector<Lit> shrunk;

    // Scans occ list `cands` against the stamped source (generation `gen`,
    // |source| = srcSize, source ref `self` or kClauseRefUndef for binaries).
    // Returns false when the formula became Unsat.
    const auto sweep = [&](const std::vector<ClauseRef>& cands,
                           std::uint32_t gen, std::uint32_t srcSize,
                           ClauseRef self) {
        // Iterate by index: strengthening can append to occ lists? (It does
        // not — only elimination appends — but stay defensive about
        // invalidation by copying the size up front.)
        const std::size_t count = cands.size();
        for (std::size_t ci = 0; ci < count; ++ci) {
            const ClauseRef d = cands[ci];
            if (d == self || s_.arena_.deleted(d)) continue;
            const std::uint32_t dSize = s_.arena_.size(d);
            if (dSize < srcSize) continue;
            if (!budget(dSize)) return true;
            std::uint32_t hits = 0;
            Lit negMatch = kUndefLit;
            bool multiNeg = false;
            for (std::uint32_t i = 0; i < dSize; ++i) {
                const Lit l = s_.arena_.lit(d, i);
                if (stamp_[static_cast<std::size_t>(l.index())] == gen) {
                    ++hits;
                } else if (stamp_[static_cast<std::size_t>((~l).index())] ==
                           gen) {
                    if (negMatch.isDefined()) {
                        multiNeg = true;
                        break;
                    }
                    negMatch = l;
                }
            }
            if (multiNeg) continue;
            if (hits == srcSize) {
                // C ⊆ D: D is redundant.
                removeLongClause(d);
                ++s_.stats_.subsumedClauses;
            } else if (hits == srcSize - 1 && negMatch.isDefined()) {
                // Self-subsuming resolution: drop ¬x from D.
                shrunk.clear();
                for (std::uint32_t i = 0; i < dSize; ++i) {
                    const Lit l = s_.arena_.lit(d, i);
                    if (l != negMatch) shrunk.push_back(l);
                }
                ++s_.stats_.strengthenedClauses;
                if (!rewriteLongClause(d, shrunk)) return false;
            }
            if (halted()) return true;
        }
        return true;
    };

    const auto stampSource = [&]() {
        const std::uint32_t gen = nextStamp();
        for (const Lit l : source)
            stamp_[static_cast<std::size_t>(l.index())] = gen;
        return gen;
    };

    // -- binary sources ------------------------------------------------------
    for (const auto& [a, b, learnt] : s_.flatBinaries()) {
        if (learnt) continue;
        if (halted()) return true;
        if (s_.value(a) != lbool::Undef || s_.value(b) != lbool::Undef)
            continue; // satisfied/unit binaries are the propagator's job
        if (!budget(4)) return true;
        source.assign({a, b});
        const std::uint32_t gen = stampSource();
        // Both occ lists: occ[a] finds D ⊇ {a, ·}, occ[b] finds D ⊇ {·, b} —
        // together they cover subsumption and both strengthening patterns.
        for (const Lit probe : {a, b}) {
            if (!sweep(occ_[static_cast<std::size_t>(probe.index())], gen, 2,
                       kClauseRefUndef))
                return false;
            if (halted()) return true;
        }
    }

    // -- long sources --------------------------------------------------------
    const std::vector<ClauseRef> snapshot = s_.clauses_;
    for (const ClauseRef ref : snapshot) {
        if (halted()) return true;
        if (s_.arena_.deleted(ref)) continue;
        const std::uint32_t size = s_.arena_.size(ref);
        if (size > kMaxSourceSize) continue;
        if (!budget(size)) return true;
        source.clear();
        bool satisfied = false;
        for (std::uint32_t i = 0; i < size; ++i) {
            const Lit l = s_.arena_.lit(ref, i);
            if (s_.value(l) == lbool::True) {
                satisfied = true;
                break;
            }
            if (s_.value(l) == lbool::False) continue;
            source.push_back(l);
        }
        if (satisfied) {
            removeLongClause(ref, /*countRemoved=*/false);
            continue;
        }
        if (source.size() < 2) continue; // unit/empty: propagation handles it
        const std::uint32_t gen = stampSource();

        // Probe the literal with the shortest occ list — every D ⊇ C
        // contains it, so its list sees all subsumption candidates.
        Lit minLit = source[0];
        for (const Lit l : source) {
            if (occ_[static_cast<std::size_t>(l.index())].size() <
                occ_[static_cast<std::size_t>(minLit.index())].size())
                minLit = l;
        }
        if (!sweep(occ_[static_cast<std::size_t>(minLit.index())], gen,
                   static_cast<std::uint32_t>(source.size()), ref))
            return false;
        if (halted()) return true;
        // Strengthening where minLit itself is the flipped literal: D ⊇
        // (C \ {minLit}) ∪ {¬minLit} lives in occ[¬minLit], not occ[minLit].
        if (!sweep(occ_[static_cast<std::size_t>((~minLit).index())], gen,
                   static_cast<std::uint32_t>(source.size()), ref))
            return false;
    }
    return true;
}

} // namespace lar::sat
