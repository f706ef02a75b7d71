// Bounded variable elimination (SatELite-style, restricted).
//
// A variable v is eliminated by replacing every problem clause containing v
// with the non-tautological resolvents of the v-positive × v-negative
// clause pairs. Bounds keep it cheap: each phase may occur in at most
// elimOccLimit problem clauses, no resolvent may exceed elimClauseLimit
// literals, and the clause count may grow by at most elimGrowth.
//
// Safety under incremental solving:
//   * frozen variables (assumptions, exported literals) are never touched;
//   * LEARNT clauses mentioning v are deleted, never resolved — they are
//     implied by the problem clauses, so dropping them loses nothing;
//   * the original problem clauses are stashed (elimStash_) so a later
//     addClause()/assumption mentioning v can restore it exactly;
//   * the model-reconstruction stack (Extender) receives the smaller phase's
//     clauses (witness literal first) followed by the opposite-phase unit,
//     so extend() recovers a value for v from any model of the resolvents.

#include <algorithm>

#include "sat/simplify/simplify.hpp"
#include "util/error.hpp"

namespace lar::sat {

namespace {
constexpr std::size_t kMaxLearntOcc = 16;
} // namespace

bool Simplifier::eliminate() {
    buildOcc();
    const SimplifyOptions& so = s_.opts_.simplify;
    const auto numVars = static_cast<std::size_t>(s_.numVars());
    const auto occLimit = static_cast<std::size_t>(std::max(0, so.elimOccLimit));

    // Candidate prefilter: unassigned, unfrozen, not yet eliminated, and not
    // obviously too connected (occ_ is a superset, so 2× slack).
    std::vector<char> cand(numVars, 0);
    for (std::size_t v = 0; v < numVars; ++v) {
        if (s_.value(static_cast<Var>(v)) != lbool::Undef) continue;
        if (s_.frozen_[v] != 0 || s_.eliminated_[v] != 0) continue;
        const Lit pos = mkLit(static_cast<Var>(v));
        if (occ_[static_cast<std::size_t>(pos.index())].size() >
                2 * occLimit ||
            occ_[static_cast<std::size_t>((~pos).index())].size() >
                2 * occLimit)
            continue;
        cand[v] = 1;
    }

    // Learnt long clauses touching each candidate (deleted at commit time).
    std::vector<std::vector<ClauseRef>> learntOcc(numVars);
    for (const ClauseRef ref : s_.learnts_) {
        if (s_.arena_.deleted(ref)) continue;
        const std::uint32_t size = s_.arena_.size(ref);
        for (std::uint32_t i = 0; i < size; ++i) {
            const auto v =
                static_cast<std::size_t>(s_.arena_.lit(ref, i).var());
            if (cand[v] == 0) continue;
            if (learntOcc[v].size() >= kMaxLearntOcc) {
                cand[v] = 0; // too entangled with the learnt DB
                learntOcc[v].clear();
            } else {
                learntOcc[v].push_back(ref);
            }
        }
    }

    std::vector<std::vector<Lit>> resolvents;
    std::vector<Lit> merged;

    // Gathers the problem long clauses containing `lit` (validated against
    // occ_ staleness); satisfied clauses are removed on sight. Returns false
    // when the phase exceeds the occurrence bound.
    const auto gatherLong = [&](Lit lit, std::size_t bound,
                                std::vector<std::vector<Lit>>& out,
                                std::vector<ClauseRef>& refs) {
        for (const ClauseRef ref :
             occ_[static_cast<std::size_t>(lit.index())]) {
            if (s_.arena_.deleted(ref)) continue;
            const std::uint32_t size = s_.arena_.size(ref);
            bool contains = false;
            bool satisfied = false;
            std::vector<Lit> current;
            current.reserve(size);
            for (std::uint32_t i = 0; i < size; ++i) {
                const Lit l = s_.arena_.lit(ref, i);
                if (l == lit) contains = true;
                if (s_.value(l) == lbool::True) {
                    satisfied = true;
                    break;
                }
                if (s_.value(l) == lbool::False) continue;
                current.push_back(l);
            }
            if (satisfied) {
                removeLongClause(ref, /*countRemoved=*/false);
                continue;
            }
            if (!contains) continue; // stale occ entry (strengthened away)
            if (out.size() >= bound) return false;
            out.push_back(std::move(current));
            refs.push_back(ref);
        }
        return true;
    };

    for (std::size_t vi = 0; vi < numVars; ++vi) {
        if (halted()) return true;
        if (cand[vi] == 0) continue;
        const auto v = static_cast<Var>(vi);
        if (s_.value(v) != lbool::Undef) continue; // assigned since prefilter
        if (!budget(16)) return true;

        const Lit pos = mkLit(v);
        const Lit neg = ~pos;

        // Problem binaries: clause (pos ∨ other) is entry {other} in the
        // list of ¬pos (= successors of neg), and symmetrically.
        std::vector<Lit> posBinOther;
        std::vector<Lit> negBinOther;
        bool over = false;
        for (const Solver::BinWatcher& bw :
             s_.binWatches_[static_cast<std::size_t>(neg.index())]) {
            if (bw.learnt != 0) continue;
            if (s_.value(bw.other) == lbool::True) continue; // satisfied
            posBinOther.push_back(bw.other);
            if (posBinOther.size() > occLimit) {
                over = true;
                break;
            }
        }
        if (over) continue;
        for (const Solver::BinWatcher& bw :
             s_.binWatches_[static_cast<std::size_t>(pos.index())]) {
            if (bw.learnt != 0) continue;
            if (s_.value(bw.other) == lbool::True) continue;
            negBinOther.push_back(bw.other);
            if (negBinOther.size() > occLimit) {
                over = true;
                break;
            }
        }
        if (over) continue;

        std::vector<ClauseRef> posRefs;
        std::vector<ClauseRef> negRefs;
        std::vector<std::vector<Lit>> posClauses;
        std::vector<std::vector<Lit>> negClauses;
        for (const Lit other : posBinOther)
            posClauses.push_back({pos, other});
        for (const Lit other : negBinOther)
            negClauses.push_back({neg, other});
        if (!gatherLong(pos, occLimit, posClauses, posRefs)) continue;
        if (!gatherLong(neg, occLimit, negClauses, negRefs)) continue;
        const std::size_t np = posClauses.size();
        const std::size_t nn = negClauses.size();

        // Enumerate resolvents.
        resolvents.clear();
        bool skip = false;
        for (const auto& p : posClauses) {
            for (const auto& n : negClauses) {
                if (!budget(static_cast<std::int64_t>(p.size() + n.size()))) {
                    skip = true;
                    break;
                }
                const std::uint32_t gen = nextStamp();
                merged.clear();
                for (const Lit l : p) {
                    if (l == pos) continue;
                    stamp_[static_cast<std::size_t>(l.index())] = gen;
                    merged.push_back(l);
                }
                bool tautology = false;
                for (const Lit l : n) {
                    if (l == neg) continue;
                    if (stamp_[static_cast<std::size_t>((~l).index())] ==
                        gen) {
                        tautology = true;
                        break;
                    }
                    if (stamp_[static_cast<std::size_t>(l.index())] == gen)
                        continue; // duplicate
                    merged.push_back(l);
                }
                if (tautology) continue;
                if (merged.size() >
                    static_cast<std::size_t>(std::max(0, so.elimClauseLimit))) {
                    skip = true;
                    break;
                }
                resolvents.push_back(merged);
                if (resolvents.size() >
                    np + nn + static_cast<std::size_t>(
                                  std::max(0, so.elimGrowth))) {
                    skip = true;
                    break;
                }
            }
            if (skip || halted()) break;
        }
        if (halted()) return true;
        if (skip) continue;

        // ---- Commit --------------------------------------------------------

        // Stash every problem clause (both phases, current literals) for
        // restoration, and feed the smaller phase to the extender.
        for (const auto& c : posClauses) s_.elimStash_.push(v, c);
        for (const auto& c : negClauses) s_.elimStash_.push(v, c);

        const bool storePos = np <= nn;
        const Lit witness = storePos ? pos : neg;
        const auto& stored = storePos ? posClauses : negClauses;
        std::vector<Lit> reordered;
        for (const auto& c : stored) {
            reordered.clear();
            reordered.push_back(witness);
            for (const Lit l : c)
                if (l != witness) reordered.push_back(l);
            s_.extender_.pushClause(v, reordered);
        }
        s_.extender_.pushUnit(~witness);

        // Delete learnt long clauses mentioning v.
        for (const ClauseRef ref : learntOcc[vi]) {
            if (s_.arena_.deleted(ref)) continue;
            const std::uint32_t size = s_.arena_.size(ref);
            bool contains = false;
            for (std::uint32_t i = 0; i < size; ++i)
                if (s_.arena_.lit(ref, i).var() == v) {
                    contains = true;
                    break;
                }
            if (contains) removeLongClause(ref, /*countRemoved=*/false);
        }

        // Delete ALL binaries touching v (problem + learnt), mirrored sides.
        for (const Lit side : {pos, neg}) {
            auto& list =
                s_.binWatches_[static_cast<std::size_t>((~side).index())];
            for (const Solver::BinWatcher& bw : list) {
                // Clause (side ∨ bw.other): erase the mirror entry {side}.
                auto& mirror = s_.binWatches_[static_cast<std::size_t>(
                    (~bw.other).index())];
                const auto it = std::find_if(
                    mirror.begin(), mirror.end(),
                    [&](const Solver::BinWatcher& m) {
                        return m.other == side && m.learnt == bw.learnt;
                    });
                expects(it != mirror.end(),
                        "eliminate: unmirrored binary entry");
                *it = mirror.back();
                mirror.pop_back();
                --s_.stats_.binaryClauses;
                if (bw.learnt != 0)
                    s_.learntBytes_ -= Solver::kBinaryBytes;
                else
                    --s_.binaryProblem_;
            }
            list.clear();
        }

        // Delete problem long clauses of both phases.
        for (const ClauseRef ref : posRefs)
            if (!s_.arena_.deleted(ref))
                removeLongClause(ref, /*countRemoved=*/false);
        for (const ClauseRef ref : negRefs)
            if (!s_.arena_.deleted(ref))
                removeLongClause(ref, /*countRemoved=*/false);

        // Add the resolvents as problem clauses.
        bool unsat = false;
        for (const auto& r : resolvents) {
            merged.clear();
            bool satisfied = false;
            for (const Lit l : r) {
                const lbool val = s_.value(l);
                if (val == lbool::True) {
                    satisfied = true;
                    break;
                }
                if (val == lbool::False) continue;
                merged.push_back(l);
            }
            if (satisfied) continue;
            if (merged.empty()) {
                unsat = true;
                break;
            }
            if (merged.size() == 1) {
                if (!s_.enqueue(merged[0], Reason::none())) {
                    unsat = true;
                    break;
                }
                if (!propagateTop()) {
                    unsat = true;
                    break;
                }
                continue;
            }
            if (merged.size() == 2) {
                if (!addCheckedBinary(merged[0], merged[1],
                                      /*learnt=*/false)) {
                    unsat = true;
                    break;
                }
                continue;
            }
            const ClauseRef ref =
                s_.arena_.alloc(merged, /*learnt=*/false, /*lbd=*/0);
            s_.clauses_.push_back(ref);
            s_.attachClause(ref);
            for (const Lit l : merged)
                occ_[static_cast<std::size_t>(l.index())].push_back(ref);
        }

        s_.eliminated_[vi] = 1;
        ++s_.numEliminated_;
        ++s_.stats_.eliminatedVars;
        if (unsat) {
            s_.ok_ = false;
            return false;
        }
        if (!propagateTop()) return false;
        if (halted()) return true;
    }
    return true;
}

} // namespace lar::sat
