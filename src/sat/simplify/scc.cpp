// Equivalent-literal substitution.
//
// The binary implication graph (u → w for every binary clause ¬u ∨ w) is
// decomposed into strongly connected components with an iterative Tarjan
// walk over the 2N literal nodes. Every literal in an SCC is equivalent; a
// component containing both phases of a variable makes the formula Unsat.
// Each non-representative literal is substituted by its component's
// representative (the minimum literal index — components mirror under
// negation, so this choice is consistent across the pair).
//
// Substitution turns the defining binaries (¬l ∨ r), (l ∨ ¬r) into
// tautologies, which the graph rebuild drops — so they are explicitly
// re-added afterwards as problem binaries. That keeps every substituted
// variable constrained to equal its representative: models assign it
// correctly with no extender entry, assumptions on it keep working, and no
// variable silently loses its meaning.

#include <algorithm>
#include <unordered_map>

#include "sat/simplify/simplify.hpp"
#include "util/error.hpp"

namespace lar::sat {

bool Simplifier::equivalence() {
    const std::size_t numLits = static_cast<std::size_t>(2 * s_.numVars());
    if (numLits == 0) return true;

    const auto skipVar = [this](Var v) {
        return s_.value(v) != lbool::Undef ||
               s_.eliminated_[static_cast<std::size_t>(v)] != 0;
    };

    // -- Tarjan SCC over literal nodes --------------------------------------
    std::vector<std::uint32_t> index(numLits, 0);
    std::vector<std::uint32_t> lowlink(numLits, 0);
    std::vector<char> onStack(numLits, 0);
    std::vector<std::int32_t> stack;
    std::uint32_t nextIndex = 1;

    // lastSccOfVar detects both-phases-in-one-component (→ Unsat).
    std::vector<std::int32_t> lastSccOfVar(
        static_cast<std::size_t>(s_.numVars()), -1);
    std::int32_t sccCount = 0;

    // subst[v] = the literal mkLit(v) is replaced by (undef = no change).
    std::vector<Lit> subst(static_cast<std::size_t>(s_.numVars()), kUndefLit);
    std::vector<Lit> members;

    struct Frame {
        std::int32_t node;
        std::size_t child;
    };
    std::vector<Frame> dfs;

    for (std::size_t root = 0; root < numLits; ++root) {
        if (index[root] != 0) continue;
        if (skipVar(Lit::fromIndex(static_cast<std::int32_t>(root)).var()))
            continue;
        const auto r = static_cast<std::int32_t>(root);
        index[root] = lowlink[root] = nextIndex++;
        stack.push_back(r);
        onStack[root] = 1;
        dfs.push_back({r, 0});
        while (!dfs.empty()) {
            Frame& f = dfs.back();
            const auto node = static_cast<std::size_t>(f.node);
            const auto& succ = s_.binWatches_[node];
            if (f.child < succ.size()) {
                if (!budget(1)) return true; // abort before substituting
                const Lit w = succ[f.child++].other;
                if (skipVar(w.var())) continue;
                const auto wi = static_cast<std::size_t>(w.index());
                if (index[wi] == 0) {
                    index[wi] = lowlink[wi] = nextIndex++;
                    stack.push_back(static_cast<std::int32_t>(wi));
                    onStack[wi] = 1;
                    dfs.push_back({static_cast<std::int32_t>(wi), 0});
                } else if (onStack[wi] != 0) {
                    lowlink[node] = std::min(lowlink[node], index[wi]);
                }
                continue;
            }
            const std::int32_t n = f.node;
            dfs.pop_back(); // invalidates f
            if (!dfs.empty()) {
                const auto parent = static_cast<std::size_t>(dfs.back().node);
                lowlink[parent] = std::min(lowlink[parent], lowlink[node]);
            }
            if (lowlink[node] != index[node]) continue;
            // Close the component rooted at `n`.
            members.clear();
            while (true) {
                const std::int32_t m = stack.back();
                stack.pop_back();
                onStack[static_cast<std::size_t>(m)] = 0;
                members.push_back(Lit::fromIndex(m));
                if (m == n) break;
            }
            if (members.size() < 2) {
                ++sccCount;
                continue;
            }
            Lit rep = members[0];
            for (const Lit m : members) {
                if (m.index() < rep.index()) rep = m;
                auto& last = lastSccOfVar[static_cast<std::size_t>(m.var())];
                if (last == sccCount) {
                    // l and ~l equivalent: the formula is unsatisfiable.
                    s_.ok_ = false;
                    return false;
                }
                last = sccCount;
            }
            for (const Lit m : members) {
                if (m.var() == rep.var()) continue;
                subst[static_cast<std::size_t>(m.var())] =
                    m.sign() ? ~rep : rep;
            }
            ++sccCount;
        }
    }

    // -- Apply the substitution ---------------------------------------------
    std::size_t substituted = 0;
    for (const Lit r : subst)
        if (r.isDefined()) ++substituted;
    if (substituted == 0) return true;
    s_.stats_.equivalentLiterals += substituted;

    const auto mapLit = [&subst](Lit l) {
        const Lit r = subst[static_cast<std::size_t>(l.var())];
        if (!r.isDefined()) return l;
        return l.sign() ? ~r : r;
    };

    // Long clauses (problem only — learnt clauses are implied either way and
    // elimination deletes any learnt clause that still mentions an old var).
    std::vector<Lit> mapped;
    const std::vector<ClauseRef> snapshot = s_.clauses_;
    for (const ClauseRef ref : snapshot) {
        if (s_.arena_.deleted(ref)) continue;
        const std::uint32_t size = s_.arena_.size(ref);
        if (!budget(size)) break;
        bool changed = false;
        mapped.clear();
        for (std::uint32_t i = 0; i < size; ++i) {
            const Lit l = s_.arena_.lit(ref, i);
            const Lit m = mapLit(l);
            changed = changed || m != l;
            mapped.push_back(m);
        }
        if (!changed) continue;
        std::sort(mapped.begin(), mapped.end());
        bool tautology = false;
        std::size_t keep = 0;
        for (std::size_t i = 0; i < mapped.size(); ++i) {
            if (keep > 0 && mapped[i] == mapped[keep - 1]) continue;
            if (keep > 0 && mapped[i] == ~mapped[keep - 1]) {
                tautology = true;
                break;
            }
            mapped[keep++] = mapped[i];
        }
        if (tautology) {
            removeLongClause(ref, /*countRemoved=*/false);
            continue;
        }
        mapped.resize(keep);
        if (!rewriteLongClause(ref, mapped)) return false;
        if (solveStop_ != StopReason::None) return true;
    }

    // Binary implication graph: collect, clear, re-add mapped + deduped.
    std::vector<Solver::FlatBinary> bins = s_.flatBinaries();
    // Problem binaries first so a problem/learnt duplicate keeps the
    // stronger (problem) status.
    std::stable_partition(bins.begin(), bins.end(),
                          [](const Solver::FlatBinary& bin) { return bin.learnt == 0; });
    std::size_t learntCount = 0;
    for (const auto& [a, b, learnt] : bins)
        if (learnt) ++learntCount;
    for (auto& list : s_.binWatches_) list.clear();
    s_.stats_.binaryClauses -= bins.size();
    s_.binaryProblem_ -= bins.size() - learntCount;
    s_.learntBytes_ -= learntCount * Solver::kBinaryBytes;

    const auto key = [](Lit a, Lit b) {
        const auto lo = static_cast<std::uint64_t>(std::min(a.index(), b.index()));
        const auto hi = static_cast<std::uint64_t>(std::max(a.index(), b.index()));
        return (hi << 32) | lo;
    };
    // The rebuild below is ATOMIC: once the watch lists are cleared, every
    // surviving binary plus the defining equivalences MUST be re-attached
    // before this function yields to any budget or solve-level stop. An
    // early exit here would silently drop clauses from the database — the
    // formula would get weaker, not just less simplified. The only
    // permitted abort is ok_ == false (a genuine level-0 conflict: the
    // formula is Unsat from the clauses already present, so the missing
    // rest cannot un-prove it). The work is charged post-hoc; an overshoot
    // is noticed by the next budget() call.
    std::unordered_map<std::uint64_t, char> seen;
    seen.reserve(bins.size());
    for (const auto& [a0, b0, learnt] : bins) {
        const Lit a = mapLit(a0);
        const Lit b = mapLit(b0);
        if (a == ~b) continue; // tautology (includes the defining binaries)
        if (a != b && !seen.emplace(key(a, b), 1).second) continue;
        if (!addCheckedBinary(a, b, learnt)) return false;
    }

    // Re-add the defining equivalences as problem binaries: (¬l ∨ r) and
    // (l ∨ ¬r) for every substituted l. Without them the substituted
    // variables would be unconstrained — models, snapshots, and assumptions
    // over them would silently break.
    for (Var v = 0; v < s_.numVars(); ++v) {
        const Lit r = subst[static_cast<std::size_t>(v)];
        if (!r.isDefined()) continue;
        const Lit l = mkLit(v);
        if (!addCheckedBinary(~l, r, /*learnt=*/false)) return false;
        if (!addCheckedBinary(l, ~r, /*learnt=*/false)) return false;
    }
    (void)budget(static_cast<std::int64_t>(bins.size() + 2 * substituted));

    return propagateTop();
}

} // namespace lar::sat
