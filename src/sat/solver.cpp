#include "sat/solver.hpp"

#include <algorithm>

#include "sat/simplify/simplify.hpp"
#include "util/error.hpp"

namespace lar::sat {

const char* toString(StopReason reason) {
    switch (reason) {
    case StopReason::None: return "none";
    case StopReason::ConflictBudget: return "conflict_budget";
    case StopReason::PropagationBudget: return "propagation_budget";
    case StopReason::MemoryBudget: return "memory_budget";
    case StopReason::Deadline: return "deadline";
    case StopReason::Cancelled: return "cancelled";
    }
    return "none";
}

const char* toString(SimplifyStop stop) {
    switch (stop) {
    case SimplifyStop::None: return "none";
    case SimplifyStop::Ticks: return "ticks";
    case SimplifyStop::Memory: return "memory";
    }
    return "none";
}

// ---------------------------------------------------------------------------
// Variable / clause creation
// ---------------------------------------------------------------------------

char Solver::initialPhase(std::uint64_t seed, Var v) {
    if (seed == 0) return 1; // default phase: assign false first
    // Deterministic per-(seed, var) phase: splitmix64 of the pair.
    std::uint64_t state = seed ^ (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL);
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<char>((z ^ (z >> 31)) & 1);
}

Var Solver::newVar() {
    const Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(lbool::Undef);
    varData_.push_back({});
    polarity_.push_back(initialPhase(opts_.randomSeed, v));
    activity_.push_back(0.0);
    heapIndex_.push_back(-1);
    seen_.push_back(0);
    frozen_.push_back(0);
    eliminated_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    binWatches_.emplace_back();
    binWatches_.emplace_back();
    heapInsert(v);
    return v;
}

bool Solver::addClause(std::vector<Lit> lits) {
    expects(decisionLevel() == 0, "addClause: only valid at decision level 0");
    ++addClauseCalls_;
    prepared_ = false;
    if (!ok_) return false;
    // A new clause may mention a variable that bounded elimination removed:
    // re-activate it (and transitively, anything its stashed clauses mention)
    // before integrating the clause, so incremental growth stays sound.
    if (numEliminated_ > 0) restoreForLits(lits);
    if (!ok_) return false;
    return addClauseInternal(std::move(lits));
}

bool Solver::addClauseInternal(std::vector<Lit> lits) {
    if (!ok_) return false;

    // Simplify: sort, drop duplicates and false literals, detect tautologies
    // and literals already true at level 0.
    std::sort(lits.begin(), lits.end());
    std::vector<Lit>& out = simplifyScratch_;
    out.clear();
    Lit prev = kUndefLit;
    for (const Lit l : lits) {
        expects(l.var() >= 0 && l.var() < numVars(), "addClause: unknown variable");
        if (l == prev) continue;
        if (prev.isDefined() && l == ~prev) return true; // tautology: x ∨ ¬x
        const lbool v = value(l);
        if (v == lbool::True) return true; // satisfied at level 0
        if (v == lbool::False) continue;   // falsified at level 0: drop
        out.push_back(l);
        prev = l;
    }

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        if (!enqueue(out[0], Reason::none())) {
            ok_ = false;
            return false;
        }
        ok_ = !propagate().found();
        return ok_;
    }

    storeClause(out, /*learnt=*/false, /*lbd=*/0);
    return true;
}

void Solver::storeClause(std::span<const Lit> lits, bool learnt, int lbd) {
    expects(lits.size() >= 2, "storeClause: clause too short");
    if (lits.size() == 2) {
        attachBinary(lits[0], lits[1], learnt);
        return;
    }
    const ClauseRef ref = arena_.alloc(lits, learnt, lbd);
    (learnt ? learnts_ : clauses_).push_back(ref);
    attachClause(ref);
    if (learnt) learntBytes_ += arena_.footprintBytes(ref);
}

void Solver::attachClause(ClauseRef ref) {
    expects(arena_.size(ref) >= 3, "attachClause: binaries live in the graph");
    const Lit c0 = arena_.lit(ref, 0);
    const Lit c1 = arena_.lit(ref, 1);
    watches_[static_cast<std::size_t>((~c0).index())].push_back({ref, c1});
    watches_[static_cast<std::size_t>((~c1).index())].push_back({ref, c0});
}

void Solver::detachClause(ClauseRef ref) {
    for (const Lit w : {arena_.lit(ref, 0), arena_.lit(ref, 1)}) {
        auto& list = watches_[static_cast<std::size_t>((~w).index())];
        auto it = std::find_if(list.begin(), list.end(),
                               [ref](const Watcher& wt) { return wt.ref == ref; });
        if (it != list.end()) {
            *it = list.back();
            list.pop_back();
        }
    }
}

void Solver::attachBinary(Lit a, Lit b, bool learnt) {
    // Clause (a ∨ b): each literal's falsification list gets the other side.
    binWatches_[static_cast<std::size_t>((~a).index())].push_back(
        {b, learnt ? 1u : 0u});
    binWatches_[static_cast<std::size_t>((~b).index())].push_back(
        {a, learnt ? 1u : 0u});
    ++stats_.binaryClauses;
    if (learnt)
        learntBytes_ += kBinaryBytes;
    else
        ++binaryProblem_;
}

// ---------------------------------------------------------------------------
// Trail management
// ---------------------------------------------------------------------------

bool Solver::enqueue(Lit l, Reason from) {
    const lbool v = value(l);
    if (v != lbool::Undef) return v == lbool::True;
    assigns_[static_cast<std::size_t>(l.var())] = fromBool(!l.sign());
    varData_[static_cast<std::size_t>(l.var())] = {from, decisionLevel()};
    trail_.push_back(l);
    return true;
}

void Solver::newDecisionLevel() {
    trailLim_.push_back(static_cast<int>(trail_.size()));
    stats_.maxDecisionLevel = std::max(
        stats_.maxDecisionLevel, static_cast<std::uint64_t>(decisionLevel()));
}

void Solver::backtrackTo(int level) {
    if (decisionLevel() <= level) return;
    const int limit = trailLim_[static_cast<std::size_t>(level)];
    for (int i = static_cast<int>(trail_.size()) - 1; i >= limit; --i) {
        const Var v = trail_[static_cast<std::size_t>(i)].var();
        if (opts_.usePhaseSaving)
            polarity_[static_cast<std::size_t>(v)] =
                trail_[static_cast<std::size_t>(i)].sign() ? 1 : 0;
        assigns_[static_cast<std::size_t>(v)] = lbool::Undef;
        varData_[static_cast<std::size_t>(v)].reason = Reason::none();
        if (heapIndex_[static_cast<std::size_t>(v)] < 0) heapInsert(v);
    }
    trail_.resize(static_cast<std::size_t>(limit));
    trailLim_.resize(static_cast<std::size_t>(level));
    qhead_ = trail_.size();
}

// ---------------------------------------------------------------------------
// Propagation
// ---------------------------------------------------------------------------

Solver::Conflict Solver::propagate() {
    Conflict conflict;
    while (qhead_ < trail_.size()) {
        // Long propagation streaks between decisions/conflicts must still
        // honour budgets, the deadline, and cancellation: poll every 1024
        // propagations (and exactly at the propagation budget) and let
        // search() unwind via pendingStop_. The poll runs BEFORE the literal
        // is dequeued so an interrupted propagation keeps its queue position:
        // at decision level 0 backtrackTo(0) cannot rewind qhead_, so a
        // literal dequeued-but-unprocessed here would never have its watchers
        // examined again, and an incremental re-solve (the anytime paths)
        // could report Sat against an unpropagated clause.
        if ((propagationLimit_ >= 0 &&
             static_cast<std::int64_t>(stats_.propagations) >=
                 propagationLimit_) ||
            (stats_.propagations & 1023U) == 0) {
            const StopReason stop = limitExceeded();
            if (stop != StopReason::None) {
                pendingStop_ = stop;
                return conflict;
            }
        }
        const Lit p = trail_[qhead_++];
        ++stats_.propagations;

        // Binary pass first: every entry here is a complete implication
        // (clause ¬p ∨ other) — no blocker probing, no watch migration, and
        // a false `other` is immediately a conflict.
        for (const BinWatcher& bw :
             binWatches_[static_cast<std::size_t>(p.index())]) {
            const lbool v = value(bw.other);
            if (v == lbool::True) continue;
            if (v == lbool::False) {
                conflict.binA = ~p;
                conflict.binB = bw.other;
                qhead_ = trail_.size();
                return conflict;
            }
            enqueue(bw.other, Reason::binary(~p));
        }

        auto& list = watches_[static_cast<std::size_t>(p.index())];
        std::size_t keep = 0;
        std::size_t i = 0;
        for (; i < list.size(); ++i) {
            const Watcher w = list[i];
            // Fast path: blocker already true — the clause is satisfied
            // without touching its arena words.
            if (value(w.blocker) == lbool::True) {
                list[keep++] = w;
                continue;
            }
            const ClauseRef cr = w.ref;
            const Lit falseLit = ~p;
            // Normalize: put the falsified watch at position 1.
            if (arena_.lit(cr, 0) == falseLit) arena_.swapLits(cr, 0, 1);
            const Lit first = arena_.lit(cr, 0);
            if (first != w.blocker && value(first) == lbool::True) {
                list[keep++] = {cr, first};
                continue;
            }
            // Look for a new literal to watch.
            bool found = false;
            const std::uint32_t size = arena_.size(cr);
            for (std::uint32_t k = 2; k < size; ++k) {
                if (value(arena_.lit(cr, k)) != lbool::False) {
                    arena_.swapLits(cr, 1, k);
                    watches_[static_cast<std::size_t>((~arena_.lit(cr, 1)).index())]
                        .push_back({cr, first});
                    found = true;
                    break;
                }
            }
            if (found) continue;
            // Clause is unit or conflicting.
            list[keep++] = {cr, first};
            if (value(first) == lbool::False) {
                conflict.ref = cr;
                qhead_ = trail_.size();
                // Copy the remaining watchers and stop.
                for (++i; i < list.size(); ++i) list[keep++] = list[i];
                break;
            }
            enqueue(first, Reason::clause(cr));
        }
        list.resize(keep);
        if (conflict.found()) break;
    }
    return conflict;
}

// ---------------------------------------------------------------------------
// Conflict analysis (1UIP + minimization)
// ---------------------------------------------------------------------------

int Solver::computeLbd(const std::vector<Lit>& lits) {
    // Number of distinct decision levels among the literals.
    std::vector<int> levels;
    levels.reserve(lits.size());
    for (const Lit l : lits) levels.push_back(levelOf(l.var()));
    std::sort(levels.begin(), levels.end());
    return static_cast<int>(
        std::unique(levels.begin(), levels.end()) - levels.begin());
}

void Solver::analyze(const Conflict& conflict, std::vector<Lit>& learnt,
                     int& backtrackLevel, int& lbd) {
    learnt.clear();
    learnt.push_back(kUndefLit); // slot for the asserting literal
    int counter = 0;             // literals at the current level still to resolve
    Lit p = kUndefLit;
    std::size_t trailIndex = trail_.size();

    const auto visit = [&](Lit q) {
        const Var v = q.var();
        if (seen_[static_cast<std::size_t>(v)] || levelOf(v) == 0) return;
        seen_[static_cast<std::size_t>(v)] = 1;
        varBumpActivity(v);
        if (levelOf(v) >= decisionLevel()) {
            ++counter;
        } else {
            learnt.push_back(q);
        }
    };
    // Resolve with one reason side: an arena clause (its first literal is the
    // implied one, skipped) or the single other literal of a binary clause.
    const auto resolveWith = [&](Reason r) {
        if (r.isBinary()) {
            visit(r.otherLit());
            return;
        }
        expects(r.isClause(), "analyze: missing reason clause");
        const ClauseRef cr = r.ref();
        if (arena_.learnt(cr)) clauseBumpActivity(cr);
        const std::uint32_t size = arena_.size(cr);
        for (std::uint32_t i = 1; i < size; ++i) visit(arena_.lit(cr, i));
    };

    // Seed with the conflicting clause (all of its literals).
    if (conflict.isBinary()) {
        visit(conflict.binA);
        visit(conflict.binB);
    } else {
        const ClauseRef cr = conflict.ref;
        if (arena_.learnt(cr)) clauseBumpActivity(cr);
        const std::uint32_t size = arena_.size(cr);
        for (std::uint32_t i = 0; i < size; ++i) visit(arena_.lit(cr, i));
    }

    while (true) {
        // Select the next literal on the trail to resolve on.
        while (!seen_[static_cast<std::size_t>(trail_[trailIndex - 1].var())])
            --trailIndex;
        --trailIndex;
        p = trail_[trailIndex];
        const Reason reason = reasonOf(p.var());
        seen_[static_cast<std::size_t>(p.var())] = 0;
        if (--counter == 0) break; // p is the first UIP
        resolveWith(reason);
    }
    learnt[0] = ~p;

    // Minimize: drop literals implied by the rest of the learned clause.
    analyzeToClear_.assign(learnt.begin(), learnt.end());
    std::uint32_t abstractLevels = 0;
    for (std::size_t i = 1; i < learnt.size(); ++i)
        abstractLevels |= abstractLevel(learnt[i].var());
    std::size_t keep = 1;
    for (std::size_t i = 1; i < learnt.size(); ++i) {
        if (reasonOf(learnt[i].var()).isNone() ||
            !litRedundant(learnt[i], abstractLevels))
            learnt[keep++] = learnt[i];
    }
    learnt.resize(keep);
    for (const Lit l : analyzeToClear_) seen_[static_cast<std::size_t>(l.var())] = 0;

    // Compute the backtrack level: highest level below the current one.
    if (learnt.size() == 1) {
        backtrackLevel = 0;
    } else {
        std::size_t maxIdx = 1;
        for (std::size_t i = 2; i < learnt.size(); ++i)
            if (levelOf(learnt[i].var()) > levelOf(learnt[maxIdx].var())) maxIdx = i;
        std::swap(learnt[1], learnt[maxIdx]);
        backtrackLevel = levelOf(learnt[1].var());
    }
    lbd = computeLbd(learnt);
    stats_.learntLiterals += learnt.size();
    stats_.lbdSum += static_cast<std::uint64_t>(lbd);
}

bool Solver::litRedundant(Lit l, std::uint32_t abstractLevels) {
    analyzeStack_.clear();
    analyzeStack_.push_back(l);
    const std::size_t clearTop = analyzeToClear_.size();
    // Antecedent check shared by both reason kinds; false → not redundant.
    const auto follow = [&](Lit q) {
        const Var v = q.var();
        if (seen_[static_cast<std::size_t>(v)] || levelOf(v) == 0) return true;
        if (!reasonOf(v).isNone() && (abstractLevel(v) & abstractLevels) != 0) {
            seen_[static_cast<std::size_t>(v)] = 1;
            analyzeStack_.push_back(q);
            analyzeToClear_.push_back(q);
            return true;
        }
        return false;
    };
    const auto abort = [&] {
        // Not redundant: undo the marks added during this call.
        for (std::size_t j = clearTop; j < analyzeToClear_.size(); ++j)
            seen_[static_cast<std::size_t>(analyzeToClear_[j].var())] = 0;
        analyzeToClear_.resize(clearTop);
        return false;
    };
    while (!analyzeStack_.empty()) {
        const Lit cur = analyzeStack_.back();
        analyzeStack_.pop_back();
        const Reason reason = reasonOf(cur.var());
        expects(!reason.isNone(), "litRedundant: literal without reason");
        if (reason.isBinary()) {
            if (!follow(reason.otherLit())) return abort();
            continue;
        }
        const ClauseRef cr = reason.ref();
        const std::uint32_t size = arena_.size(cr);
        for (std::uint32_t i = 1; i < size; ++i) {
            if (!follow(arena_.lit(cr, i))) return abort();
        }
    }
    return true;
}

void Solver::analyzeFinal(Lit falsifiedAssumption) {
    core_.clear();
    core_.push_back(falsifiedAssumption);
    if (decisionLevel() == 0) return;
    seen_[static_cast<std::size_t>(falsifiedAssumption.var())] = 1;
    const auto mark = [&](Var v) {
        if (levelOf(v) > 0) seen_[static_cast<std::size_t>(v)] = 1;
    };
    for (int i = static_cast<int>(trail_.size()) - 1;
         i >= trailLim_[0]; --i) {
        const Var x = trail_[static_cast<std::size_t>(i)].var();
        if (!seen_[static_cast<std::size_t>(x)]) continue;
        const Reason reason = reasonOf(x);
        if (reason.isNone()) {
            // A decision: under assumptions-first ordering this is an
            // assumption literal contributing to the failure.
            core_.push_back(trail_[static_cast<std::size_t>(i)]);
        } else if (reason.isBinary()) {
            mark(reason.otherLit().var());
        } else {
            const ClauseRef cr = reason.ref();
            const std::uint32_t size = arena_.size(cr);
            for (std::uint32_t k = 1; k < size; ++k) mark(arena_.lit(cr, k).var());
        }
        seen_[static_cast<std::size_t>(x)] = 0;
    }
    seen_[static_cast<std::size_t>(falsifiedAssumption.var())] = 0;
}

// ---------------------------------------------------------------------------
// Activity
// ---------------------------------------------------------------------------

void Solver::varBumpActivity(Var v) {
    auto& act = activity_[static_cast<std::size_t>(v)];
    act += varInc_;
    if (act > 1e100) {
        for (auto& a : activity_) a *= 1e-100;
        varInc_ *= 1e-100;
    }
    if (heapIndex_[static_cast<std::size_t>(v)] >= 0) heapUpdate(v);
}

void Solver::varDecayActivity() { varInc_ /= opts_.varDecay; }

void Solver::clauseBumpActivity(ClauseRef ref) {
    arena_.setActivity(ref, arena_.activity(ref) + static_cast<float>(claInc_));
    if (arena_.activity(ref) > 1e20f) {
        for (const ClauseRef l : learnts_)
            arena_.setActivity(l, arena_.activity(l) * 1e-20f);
        claInc_ *= 1e-20;
    }
}

void Solver::clauseDecayActivity() { claInc_ /= opts_.clauseDecay; }

// ---------------------------------------------------------------------------
// Order heap
// ---------------------------------------------------------------------------

void Solver::heapInsert(Var v) {
    heapIndex_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    heapSiftUp(heap_.size() - 1);
}

void Solver::heapUpdate(Var v) {
    heapSiftUp(static_cast<std::size_t>(heapIndex_[static_cast<std::size_t>(v)]));
}

Var Solver::heapPopMax() {
    const Var top = heap_[0];
    heapIndex_[static_cast<std::size_t>(top)] = -1;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heapIndex_[static_cast<std::size_t>(heap_[0])] = 0;
        heapSiftDown(0);
    }
    return top;
}

void Solver::heapSiftUp(std::size_t i) {
    const Var v = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!heapLess(heap_[parent], v)) break;
        heap_[i] = heap_[parent];
        heapIndex_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
        i = parent;
    }
    heap_[i] = v;
    heapIndex_[static_cast<std::size_t>(v)] = static_cast<int>(i);
}

void Solver::heapSiftDown(std::size_t i) {
    const Var v = heap_[i];
    while (true) {
        std::size_t child = 2 * i + 1;
        if (child >= heap_.size()) break;
        if (child + 1 < heap_.size() && heapLess(heap_[child], heap_[child + 1]))
            ++child;
        if (!heapLess(v, heap_[child])) break;
        heap_[i] = heap_[child];
        heapIndex_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
        i = child;
    }
    heap_[i] = v;
    heapIndex_[static_cast<std::size_t>(v)] = static_cast<int>(i);
}

// ---------------------------------------------------------------------------
// Learned-clause database reduction + arena compaction
// ---------------------------------------------------------------------------

void Solver::reduceLearntDb() {
    // Sort worst-first: high LBD, then low activity. Binary learnt clauses
    // live in the implication graph, not in learnts_, so they are never
    // reduced — same policy as keeping glue (LBD <= 2) clauses forever.
    std::vector<ClauseRef> sorted = learnts_;
    std::sort(sorted.begin(), sorted.end(), [this](ClauseRef a, ClauseRef b) {
        if (arena_.lbd(a) != arena_.lbd(b)) return arena_.lbd(a) > arena_.lbd(b);
        return arena_.activity(a) < arena_.activity(b);
    });

    std::size_t removed = 0;
    const std::size_t target = learnts_.size() / 2;
    for (const ClauseRef ref : sorted) {
        if (removed >= target) break;
        if (arena_.lbd(ref) <= 2 || lockedReason(ref)) continue;
        detachClause(ref);
        learntBytes_ -= arena_.footprintBytes(ref);
        arena_.free(ref);
        ++removed;
    }
    // free() marked them; drop the refs (the words wait for compaction).
    std::erase_if(learnts_,
                  [this](ClauseRef ref) { return arena_.deleted(ref); });
    stats_.removedClauses += removed;
}

void Solver::garbageCollect() {
    // Every live clause is reachable from clauses_/learnts_ (attach always
    // registers there), so relocating those lists establishes every
    // forwarding ref; watchers and trail reasons then rewrite via forward().
    // Freed clauses are never a watcher (detach before free) nor a reason
    // (reduceLearntDb skips locked clauses; removeSatisfiedAtLevelZero
    // clears level-0 trail reasons before freeing), so nothing dangles.
    ClauseArena to;
    to.reserveWords(arena_.liveWords());
    for (ClauseRef& ref : clauses_) ref = arena_.relocate(ref, to);
    for (ClauseRef& ref : learnts_) ref = arena_.relocate(ref, to);
    for (auto& list : watches_)
        for (Watcher& w : list) w.ref = arena_.forward(w.ref);
    for (const Lit l : trail_) {
        Reason& r = varData_[static_cast<std::size_t>(l.var())].reason;
        if (r.isClause()) r = Reason::clause(arena_.forward(r.ref()));
    }
    arena_ = std::move(to);
    ++stats_.arenaGcs;
}

void Solver::maybeGarbageCollect() {
    if (arena_.wastedWords() > 0 &&
        static_cast<double>(arena_.wastedWords()) >=
            kGcWasteFraction * static_cast<double>(arena_.totalWords()))
        garbageCollect();
}

void Solver::removeSatisfiedAtLevelZero() {
    expects(decisionLevel() == 0, "removeSatisfied: requires level 0");
    // The level-0 trail only grows, and addClauseInternal/importSharedClauses
    // drop clauses already satisfied at level 0 on entry, so a stored clause
    // can only have become satisfied if the trail grew since the last sweep.
    if (trail_.size() == trailAtLastSweep_) return;
    trailAtLastSweep_ = trail_.size();
    // The whole trail is level 0 here; level-0 facts never participate in
    // conflict analysis again, so their reasons can be dropped. This is what
    // makes freeing a satisfied clause safe: nothing references it anymore.
    for (const Lit l : trail_)
        varData_[static_cast<std::size_t>(l.var())].reason = Reason::none();

    const auto satisfied = [this](ClauseRef ref) {
        const std::uint32_t size = arena_.size(ref);
        for (std::uint32_t i = 0; i < size; ++i)
            if (value(arena_.lit(ref, i)) == lbool::True) return true;
        return false;
    };
    for (auto* vec : {&clauses_, &learnts_}) {
        std::erase_if(*vec, [&](ClauseRef ref) {
            if (!satisfied(ref)) return false;
            detachClause(ref);
            if (arena_.learnt(ref)) learntBytes_ -= arena_.footprintBytes(ref);
            arena_.free(ref);
            return true;
        });
    }

    // Sweep the binary implication graph: entry {other} in list j belongs to
    // the clause (¬Lit(j) ∨ other); both mirrored entries of a satisfied
    // clause meet the same predicate, so entry counts stay even.
    std::size_t removedProblem = 0;
    std::size_t removedLearnt = 0;
    for (std::size_t j = 0; j < binWatches_.size(); ++j) {
        const Lit w = Lit::fromIndex(static_cast<std::int32_t>(j));
        std::erase_if(binWatches_[j], [&](const BinWatcher& bw) {
            if (value(~w) != lbool::True && value(bw.other) != lbool::True)
                return false;
            ++(bw.learnt != 0 ? removedLearnt : removedProblem);
            return true;
        });
    }
    stats_.binaryClauses -= (removedProblem + removedLearnt) / 2;
    binaryProblem_ -= removedProblem / 2;
    learntBytes_ -= (removedLearnt / 2) * kBinaryBytes;

    maybeGarbageCollect();
}

bool Solver::importSharedClauses() {
    expects(decisionLevel() == 0, "importSharedClauses: requires level 0");
    if (!ok_) return false;
    importScratch_.clear();
    opts_.importClausesFn(importScratch_);
    std::vector<Lit>& out = simplifyScratch_;
    for (ImportedClause& imp : importScratch_) {
        // Same simplification as addClause, but a rejected clause (satisfied,
        // tautological, or from a diverged variable space) is just skipped.
        // Clauses mentioning a variable this solver eliminated are skipped
        // too: learnt clauses must never resurrect an eliminated variable.
        std::sort(imp.lits.begin(), imp.lits.end());
        out.clear();
        bool skip = imp.lits.empty();
        Lit prev = kUndefLit;
        for (const Lit l : imp.lits) {
            if (l.var() < 0 || l.var() >= numVars() ||
                eliminated_[static_cast<std::size_t>(l.var())] != 0) {
                skip = true;
                break;
            }
            if (l == prev) continue;
            if (prev.isDefined() && l == ~prev) { // tautology: x ∨ ¬x
                skip = true;
                break;
            }
            const lbool v = value(l);
            if (v == lbool::True) { // already satisfied at level 0
                skip = true;
                break;
            }
            if (v == lbool::False) continue; // falsified at level 0: drop
            out.push_back(l);
            prev = l;
        }
        if (skip) continue;
        ++stats_.importedClauses;
        if (out.empty()) { // empty under the level-0 assignment: Unsat
            ok_ = false;
            return false;
        }
        if (out.size() == 1) {
            if (!enqueue(out[0], Reason::none())) {
                ok_ = false;
                return false;
            }
            continue; // propagated by the next propagate() call
        }
        storeClause(out, /*learnt=*/true,
                    std::clamp(imp.lbd, 2, static_cast<int>(out.size())));
    }
    return true;
}

// ---------------------------------------------------------------------------
// Warm-start snapshots
// ---------------------------------------------------------------------------

void Solver::markSnapshotBaseline() {
    baselineVars_ = numVars();
    baselineClauseCalls_ = addClauseCalls_;
}

SolverSnapshot Solver::exportSnapshot(std::size_t maxClauses) const {
    SolverSnapshot snap;
    // Refuse when no baseline was marked, when any addClause() happened after
    // it (the invocation counter also catches unit and satisfied clauses that
    // never reach clauses_, e.g. optimization bound assertions), or when the
    // solver is already Unsat at level 0.
    if (baselineVars_ < 0 || addClauseCalls_ != baselineClauseCalls_ || !ok_)
        return snap;

    const auto baseline = static_cast<std::size_t>(baselineVars_);
    snap.numVars = static_cast<int>(baseline);
    snap.polarity.assign(polarity_.begin(),
                         polarity_.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(baseline, polarity_.size())));
    snap.polarity.resize(baseline, 0);

    // Normalize activities so the importer is immune to this solver's rescale
    // epoch (varInc_ grows geometrically and is rescaled at 1e100).
    snap.activity.resize(baseline, 0.0);
    double maxActivity = 0.0;
    for (std::size_t v = 0; v < baseline && v < activity_.size(); ++v)
        maxActivity = std::max(maxActivity, activity_[v]);
    if (maxActivity > 0.0) {
        for (std::size_t v = 0; v < baseline && v < activity_.size(); ++v)
            snap.activity[v] = activity_[v] / maxActivity;
    }

    // Level-0 trail literals are facts derived from the problem clauses alone
    // (assumptions only ever sit at levels >= 1) — export them as units.
    const std::size_t levelZeroEnd =
        trailLim_.empty() ? trail_.size()
                          : static_cast<std::size_t>(trailLim_[0]);
    for (std::size_t i = 0; i < levelZeroEnd; ++i) {
        const Lit l = trail_[i];
        if (static_cast<std::size_t>(l.var()) >= baseline) continue;
        if (snap.clauses.size() >= maxClauses) return snap;
        snap.clauses.push_back(ImportedClause{{l}, 1});
    }

    // Short learnt clauses, same quality filter as portfolio exchange. Learnt
    // clauses can mention assumption-compilation variables created after the
    // baseline; those are meaningless in a fresh replay, so skip them.
    for (const ClauseRef ref : learnts_) {
        if (snap.clauses.size() >= maxClauses) break;
        const int lbd = arena_.lbd(ref);
        const std::uint32_t size = arena_.size(ref);
        if (lbd > opts_.shareLbdMax &&
            static_cast<int>(size) > opts_.shareSizeMax)
            continue;
        ImportedClause imp;
        imp.lbd = lbd;
        imp.lits.reserve(size);
        bool inBaseline = true;
        for (std::uint32_t i = 0; i < size; ++i) {
            const Lit l = arena_.lit(ref, i);
            if (static_cast<std::size_t>(l.var()) >= baseline) {
                inBaseline = false;
                break;
            }
            imp.lits.push_back(l);
        }
        if (!inBaseline) continue;
        snap.clauses.push_back(std::move(imp));
    }

    // Learnt binaries export straight from the implication graph: the entry
    // {other} in list j is the clause (¬Lit(j) ∨ other), mirrored once in
    // each direction — emit the ordered one of the pair.
    if (!(2 > opts_.shareLbdMax && 2 > opts_.shareSizeMax)) {
        for (std::size_t j = 0; j < binWatches_.size(); ++j) {
            if (snap.clauses.size() >= maxClauses) break;
            const Lit a = ~Lit::fromIndex(static_cast<std::int32_t>(j));
            for (const BinWatcher& bw : binWatches_[j]) {
                if (snap.clauses.size() >= maxClauses) break;
                if (bw.learnt == 0 || a.index() >= bw.other.index()) continue;
                if (static_cast<std::size_t>(a.var()) >= baseline ||
                    static_cast<std::size_t>(bw.other.var()) >= baseline)
                    continue;
                snap.clauses.push_back(ImportedClause{{a, bw.other}, 2});
            }
        }
    }
    return snap;
}

std::size_t Solver::importSnapshot(const SolverSnapshot& snapshot) {
    expects(decisionLevel() == 0, "importSnapshot: requires level 0");
    // Refuse on any shape mismatch: warm-start is only sound into a solver
    // built from the identical newVar()/addClause() replay.
    if (snapshot.empty() || snapshot.numVars != numVars() || !ok_) return 0;
    prepared_ = false;

    // Heuristic state first: saved phases and normalized activities.
    const auto baseline = static_cast<std::size_t>(snapshot.numVars);
    for (std::size_t v = 0; v < baseline && v < polarity_.size(); ++v)
        polarity_[v] = v < snapshot.polarity.size() ? snapshot.polarity[v] : 0;
    for (std::size_t v = 0; v < baseline && v < activity_.size(); ++v)
        activity_[v] = v < snapshot.activity.size() ? snapshot.activity[v] : 0.0;
    varInc_ = 1.0;
    // Activities changed under the heap wholesale; rebuild with a bottom-up
    // heapify (heapUpdate only sifts up, which is wrong for decreased keys).
    for (std::size_t i = heap_.size() / 2; i-- > 0;) heapSiftDown(i);

    // Clauses: the same validation as importSharedClauses — skip anything
    // tautological, out of range, or already satisfied at level 0.
    std::size_t integrated = 0;
    std::vector<Lit>& out = simplifyScratch_;
    for (const ImportedClause& imp : snapshot.clauses) {
        std::vector<Lit> lits = imp.lits;
        std::sort(lits.begin(), lits.end());
        out.clear();
        bool skip = lits.empty();
        Lit prev = kUndefLit;
        for (const Lit l : lits) {
            if (l.var() < 0 || l.var() >= numVars() ||
                eliminated_[static_cast<std::size_t>(l.var())] != 0) {
                skip = true;
                break;
            }
            if (l == prev) continue;
            if (prev.isDefined() && l == ~prev) { // tautology: x ∨ ¬x
                skip = true;
                break;
            }
            const lbool v = value(l);
            if (v == lbool::True) { // already satisfied at level 0
                skip = true;
                break;
            }
            if (v == lbool::False) continue; // falsified at level 0: drop
            out.push_back(l);
            prev = l;
        }
        if (skip) continue;
        ++stats_.importedClauses;
        ++integrated;
        if (out.empty()) { // empty under the level-0 assignment: Unsat
            ok_ = false;
            return integrated;
        }
        if (out.size() == 1) {
            if (!enqueue(out[0], Reason::none())) {
                ok_ = false;
                return integrated;
            }
            continue; // propagated by the next propagate() call
        }
        storeClause(out, /*learnt=*/true,
                    std::clamp(imp.lbd, 2, static_cast<int>(out.size())));
    }
    return integrated;
}

// ---------------------------------------------------------------------------
// Branching
// ---------------------------------------------------------------------------

Lit Solver::pickBranchLit() {
    // Eliminated variables are skipped: they have no clauses left, so any
    // branch on them is wasted work, and assigning them would leak into
    // snapshots. restoreEliminated() re-inserts them into the heap.
    while (!heapEmpty()) {
        const Var v = heapPopMax();
        if (value(v) != lbool::Undef || eliminated_[static_cast<std::size_t>(v)] != 0)
            continue;
        const char phase = polarity_[static_cast<std::size_t>(v)];
        return mkLit(v, (phase == kSeedPhase ? initialPhase(opts_.randomSeed, v) : phase) != 0);
    }
    return kUndefLit;
}

// ---------------------------------------------------------------------------
// Main search
// ---------------------------------------------------------------------------

std::int64_t Solver::luby(std::int64_t i) {
    // Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 … (0-indexed), via the
    // MiniSat formulation: find the subsequence containing index i.
    std::int64_t size = 1;
    std::int64_t seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) / 2;
        --seq;
        i %= size;
    }
    return 1LL << seq;
}

SolveResult Solver::solve(std::span<const Lit> assumptions) {
    return solve(assumptions, {});
}

SolveResult Solver::solve(std::span<const Lit> assumptions, const ModelHook& onModel) {
    // Threading contract (see SolverOptions): one solve() at a time.
    expects(!solveActive_.exchange(true, std::memory_order_acq_rel),
            "solve: concurrent solve() on one Solver instance");
    struct ActiveGuard {
        std::atomic<bool>& flag;
        ~ActiveGuard() { flag.store(false, std::memory_order_release); }
    } activeGuard{solveActive_};

    ++stats_.solves;
    prepared_ = false;
    core_.clear();
    if (!ok_) return SolveResult::Unsat;
    expects(!onModel || !assumptions.empty(),
            "solve: an improving hook needs a bound assumption to tighten");
    assumptions_.assign(assumptions.begin(), assumptions.end());
    for (const Lit a : assumptions_)
        expects(a.var() >= 0 && a.var() < numVars(), "solve: unknown assumption var");
    // Assumption variables must keep their identity across simplification:
    // freeze them (restoring any that bounded elimination already removed) so
    // elimination never touches them and unsat cores stay honest.
    for (const Lit a : assumptions_) freeze(a.var());
    if (!ok_) return SolveResult::Unsat;

    removeSatisfiedAtLevelZero();
    if (opts_.importClausesFn && !importSharedClauses()) return SolveResult::Unsat;
    maxLearnts_ = std::max(1000.0, static_cast<double>(numClauses()) * 0.3);
    restartCount_ = 0;
    restartLimit_ = opts_.restartBase * luby(restartCount_);
    conflictsSinceRestart_ = 0;
    solveStart_ = std::chrono::steady_clock::now();
    propagationsAtSolveStart_ = stats_.propagations;

    // Budgets are per-solve: convert relative budgets into absolute caps
    // against the cumulative counters.
    stopReason_ = StopReason::None;
    pendingStop_ = StopReason::None;
    conflictLimit_ =
        opts_.conflictBudget < 0
            ? -1
            : static_cast<std::int64_t>(stats_.conflicts) + opts_.conflictBudget;
    propagationLimit_ = opts_.propagationBudget < 0
                            ? -1
                            : static_cast<std::int64_t>(stats_.propagations) +
                                  opts_.propagationBudget;
    memoryBudgetBytes_ =
        opts_.memoryBudgetMb < 0 ? -1 : opts_.memoryBudgetMb * 1024 * 1024;
    if (opts_.cancelFlag && opts_.cancelFlag->load(std::memory_order_relaxed)) {
        stopReason_ = StopReason::Cancelled;
        return SolveResult::Unknown;
    }
    if (deadlineExpired()) { // a shared deadline spent by earlier calls
        stopReason_ = StopReason::Deadline;
        return SolveResult::Unknown;
    }

    // Imports (snapshot warm-start or portfolio exchange) can arrive already
    // over the learnt-memory cap: reclaim before searching rather than carry
    // an oversized learnt DB into the search loop.
    if (memoryBudgetBytes_ >= 0 &&
        static_cast<std::int64_t>(learntBytes_) > memoryBudgetBytes_) {
        reduceLearntDb();
        garbageCollect();
        if (static_cast<std::int64_t>(learntBytes_) > memoryBudgetBytes_) {
            stopReason_ = StopReason::MemoryBudget;
            return SolveResult::Unknown;
        }
    }

    // Inprocessing round at solve() start; search() schedules further rounds
    // at restart boundaries. Runs after the budget setup so a round respects
    // the deadline/cancellation of the solve it belongs to.
    if (opts_.simplify.enable && simplifyDue()) {
        switch (runSimplifyRound()) {
        case SimplifyOutcome::Unsat:
            return SolveResult::Unsat;
        case SimplifyOutcome::Stop:
            backtrackTo(0);
            stats_.arenaWasteBytes = arena_.wastedWords() * sizeof(std::uint32_t);
            return SolveResult::Unknown;
        case SimplifyOutcome::Done:
            break;
        }
    }

    const SolveResult result = search(onModel);
    backtrackTo(0);
    stats_.arenaWasteBytes = arena_.wastedWords() * sizeof(std::uint32_t);
    return result;
}

bool Solver::deadlineExpired() const {
    return deadline_.has_value() && std::chrono::steady_clock::now() >= *deadline_;
}

StopReason Solver::limitExceeded() const {
    if (opts_.cancelFlag && opts_.cancelFlag->load(std::memory_order_relaxed))
        return StopReason::Cancelled;
    if (deadlineExpired()) return StopReason::Deadline;
    if (conflictLimit_ >= 0 &&
        static_cast<std::int64_t>(stats_.conflicts) >= conflictLimit_)
        return StopReason::ConflictBudget;
    if (propagationLimit_ >= 0 &&
        static_cast<std::int64_t>(stats_.propagations) >= propagationLimit_)
        return StopReason::PropagationBudget;
    return StopReason::None;
}

void Solver::reportProgress() {
    SolverProgress progress;
    progress.conflicts = stats_.conflicts;
    progress.propagations = stats_.propagations;
    progress.decisions = stats_.decisions;
    progress.restarts = stats_.restarts;
    progress.decisionLevel = decisionLevel();
    progress.learntClauses = learnts_.size();
    progress.elapsedMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - solveStart_)
                             .count();
    const double seconds = progress.elapsedMs / 1e3;
    if (seconds > 0.0)
        progress.propagationsPerSec =
            static_cast<double>(stats_.propagations - propagationsAtSolveStart_) /
            seconds;
    opts_.progressFn(progress);
}

SolveResult Solver::search(const ModelHook& onModel) {
    std::vector<Lit> learnt;

    while (true) {
        const Conflict conflict = propagate();
        if (pendingStop_ != StopReason::None) {
            // A limit tripped mid-propagation; the queue is left partially
            // processed (the next solve() resumes it from qhead_).
            stopReason_ = pendingStop_;
            pendingStop_ = StopReason::None;
            backtrackTo(0);
            return SolveResult::Unknown;
        }
        if (conflict.found()) {
            ++stats_.conflicts;
            ++conflictsSinceRestart_;
            if (opts_.progressEvery > 0 && opts_.progressFn &&
                stats_.conflicts %
                        static_cast<std::uint64_t>(opts_.progressEvery) ==
                    0)
                reportProgress();
            // Every conflict polls every limit: budgets, deadline, and the
            // cancellation flag share one cadence.
            if (const StopReason stop = limitExceeded();
                stop != StopReason::None) {
                stopReason_ = stop;
                backtrackTo(0);
                return SolveResult::Unknown;
            }
            if (decisionLevel() == 0) {
                ok_ = false;
                return SolveResult::Unsat;
            }
            int backtrackLevel = 0;
            int lbd = 0;
            analyze(conflict, learnt, backtrackLevel, lbd);
            // Learnt clauses are implied by the clause database alone (never
            // by the assumptions), so sharing them with a portfolio sibling
            // built from the same database is sound.
            if (opts_.exportClauseFn &&
                (lbd <= opts_.shareLbdMax ||
                 static_cast<int>(learnt.size()) <= opts_.shareSizeMax)) {
                opts_.exportClauseFn(learnt, lbd);
                ++stats_.exportedClauses;
            }
            backtrackTo(backtrackLevel);
            if (learnt.size() == 1) {
                enqueue(learnt[0], Reason::none());
            } else if (learnt.size() == 2) {
                attachBinary(learnt[0], learnt[1], /*learnt=*/true);
                enqueue(learnt[0], Reason::binary(learnt[1]));
            } else {
                const ClauseRef ref = arena_.alloc(learnt, /*learnt=*/true, lbd);
                learnts_.push_back(ref);
                attachClause(ref);
                clauseBumpActivity(ref);
                learntBytes_ += arena_.footprintBytes(ref);
                enqueue(learnt[0], Reason::clause(ref));
            }
            varDecayActivity();
            clauseDecayActivity();

            if (memoryBudgetBytes_ >= 0 &&
                static_cast<std::int64_t>(learntBytes_) > memoryBudgetBytes_) {
                // Over the learnt-memory cap: reduce the DB and compact the
                // arena (the budget caps live bytes, but reclaiming the freed
                // words is the point of capping); if everything left is glue
                // or locked, give up rather than grow further.
                reduceLearntDb();
                garbageCollect();
                if (static_cast<std::int64_t>(learntBytes_) >
                    memoryBudgetBytes_) {
                    stopReason_ = StopReason::MemoryBudget;
                    backtrackTo(0);
                    return SolveResult::Unknown;
                }
            }

            if (conflictsSinceRestart_ >= restartLimit_) {
                ++stats_.restarts;
                ++restartCount_;
                restartLimit_ = opts_.restartBase * luby(restartCount_);
                conflictsSinceRestart_ = 0;
                backtrackTo(0);
                if (opts_.importClausesFn && !importSharedClauses())
                    return SolveResult::Unsat;
                // Inprocessing between restarts, once enough conflicts have
                // accumulated since the previous round.
                if (opts_.simplify.enable && simplifyDue()) {
                    switch (runSimplifyRound()) {
                    case SimplifyOutcome::Unsat:
                        return SolveResult::Unsat;
                    case SimplifyOutcome::Stop:
                        backtrackTo(0);
                        return SolveResult::Unknown;
                    case SimplifyOutcome::Done:
                        break;
                    }
                }
            }
            if (static_cast<double>(learnts_.size()) >= maxLearnts_) {
                reduceLearntDb();
                maybeGarbageCollect();
                maxLearnts_ *= 1.3;
            }
            continue;
        }

        // No conflict: place assumptions, then decide.
        if (decisionLevel() < static_cast<int>(assumptions_.size())) {
            const Lit a = assumptions_[static_cast<std::size_t>(decisionLevel())];
            const lbool v = value(a);
            if (v == lbool::True) {
                newDecisionLevel(); // dummy level to keep alignment
                continue;
            }
            if (v == lbool::False) {
                analyzeFinal(a);
                return SolveResult::Unsat;
            }
            ++stats_.decisions;
            newDecisionLevel();
            enqueue(a, Reason::none());
            continue;
        }

        if ((stats_.decisions & 255) == 0) {
            if (const StopReason stop = limitExceeded();
                stop != StopReason::None) {
                stopReason_ = stop;
                backtrackTo(0);
                return SolveResult::Unknown;
            }
        }
        const Lit next = pickBranchLit();
        if (!next.isDefined()) {
            model_ = assigns_;
            extendModel();
            if (!onModel) return SolveResult::Sat;
            const std::optional<Lit> tighter = onModel();
            if (!tighter.has_value()) return SolveResult::Sat;
            expects(tighter->var() >= 0 && tighter->var() < numVars() &&
                        isFrozen(tighter->var()),
                    "solve: improving hook returned an unfrozen literal");
            // Swap in the tighter bound and resume just above it: the
            // learnt clauses and the trail below the bound stay valid.
            assumptions_.back() = *tighter;
            backtrackTo(static_cast<int>(assumptions_.size()) - 1);
            continue;
        }
        ++stats_.decisions;
        newDecisionLevel();
        enqueue(next, Reason::none());
    }
}

// ---------------------------------------------------------------------------
// Inprocessing (see src/sat/simplify/)
// ---------------------------------------------------------------------------

void Solver::freeze(Var v) {
    expects(v >= 0 && v < numVars(), "freeze: unknown variable");
    frozen_[static_cast<std::size_t>(v)] = 1;
    // Freezing an already-eliminated variable re-activates it: the caller is
    // about to rely on its identity (assumption, exported literal).
    if (eliminated_[static_cast<std::size_t>(v)] != 0) restoreEliminated(v);
}

bool Solver::simplifyDue() const {
    if (!simplifiedOnce_) return true;
    return static_cast<std::int64_t>(stats_.conflicts -
                                     conflictsAtLastSimplify_) >=
           opts_.simplify.conflictInterval;
}

Solver::SimplifyOutcome Solver::runSimplifyRound() {
    expects(decisionLevel() == 0, "simplify: requires decision level 0");
    if (!ok_) return SimplifyOutcome::Unsat;
    const auto start = std::chrono::steady_clock::now();
    // Effort-proportional scheduling: a round's tick budget grows with the
    // search effort since the previous round, so a query the search answers
    // in milliseconds pays only a cheap first round while a long-running
    // solve earns progressively larger ones. simplify.tickBudget stays the
    // hard per-round cap (< 0 = unlimited, and then no scaling either).
    constexpr std::int64_t kRoundBaseTicks = 200'000;
    constexpr std::int64_t kRoundTicksPerConflict = 400;
    std::int64_t tickLimit = opts_.simplify.tickBudget;
    if (tickLimit >= 0) {
        const std::int64_t sinceLast =
            simplifiedOnce_ ? static_cast<std::int64_t>(
                                  stats_.conflicts - conflictsAtLastSimplify_)
                            : 0;
        tickLimit = std::min(
            tickLimit, kRoundBaseTicks + kRoundTicksPerConflict * sinceLast);
    }
    simplifiedOnce_ = true;
    conflictsAtLastSimplify_ = stats_.conflicts;
    // Probing/vivification open temporary decision levels; those are working
    // state, not search depth — keep the stat honest.
    const std::uint64_t savedMaxLevel = stats_.maxDecisionLevel;
    Simplifier simplifier(*this, tickLimit);
    const SimplifyOutcome outcome = simplifier.run();
    stats_.maxDecisionLevel = savedMaxLevel;
    stats_.simplifyMs += std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    ++stats_.simplifyRounds;
    if (outcome == SimplifyOutcome::Done) maybeGarbageCollect();
    return outcome;
}

bool Solver::simplify() {
    expects(!solveActive_.load(std::memory_order_acquire),
            "simplify: called while solve() is active");
    expects(decisionLevel() == 0, "simplify: requires decision level 0");
    if (!ok_) return false;
    // This entry runs outside any solve(): clear leftover per-solve limits so
    // the round is bounded only by its tick budget, the configured memory
    // budget, the setDeadline() deadline and the cancellation flag.
    conflictLimit_ = -1;
    propagationLimit_ = -1;
    pendingStop_ = StopReason::None;
    stopReason_ = StopReason::None;
    memoryBudgetBytes_ =
        opts_.memoryBudgetMb < 0 ? -1 : opts_.memoryBudgetMb * 1024 * 1024;
    removeSatisfiedAtLevelZero();
    if (!ok_) return false;
    const SimplifyOutcome outcome = runSimplifyRound();
    backtrackTo(0);
    return outcome != SimplifyOutcome::Unsat && ok_;
}

bool Solver::prepare() {
    expects(stats_.solves == 0 && !simplifiedOnce_,
            "prepare: call once, before the first solve()");
    // No search has run, so every phase is still the seed's: mark them so,
    // and the image can tell the phases the round saves from the rest.
    std::fill(polarity_.begin(), polarity_.end(), kSeedPhase);
    if (opts_.simplify.enable && !simplify()) return false;
    if (!ok_ || stopReason_ != StopReason::None ||
        stats_.lastSimplifyStop == SimplifyStop::Memory)
        return false;
    // Level-0 reasons are never read again; a clone starts without them.
    for (const Lit l : trail_) varData_[static_cast<std::size_t>(l.var())] = {};
    attachCanonical(flatBinaries());
    prepared_ = true;
    return true;
}

std::vector<Solver::FlatBinary> Solver::flatBinaries() const {
    // Entry {other} in list j belongs to the clause (¬Lit(j) ∨ other) and
    // is mirrored once in each direction; emit the ordered one of the pair.
    std::vector<FlatBinary> out;
    out.reserve(stats_.binaryClauses);
    for (std::size_t j = 0; j < binWatches_.size(); ++j) {
        const Lit a = ~Lit::fromIndex(static_cast<std::int32_t>(j));
        for (const BinWatcher& bw : binWatches_[j])
            if (a.index() < bw.other.index()) out.push_back({a, bw.other, bw.learnt});
    }
    return out;
}

void Solver::attachCanonical(std::span<const FlatBinary> binaries) {
    // The order a prepared solver and each of its clones search from: every
    // long clause watched by its first two literals in clause-list order,
    // every binary attached in the given order. flatBinaries() of the
    // result is `binaries` again, so image() can re-read it.
    std::vector<std::uint32_t> watched(watches_.size(), 0);
    std::vector<std::uint32_t> implied(binWatches_.size(), 0);
    for (const std::vector<ClauseRef>* list : {&clauses_, &learnts_}) {
        for (const ClauseRef ref : *list) {
            ++watched[static_cast<std::size_t>((~arena_.lit(ref, 0)).index())];
            ++watched[static_cast<std::size_t>((~arena_.lit(ref, 1)).index())];
        }
    }
    for (const FlatBinary& bin : binaries) {
        ++implied[static_cast<std::size_t>((~bin.a).index())];
        ++implied[static_cast<std::size_t>((~bin.b).index())];
    }
    for (std::size_t j = 0; j < watches_.size(); ++j) {
        watches_[j].clear();
        watches_[j].reserve(watched[j]);
        binWatches_[j].clear();
        binWatches_[j].reserve(implied[j]);
    }
    for (const ClauseRef ref : clauses_) attachClause(ref);
    for (const ClauseRef ref : learnts_) attachClause(ref);
    for (const FlatBinary& bin : binaries) {
        binWatches_[static_cast<std::size_t>((~bin.a).index())].push_back({bin.b, bin.learnt});
        binWatches_[static_cast<std::size_t>((~bin.b).index())].push_back({bin.a, bin.learnt});
    }
}

namespace {

void putVarint(std::vector<std::uint8_t>& out, std::uint64_t value) {
    while (value >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(value | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t getVarint(const std::uint8_t*& in) {
    std::uint64_t value = 0;
    for (int shift = 0;; shift += 7) {
        const std::uint8_t byte = *in++;
        value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if (byte < 0x80) return value;
    }
}

} // namespace

SolverImage Solver::image() const {
    expects(prepared_ && learnts_.empty(),
            "image: only directly after a successful prepare()");
    const std::size_t n = assigns_.size();
    // Untouched before the first search: zero activities, identity heap.
    bool identityHeap = heap_.size() == n;
    for (std::size_t i = 0; identityHeap && i < n; ++i)
        identityHeap = heap_[i] == static_cast<Var>(i);
    expects(identityHeap, "image: branching heap moved before the first search");
    SolverImage image;
    image.numVars = numVars();
    for (const ClauseRef ref : clauses_) {
        const std::uint32_t size = arena_.size(ref);
        putVarint(image.clauses, size);
        for (std::uint32_t k = 0; k < size; ++k)
            putVarint(image.clauses, static_cast<std::uint32_t>(arena_.lit(ref, k).index()));
        image.arenaWords += ClauseArena::kHeaderWords + size;
    }
    std::int32_t previous = 0;
    for (const FlatBinary& bin : flatBinaries()) {
        const std::int32_t list = (~bin.a).index();
        putVarint(image.binaries, static_cast<std::uint32_t>(list - previous));
        putVarint(image.binaries, static_cast<std::uint64_t>(bin.b.index()) << 1 | bin.learnt);
        previous = list;
    }
    image.clauses.shrink_to_fit();
    image.binaries.shrink_to_fit();
    image.units = trail_;
    image.qhead = qhead_;
    image.trailAtLastSweep = trailAtLastSweep_;
    image.polarity = polarity_;
    image.frozen = frozen_;
    image.eliminated = eliminated_;
    image.extender = extender_;
    image.elimStash = elimStash_;
    return image;
}

std::size_t SolverImage::bytes() const {
    return clauses.size() + binaries.size() + units.size() * sizeof(Lit) +
           polarity.size() + frozen.size() + eliminated.size() +
           extender.bytes() + elimStash.bytes();
}

Solver::Solver(const SolverImage& image, const SolverOptions& options)
    : opts_(options),
      trail_(image.units),
      qhead_(image.qhead),
      trailAtLastSweep_(image.trailAtLastSweep),
      frozen_(image.frozen),
      eliminated_(image.eliminated),
      extender_(image.extender),
      elimStash_(image.elimStash),
      simplifiedOnce_(true),
      prepared_(true) {
    const auto n = static_cast<std::size_t>(image.numVars);
    assigns_.assign(n, lbool::Undef);
    for (const Lit l : trail_)
        assigns_[static_cast<std::size_t>(l.var())] = fromBool(!l.sign());
    varData_.assign(n, {});
    polarity_ = image.polarity;
    activity_.assign(n, 0.0);
    heap_.resize(n);
    heapIndex_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        heap_[i] = static_cast<Var>(i);
        heapIndex_[i] = static_cast<int>(i);
    }
    seen_.assign(n, 0);
    for (const char e : eliminated_) numEliminated_ += e != 0 ? 1 : 0;

    const std::uint8_t* in = image.clauses.data();
    const std::uint8_t* end = in + image.clauses.size();
    std::vector<Lit>& lits = simplifyScratch_;
    arena_.reserveWords(image.arenaWords);
    while (in < end) {
        lits.resize(getVarint(in));
        for (Lit& l : lits) l = Lit::fromIndex(static_cast<std::int32_t>(getVarint(in)));
        clauses_.push_back(arena_.alloc(lits, /*learnt=*/false, /*lbd=*/0));
    }
    std::vector<FlatBinary> binaries;
    in = image.binaries.data();
    end = in + image.binaries.size();
    std::int32_t list = 0;
    while (in < end) {
        list += static_cast<std::int32_t>(getVarint(in));
        const std::uint64_t code = getVarint(in);
        binaries.push_back({~Lit::fromIndex(list),
                            Lit::fromIndex(static_cast<std::int32_t>(code >> 1)),
                            static_cast<std::uint32_t>(code & 1)});
        learntBytes_ += (code & 1) * kBinaryBytes;
        binaryProblem_ += 1 - (code & 1);
    }
    stats_.binaryClauses = binaries.size();
    watches_.resize(2 * n);
    binWatches_.resize(2 * n);
    attachCanonical(binaries);
}

void Solver::restoreForLits(std::span<const Lit> lits) {
    for (const Lit l : lits) {
        if (l.var() < 0 || l.var() >= numVars()) continue; // addClause rejects
        if (eliminated_[static_cast<std::size_t>(l.var())] != 0)
            restoreEliminated(l.var());
        if (!ok_) return;
    }
}

void Solver::restoreEliminated(Var v) {
    // Re-activate `v`: drop its reconstruction entries, re-add its original
    // clauses, and cascade to any other eliminated variables those clauses
    // mention (their reconstruction entries would otherwise disagree with the
    // re-added clauses). The previously added resolvents stay — they are
    // implied by the originals, so the formula remains equivalent.
    prepared_ = false;
    std::vector<Var> work{v};
    std::vector<std::vector<Lit>> toAdd;
    while (!work.empty()) {
        const Var x = work.back();
        work.pop_back();
        if (eliminated_[static_cast<std::size_t>(x)] == 0) continue;
        eliminated_[static_cast<std::size_t>(x)] = 0;
        --numEliminated_;
        ++stats_.restoredVars;
        extender_.removeVar(x);
        if (heapIndex_[static_cast<std::size_t>(x)] < 0 &&
            value(x) == lbool::Undef)
            heapInsert(x);
        const std::size_t first = toAdd.size();
        elimStash_.take(x, toAdd);
        for (std::size_t i = first; i < toAdd.size(); ++i)
            for (const Lit l : toAdd[i])
                if (eliminated_[static_cast<std::size_t>(l.var())] != 0)
                    work.push_back(l.var());
    }
    // Integrate through the internal path: restoration is not a formula
    // change, so the snapshot baseline counter must not move.
    for (std::vector<Lit>& clause : toAdd)
        if (!addClauseInternal(std::move(clause))) return; // ok_ cleared
}

void Solver::extendModel() {
    if (!extender_.empty()) extender_.extend(model_);
}

bool Solver::modelValue(Var v) const {
    expects(static_cast<std::size_t>(v) < model_.size(),
            "modelValue: no model for variable");
    // Variables never assigned in the model are free; report false.
    return model_[static_cast<std::size_t>(v)] == lbool::True;
}

void Solver::setOptions(const SolverOptions& options) {
    // Enforced half of the threading contract: options are immutable while a
    // solve() is in flight (the search reads them without synchronization).
    if (solveActive_.load(std::memory_order_acquire))
        throw LogicError("Solver::setOptions: called while solve() is active");
    opts_ = options;
}

} // namespace lar::sat
