// CDCL SAT solver.
//
// A from-scratch conflict-driven clause-learning solver in the MiniSat
// lineage, providing the substrate the paper's "shim layer over SAT solvers"
// builds on. Features:
//
//   * clause storage split by length: long clauses packed in a 32-bit-ref
//     ClauseArena with inline headers (size/LBD/activity), binary clauses in
//     a dedicated implication graph that never touches the watch lists,
//   * two-watched-literal propagation with blocker literals and {ClauseRef,
//     blocker} watcher entries (8 bytes each),
//   * first-UIP conflict analysis over tagged reasons (arena ref or binary
//     implying literal) with learned-clause minimization,
//   * EVSIDS variable activities on a binary heap, phase saving,
//   * Luby restarts, LBD-based learned-clause database reduction, arena
//     compaction (garbage collection) once the freed fraction crosses a
//     threshold, exact learnt-memory accounting for the memory budget,
//   * incremental solving under assumptions with unsat-core extraction
//     (failed-assumption analysis), plus a solution-improving solve that
//     tightens its last assumption on every model (linear optimization in
//     one search), and
//   * an inprocessing pipeline (src/sat/simplify/) run at solve() start and
//     at restart boundaries, and
//   * prepared images: prepare() runs the first inprocessing round ahead of
//     any search; image() copies the result into a flat SolverImage from
//     which Solver(image, options) clones a solver in exactly that state,
//     without replaying the encoding or the round.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sat/arena.hpp"
#include "sat/clause.hpp"
#include "sat/simplify/extender.hpp"
#include "sat/simplify/options.hpp"
#include "sat/types.hpp"

namespace lar::sat {

/// Outcome of a solve() call. Unknown is only returned when a budget,
/// deadline, or cancellation flag is set (see Solver::stopReason()).
enum class SolveResult { Sat, Unsat, Unknown };

/// Why the last solve() returned Unknown (None after Sat/Unsat).
enum class StopReason {
    None,
    ConflictBudget,
    PropagationBudget,
    MemoryBudget,
    Deadline,
    Cancelled,
};

/// Human-readable StopReason name ("conflict_budget", "deadline", …).
[[nodiscard]] const char* toString(StopReason reason);

/// Why the most recent inprocessing round stopped early (None when every
/// scheduled round ran to completion). A budget-stopped round is not an
/// error — the search simply continues on the partially simplified formula.
enum class SimplifyStop : std::uint8_t { None, Ticks, Memory };

/// Human-readable SimplifyStop name ("none", "ticks", "memory").
[[nodiscard]] const char* toString(SimplifyStop stop);

/// Search statistics, reset per solver instance.
struct SolverStats {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learntLiterals = 0;
    std::uint64_t removedClauses = 0;
    std::uint64_t solves = 0;
    std::uint64_t maxDecisionLevel = 0; ///< deepest decision level reached
    /// LIVE binary clauses in the implication graph (problem + learnt).
    /// Grows on attach and shrinks when level-0 simplification removes
    /// satisfied binaries — a gauge, not the historic creation counter.
    std::uint64_t binaryClauses = 0;
    std::uint64_t lbdSum = 0; ///< Σ LBD over learned clauses (avg = lbdSum/conflicts)
    std::uint64_t exportedClauses = 0; ///< learnt clauses offered via exportClauseFn
    std::uint64_t importedClauses = 0; ///< foreign clauses integrated via importClausesFn
    std::uint64_t arenaGcs = 0; ///< clause-arena compaction passes performed

    // -- inprocessing (see src/sat/simplify/) -------------------------------
    std::uint64_t simplifyRounds = 0;      ///< completed or budget-stopped rounds
    std::uint64_t subsumedClauses = 0;     ///< clauses removed by subsumption
    std::uint64_t strengthenedClauses = 0; ///< self-subsuming resolution hits
    std::uint64_t vivifiedClauses = 0;     ///< clauses shrunk/removed by vivification
    std::uint64_t probedLiterals = 0;      ///< failed-literal probes attempted
    std::uint64_t failedLiterals = 0;      ///< probes that yielded a level-0 unit
    std::uint64_t hyperBinaries = 0;       ///< binaries added by hyper-binary resolution
    std::uint64_t equivalentLiterals = 0;  ///< literals substituted by their SCC root
    std::uint64_t eliminatedVars = 0;      ///< variables removed by bounded elimination
    std::uint64_t restoredVars = 0;        ///< eliminated vars re-activated by new clauses
    std::uint64_t simplifyStops = 0;       ///< rounds halted by the tick/memory budget
    double simplifyMs = 0.0;               ///< total wall time spent simplifying
    SimplifyStop lastSimplifyStop = SimplifyStop::None;
    /// Arena words freed but not yet compacted, in bytes (gauge, sampled at
    /// the end of each solve()).
    std::uint64_t arenaWasteBytes = 0;
};

/// A learnt clause received from another solver in a portfolio (see
/// SolverOptions::importClausesFn). Literals use this solver's variable
/// numbering — sharing is only sound between solvers built from the
/// identical clause database (same variables, same addClause sequence).
struct ImportedClause {
    std::vector<Lit> lits;
    int lbd = 0;
};

/// Warm-start state exported from one solver and importable into another
/// built from the IDENTICAL clause database (the same newVar()/addClause()
/// sequence — e.g. a deterministic replay of the same compilation, which is
/// exactly what a fingerprint-keyed compilation cache guarantees). The
/// soundness argument mirrors portfolio clause exchange: learnt clauses are
/// derived by resolution over the clause database alone — assumption
/// literals may appear in them but never condition them — so they are
/// implied by the problem clauses and preserve every verdict when replayed
/// into an identically-built solver. Phase polarity and branching activity
/// are pure heuristic state and can never change semantics. Snapshots are
/// only exportable while the clause database still equals the baseline
/// (see Solver::markSnapshotBaseline); a solver that grew clauses past it
/// (optimization counters, bound assertions, blocking clauses) refuses.
struct SolverSnapshot {
    int numVars = 0;                     ///< variable count at the baseline
    std::vector<ImportedClause> clauses; ///< short learnt clauses + level-0 units
    /// Saved phases, one per baseline var (Solver::kSeedPhase: the
    /// importer's own seed decides).
    std::vector<char> polarity;
    std::vector<double> activity;        ///< activities normalized to max 1.0

    /// An empty snapshot means "nothing to warm-start from" (export refused
    /// or the solver had learnt nothing exportable).
    [[nodiscard]] bool empty() const { return numVars == 0; }
};

/// Immutable, compact image of a prepared solver (Solver::prepare): the CNF
/// after its first inprocessing round plus the search state that round
/// left behind — clause and literal order, saved phases, the level-0 trail
/// — so a clone (Solver(image, options)) searches exactly like the solver
/// the image was taken from. Both rebuild their watch and binary lists the
/// same canonical way from the flat clause and binary lists. Clauses and
/// binaries are varint byte streams that never mention arena offsets.
/// There are no learnt long clauses, activities or heap order to keep:
/// prepare() runs before any search, where those still have their initial
/// values.
struct SolverImage {
    int numVars = 0;
    /// Long clauses in clause-list order: length, then literal codes.
    std::vector<std::uint8_t> clauses;
    std::size_t arenaWords = 0; ///< arena words those clauses occupy
    /// Binary clauses (a ∨ b), a.index() < b.index(), by ascending ¬a: per
    /// clause (¬a).index() as a delta from the previous one, then
    /// b.index() << 1 | learnt.
    std::vector<std::uint8_t> binaries;
    std::vector<Lit> units;   ///< the level-0 trail
    std::size_t qhead = 0;    ///< propagation queue head on it
    std::size_t trailAtLastSweep = 0;
    /// Saved phases: 0/1 where the round left one, Solver::kSeedPhase where
    /// the clone's own seed decides (as newVar() would).
    std::vector<char> polarity;
    std::vector<char> frozen;
    std::vector<char> eliminated;
    Extender extender;     ///< model reconstruction for eliminated vars
    VarClauses elimStash;  ///< eliminated vars' original clauses

    /// Exact heap bytes held (every buffer is allocated to size).
    [[nodiscard]] std::size_t bytes() const;
};

/// Snapshot handed to SolverOptions::progressFn every `progressEvery`
/// conflicts while search() runs — the raw feed for progress dashboards and
/// stall/timeout early warning.
struct SolverProgress {
    std::uint64_t conflicts = 0;
    std::uint64_t propagations = 0;
    std::uint64_t decisions = 0;
    std::uint64_t restarts = 0;
    int decisionLevel = 0;          ///< at the probed conflict
    std::size_t learntClauses = 0;  ///< learnt-DB size
    double elapsedMs = 0.0;         ///< since the enclosing solve() began
    double propagationsPerSec = 0.0; ///< over the current solve() call
};

/// Search knobs, budgets and hooks; defaults are the full CDCL configuration.
struct SolverOptions {
    bool usePhaseSaving = true; ///< remember last polarity per variable
    double varDecay = 0.95;
    double clauseDecay = 0.999;
    int restartBase = 100;          ///< conflicts per Luby unit
    std::int64_t conflictBudget = -1; ///< -1 = unlimited; else Unknown on exhaustion
    /// Propagation budget per solve() call; -1 = unlimited. Bounds work even
    /// on instances that propagate heavily without conflicting or deciding.
    std::int64_t propagationBudget = -1;
    /// Cap on live learnt-clause memory (arena clauses + learnt binaries) in
    /// MiB; -1 = unlimited. Accounting is exact arena arithmetic. When
    /// learning pushes past the cap the solver forces a database reduction
    /// and an arena compaction; if still over (everything left is glue or
    /// locked), it stops with Unknown.
    std::int64_t memoryBudgetMb = -1;
    /// Cooperative cancellation: when non-null, the solver polls this flag on
    /// the same cadence as the deadline (every conflict, every 256 decisions,
    /// and periodically inside long propagation streaks) and returns Unknown
    /// with StopReason::Cancelled shortly after it becomes true. The flag is
    /// owned by the caller and may be flipped from any thread.
    const std::atomic<bool>* cancelFlag = nullptr;
    /// Nonzero: initial phase of each variable is drawn deterministically
    /// from this seed instead of the all-false default. The search stays
    /// reproducible for a fixed seed; 0 keeps the classic polarity.
    std::uint64_t randomSeed = 0;
    /// Fire `progressFn` every this many conflicts (0 = never). Observation
    /// only — the callback cannot influence the search, so verdicts and
    /// models are identical with probes on or off.
    std::int64_t progressEvery = 0;
    std::function<void(const SolverProgress&)> progressFn;

    // -- portfolio clause sharing (see smt::PortfolioBackend) ---------------
    //
    // Threading contract: a Solver is strictly single-threaded. solve() must
    // never run concurrently on one instance (asserted), options must not be
    // mutated while a solve() is in flight (setOptions() enforces this), and
    // every callback — progressFn, exportClauseFn, importClausesFn — is
    // invoked on the thread that called solve(). The only member safely
    // touched from other threads during a solve is the atomic behind
    // `cancelFlag`. Cross-thread clause exchange therefore happens inside
    // the callbacks (e.g. through a lock-free sat::ClauseExchange), never by
    // poking the solver directly.

    /// Called (on the solving thread) for each learnt clause that passes the
    /// sharing filter `lbd <= shareLbdMax || size <= shareSizeMax`. The span
    /// is only valid for the duration of the call.
    std::function<void(std::span<const Lit>, int)> exportClauseFn;
    /// Called (on the solving thread) at solve() start and at every restart
    /// boundary, always at decision level 0. Appends foreign learnt clauses;
    /// each is checked against the current level-0 assignment before being
    /// attached (satisfied → skipped, falsified literals → dropped, empty
    /// remainder → Unsat, unit → enqueued at level 0). Binary imports land
    /// in the implication graph.
    std::function<void(std::vector<ImportedClause>&)> importClausesFn;
    /// Sharing filter: export learnt clauses with LBD at most this…
    int shareLbdMax = 4;
    /// …or with at most this many literals (short clauses prune a lot even
    /// when their LBD is poor).
    int shareSizeMax = 2;

    /// Inprocessing pipeline knobs (subsumption, vivification, probing,
    /// equivalence substitution, bounded variable elimination). Rounds run
    /// at solve() start and at restart boundaries, budgeted by
    /// simplify.tickBudget and the solver memory budget.
    SimplifyOptions simplify;
};

class Solver {
public:
    Solver() = default;
    explicit Solver(const SolverOptions& options) : opts_(options) {}
    /// Clones the prepared solver `image` was taken from (see SolverImage),
    /// under `options`: phases the round did not save follow
    /// options.randomSeed exactly as newVar() would set them, and the
    /// statistics start at zero apart from the live-binary gauge, so they
    /// count only this solver's work.
    Solver(const SolverImage& image, const SolverOptions& options);

    /// Saved-phase value meaning "the initial phase newVar() gives under
    /// SolverOptions::randomSeed", resolved when the variable is branched on.
    static constexpr char kSeedPhase = 2;

    Solver(const Solver&) = delete;
    Solver& operator=(const Solver&) = delete;

    /// Creates a fresh variable and returns it.
    Var newVar();

    /// Number of variables created so far.
    [[nodiscard]] int numVars() const { return static_cast<int>(assigns_.size()); }

    /// Number of problem (non-learnt) clauses currently held (long clauses
    /// in the arena plus problem binaries in the implication graph).
    [[nodiscard]] std::size_t numClauses() const {
        return clauses_.size() + binaryProblem_;
    }

    /// Adds a clause (vector is consumed). Returns false when the clause
    /// makes the formula trivially unsatisfiable (empty after simplification
    /// or contradicting a level-0 assignment); the solver is then unusable
    /// except for solve(), which reports Unsat.
    bool addClause(std::vector<Lit> lits);

    /// Convenience overloads.
    bool addClause(Lit a) { return addClause(std::vector<Lit>{a}); }
    bool addClause(Lit a, Lit b) { return addClause(std::vector<Lit>{a, b}); }
    bool addClause(Lit a, Lit b, Lit c) { return addClause(std::vector<Lit>{a, b, c}); }

    /// Solves the formula under the given assumptions (may be empty). The
    /// solver stays usable afterwards: more clauses/vars can be added and
    /// solve() called again (incremental use). Strictly single-threaded:
    /// concurrent solve() calls on one instance are rejected (LogicError) —
    /// see the threading contract above the sharing hooks in SolverOptions.
    SolveResult solve(std::span<const Lit> assumptions = {});

    /// Solution-improving solve. Each time the search reaches a full
    /// assignment, the model is stored (modelValue() reads it) and `onModel`
    /// is asked for a tighter replacement of the LAST assumption. A literal
    /// overwrites that assumption, the search backtracks to just above it
    /// and continues; std::nullopt ends the call with Sat. Unsat or Unknown
    /// later leave the last stored model loaded — it is the best one found.
    /// Sound because learnt clauses never depend on assumptions; restarts
    /// and inprocessing rounds simply re-place the current bound. The hook
    /// runs at a non-zero decision level, so it must not add clauses or
    /// variables, and every literal it returns must be over an existing,
    /// frozen variable (see freeze()). `assumptions` must be non-empty.
    using ModelHook = std::function<std::optional<Lit>()>;
    SolveResult solve(std::span<const Lit> assumptions, const ModelHook& onModel);

    /// Model access after Sat: value assigned to `v` in the last model.
    [[nodiscard]] bool modelValue(Var v) const;
    [[nodiscard]] bool modelValue(Lit l) const { return modelValue(l.var()) != l.sign(); }

    /// After Unsat under assumptions: a subset of the assumptions that is
    /// already unsatisfiable with the clauses (the "failed assumptions").
    [[nodiscard]] const std::vector<Lit>& unsatCore() const { return core_; }

    /// True when the clause set became unsatisfiable at level 0.
    [[nodiscard]] bool inconsistent() const { return !ok_; }

    [[nodiscard]] const SolverStats& stats() const { return stats_; }

    /// Why the most recent solve() returned Unknown; None after Sat/Unsat.
    [[nodiscard]] StopReason stopReason() const { return stopReason_; }

    [[nodiscard]] const SolverOptions& options() const { return opts_; }

    /// Fixes an absolute wall-clock deadline that every later solve(),
    /// simplify() and prepare() honours; nullopt (the default) clears it.
    /// Checked at conflicts and periodically at decisions, so expiry
    /// returns Unknown within a few propagation batches of it. Work spread
    /// over several calls (an optimize or enumerate query) thus shares one
    /// deadline instead of a fresh budget per call.
    void setDeadline(std::optional<std::chrono::steady_clock::time_point> deadline) {
        deadline_ = deadline;
    }

    /// Replaces the solver options wholesale. Throws LogicError when a
    /// solve() is in flight on this instance — the threading contract
    /// (options are immutable during a solve) is enforced here, not merely
    /// documented. Call strictly between solver calls.
    void setOptions(const SolverOptions& options);

    /// Exact bytes of live learnt state (arena clauses + learnt binaries);
    /// this is what `memoryBudgetMb` caps.
    [[nodiscard]] std::size_t learntMemoryBytes() const { return learntBytes_; }

    // -- warm-start snapshots ----------------------------------------------

    /// Marks the current formula as the snapshot baseline: exportSnapshot()
    /// only succeeds while no addClause() has happened past this point.
    /// Clauses added later (PB counters, optimization bound assertions,
    /// blocking clauses) would make subsequently-learnt clauses conditional
    /// on them, so exporting then would be unsound for a solver that only
    /// replays the baseline. Call it right after the initial encoding.
    void markSnapshotBaseline();

    /// Exports warm-start state for a solver built from the identical clause
    /// database. Returns an empty snapshot when no baseline was marked, the
    /// clause database grew past the baseline, or the formula is already
    /// inconsistent. Exported learnt clauses pass the sharing filter
    /// (shareLbdMax/shareSizeMax), mention baseline variables only, and are
    /// capped at `maxClauses`; learnt binaries export straight from the
    /// implication graph; level-0 implied literals are exported as unit
    /// clauses (they are consequences of the clause set — assumptions only
    /// ever sit at decision levels >= 1).
    [[nodiscard]] SolverSnapshot exportSnapshot(std::size_t maxClauses = 4096) const;

    /// Imports warm-start state at decision level 0, before solving starts.
    /// Clauses are validated exactly like portfolio imports (unknown vars
    /// skip the clause, tautologies and satisfied clauses are skipped,
    /// falsified literals are dropped, units enqueue at level 0, an empty
    /// remainder makes the formula Unsat); polarity/activity prefixes are
    /// adopted and the branching heap is rebuilt. A snapshot from a
    /// different variable space (numVars mismatch) is refused. Returns the
    /// number of clauses integrated (0 on refusal).
    std::size_t importSnapshot(const SolverSnapshot& snapshot);

    /// Current value of a variable/literal in the solver trail (Undef when
    /// unassigned). Exposed for encoder-level propagation checks in tests.
    [[nodiscard]] lbool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
    [[nodiscard]] lbool value(Lit l) const {
        const lbool v = value(l.var());
        return l.sign() ? ~v : v;
    }

    // -- inprocessing -------------------------------------------------------

    /// Marks `v` as ineligible for variable elimination, permanently. Callers
    /// freeze every variable whose identity must survive simplification:
    /// assumption variables (done automatically by solve()), literals exported
    /// to the outside world (KB nodes, selectors), warm-start variables.
    void freeze(Var v);
    [[nodiscard]] bool isFrozen(Var v) const {
        return frozen_[static_cast<std::size_t>(v)] != 0;
    }
    /// True while `v` is eliminated from the active formula. An eliminated
    /// variable is restored automatically when a new clause or assumption
    /// mentions it.
    [[nodiscard]] bool isEliminated(Var v) const {
        return eliminated_[static_cast<std::size_t>(v)] != 0;
    }
    /// Runs one inprocessing round immediately (outside any solve()). Returns
    /// false when the formula became trivially unsatisfiable. Exposed for
    /// tests and offline preprocessing; solve() schedules rounds itself.
    /// Bounded by the tick and memory budgets, the setDeadline() deadline
    /// and the cancel flag (stopReason() names a deadline/cancel stop).
    bool simplify();

    /// Reaches the prepared state: runs the first inprocessing round (when
    /// enabled) ahead of the first solve(), which then searches at once,
    /// and rebuilds the watch and binary lists in the canonical order a
    /// clone rebuilds them in (clause-list order; binaries as
    /// flatBinaries() lists them). Solver(image(), options) reproduces the state
    /// exactly. Call once,
    /// after encoding and before importSnapshot() or solve(). Returns false
    /// when the deadline, the cancel flag or the memory budget cut the
    /// round short, or the formula is Unsat at level 0: the state then
    /// depends on this query's limits, so keep no image of it.
    bool prepare();

    /// Flat copy of the prepared state. Only valid directly after a
    /// prepare() that returned true, before anything else changes the
    /// solver.
    [[nodiscard]] SolverImage image() const;

private:
    friend class Simplifier;
    /// Watcher entry for a long (arena) clause: the clause plus a blocker
    /// literal whose truth proves the clause satisfied without touching it.
    struct Watcher {
        ClauseRef ref = kClauseRefUndef;
        Lit blocker = kUndefLit;
    };
    /// One half of a binary clause (x ∨ other), stored in x's falsification
    /// list: when ~x lands on the trail, `other` is implied outright.
    struct BinWatcher {
        Lit other = kUndefLit;
        std::uint32_t learnt = 0;
    };
    /// One binary clause (a ∨ b) outside the implication lists.
    struct FlatBinary {
        Lit a = kUndefLit;
        Lit b = kUndefLit;
        std::uint32_t learnt = 0;
    };
    struct VarData {
        Reason reason;
        int level = 0;
    };
    /// A falsified clause found by propagate(): an arena clause, or a binary
    /// clause given by its two (both false) literals.
    struct Conflict {
        ClauseRef ref = kClauseRefUndef;
        Lit binA = kUndefLit;
        Lit binB = kUndefLit;
        [[nodiscard]] bool found() const {
            return ref != kClauseRefUndef || binA.isDefined();
        }
        [[nodiscard]] bool isBinary() const {
            return ref == kClauseRefUndef && binA.isDefined();
        }
    };

    // -- search ------------------------------------------------------------
    SolveResult search(const ModelHook& onModel);
    Lit pickBranchLit();
    bool enqueue(Lit l, Reason from);
    Conflict propagate();
    void analyze(const Conflict& conflict, std::vector<Lit>& learnt,
                 int& backtrackLevel, int& lbd);
    bool litRedundant(Lit l, std::uint32_t abstractLevels);
    void analyzeFinal(Lit falsifiedAssumption);
    void backtrackTo(int level);
    void newDecisionLevel();

    // -- state helpers -----------------------------------------------------
    /// Initial phase newVar() gives `v` under `seed` (1 = false first).
    static char initialPhase(std::uint64_t seed, Var v);
    [[nodiscard]] int decisionLevel() const {
        return static_cast<int>(trailLim_.size());
    }
    [[nodiscard]] int levelOf(Var v) const {
        return varData_[static_cast<std::size_t>(v)].level;
    }
    [[nodiscard]] Reason reasonOf(Var v) const {
        return varData_[static_cast<std::size_t>(v)].reason;
    }
    [[nodiscard]] std::uint32_t abstractLevel(Var v) const {
        return 1u << (levelOf(v) & 31);
    }
    void attachClause(ClauseRef ref);
    void detachClause(ClauseRef ref);
    void attachBinary(Lit a, Lit b, bool learnt);
    /// Every binary clause (a ∨ b) once, a.index() < b.index(), by
    /// ascending ¬a (the order of the implication lists).
    [[nodiscard]] std::vector<FlatBinary> flatBinaries() const;
    /// Rebuilds the watch lists from the clause lists and the binary lists
    /// from `binaries` (see prepare()); leaves the counters alone.
    void attachCanonical(std::span<const FlatBinary> binaries);
    /// Integrates a simplified (>= 2 literals, none assigned-at-0) clause:
    /// binary → implication graph, longer → arena + watches. Shared by
    /// addClause / clause import / snapshot import.
    void storeClause(std::span<const Lit> lits, bool learnt, int lbd);
    /// Drains importClausesFn at decision level 0; false → formula became
    /// Unsat (an imported clause is empty under the level-0 assignment).
    bool importSharedClauses();
    /// Drops clauses satisfied at level 0 and clears level-0 reasons; returns
    /// at once when the level-0 trail has not grown since the last sweep.
    void removeSatisfiedAtLevelZero();
    void reduceLearntDb();
    /// Relocates every live clause into a fresh arena, dropping the wasted
    /// words left by free(); watcher/reason refs are rewritten in place so
    /// search state (including watcher order) is untouched.
    void garbageCollect();
    /// garbageCollect() once wasted words cross kGcWasteFraction.
    void maybeGarbageCollect();
    int computeLbd(const std::vector<Lit>& lits);
    [[nodiscard]] bool lockedReason(ClauseRef ref) const {
        const Lit first = arena_.lit(ref, 0);
        return value(first) == lbool::True &&
               reasonOf(first.var()) == Reason::clause(ref);
    }

    // -- activity ----------------------------------------------------------
    void varBumpActivity(Var v);
    void varDecayActivity();
    void clauseBumpActivity(ClauseRef ref);
    void clauseDecayActivity();

    // -- order heap (binary max-heap on activity_) ---------------------------
    void heapInsert(Var v);
    void heapUpdate(Var v);
    Var heapPopMax();
    [[nodiscard]] bool heapEmpty() const { return heap_.empty(); }
    void heapSiftUp(std::size_t i);
    void heapSiftDown(std::size_t i);
    [[nodiscard]] bool heapLess(Var a, Var b) const {
        return activity_[static_cast<std::size_t>(a)] <
               activity_[static_cast<std::size_t>(b)];
    }

    // -- inprocessing internals ---------------------------------------------
    /// Outcome of one inprocessing round. Done = round finished (possibly
    /// budget-stopped, which is benign); Unsat = formula proven unsatisfiable;
    /// Stop = a solve-level limit (deadline/cancel/propagation budget) tripped
    /// and stopReason_ was set — the enclosing solve() must return Unknown.
    enum class SimplifyOutcome { Done, Unsat, Stop };
    SimplifyOutcome runSimplifyRound();
    [[nodiscard]] bool simplifyDue() const;
    /// Re-activates an eliminated variable: re-adds its stashed problem
    /// clauses, erases its extender entries, and cascades to any other
    /// eliminated variables those clauses mention.
    void restoreEliminated(Var v);
    void restoreForLits(std::span<const Lit> lits);
    /// addClause body without the restore scan / addClauseCalls_ bump —
    /// shared by addClause() and restoreEliminated().
    bool addClauseInternal(std::vector<Lit> lits);
    /// Replays the elimination reconstruction stack over model_.
    void extendModel();

    static std::int64_t luby(std::int64_t i);
    [[nodiscard]] bool deadlineExpired() const;
    /// Checks every stop condition (cancellation, deadline, conflict and
    /// propagation budgets); returns the first that tripped, else None.
    [[nodiscard]] StopReason limitExceeded() const;
    void reportProgress();

    /// Live memory of one learnt binary clause: two 8-byte BinWatcher
    /// entries, one in each literal's list.
    static constexpr std::size_t kBinaryBytes = 2 * sizeof(BinWatcher);
    /// Compact the arena once this fraction of it is freed-but-unreclaimed.
    static constexpr double kGcWasteFraction = 0.25;

    // -- data ---------------------------------------------------------------
    SolverOptions opts_;
    SolverStats stats_;
    bool ok_ = true;

    ClauseArena arena_;                 ///< all long clauses, problem + learnt
    std::vector<ClauseRef> clauses_;    ///< problem clauses (>= 3 lits)
    std::vector<ClauseRef> learnts_;    ///< learnt clauses (>= 3 lits)
    std::vector<std::vector<Watcher>> watches_;       ///< indexed by Lit::index()
    std::vector<std::vector<BinWatcher>> binWatches_; ///< binary implication graph
    std::size_t binaryProblem_ = 0; ///< live problem binaries (for numClauses)

    std::vector<lbool> assigns_;
    std::vector<VarData> varData_;
    /// Saved phase (1 = last assigned false; kSeedPhase = the seed's).
    std::vector<char> polarity_;
    std::vector<double> activity_;
    double varInc_ = 1.0;
    double claInc_ = 1.0;

    std::vector<Lit> trail_;
    std::vector<int> trailLim_;
    std::size_t qhead_ = 0;

    std::vector<Var> heap_;        ///< heap of vars ordered by activity
    std::vector<int> heapIndex_;   ///< var -> position in heap_ or -1

    std::vector<Lit> assumptions_;
    std::vector<Lit> core_;

    std::vector<char> seen_;       ///< scratch for analyze()
    std::vector<Lit> analyzeToClear_;
    std::vector<Lit> analyzeStack_;

    std::vector<lbool> model_;
    std::size_t trailAtLastSweep_ = 0; ///< level-0 trail size at the last sweep

    double maxLearnts_ = 0;
    StopReason stopReason_ = StopReason::None;
    StopReason pendingStop_ = StopReason::None; ///< set mid-propagate
    std::int64_t conflictLimit_ = -1;     ///< absolute stats_.conflicts cap
    std::int64_t propagationLimit_ = -1;  ///< absolute stats_.propagations cap
    std::int64_t memoryBudgetBytes_ = -1; ///< live learnt-memory cap in bytes
    std::size_t learntBytes_ = 0; ///< exact live learnt bytes (arena + binaries)
    std::int64_t conflictsSinceRestart_ = 0;
    std::int64_t restartLimit_ = 0;
    int restartCount_ = 0;
    std::chrono::steady_clock::time_point solveStart_{};
    std::uint64_t propagationsAtSolveStart_ = 0;
    std::vector<ImportedClause> importScratch_; ///< importSharedClauses buffer
    std::vector<Lit> simplifyScratch_;          ///< clause-simplification buffer

    // -- inprocessing state --------------------------------------------------
    std::vector<char> frozen_;     ///< vars excluded from elimination
    std::vector<char> eliminated_; ///< vars currently eliminated
    std::size_t numEliminated_ = 0;
    Extender extender_; ///< model-reconstruction stack for eliminated vars
    /// Original problem clauses of each eliminated var, for restoration when
    /// a later addClause()/assumption mentions it.
    VarClauses elimStash_;
    std::uint64_t conflictsAtLastSimplify_ = 0;
    bool simplifiedOnce_ = false;
    /// True from a successful prepare() until anything changes the
    /// prepared state (a clause, a solve, an import) — guards image().
    bool prepared_ = false;
    std::optional<std::chrono::steady_clock::time_point> deadline_; ///< setDeadline()
    std::atomic<bool> solveActive_{false}; ///< guards the single-thread contract

    // Snapshot baseline: addClause() invocations are counted (not stored
    // clauses — unit and satisfied clauses never reach clauses_) so any
    // post-baseline growth is detected, including pure-unit additions.
    std::uint64_t addClauseCalls_ = 0;
    std::int64_t baselineVars_ = -1;        ///< -1 = no baseline marked
    std::uint64_t baselineClauseCalls_ = 0;
};

} // namespace lar::sat
