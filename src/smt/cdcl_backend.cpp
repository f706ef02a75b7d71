#include "smt/cdcl_backend.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "encode/pb.hpp"
#include "obs/span.hpp"
#include "opt/maxsat.hpp"
#include "util/error.hpp"

namespace lar::smt {

namespace {

sat::SolverOptions solverOptionsFor(const BackendConfig& config) {
    sat::SolverOptions opts;
    opts.randomSeed = config.seed;
    opts.conflictBudget = config.conflictBudget;
    opts.propagationBudget = config.propagationBudget;
    opts.memoryBudgetMb = config.memoryBudgetMb;
    opts.cancelFlag = config.cancelFlag;
    opts.progressEvery = config.progressEveryConflicts;
    opts.progressFn = config.progressFn;
    opts.simplify.enable = config.simplify;
    return opts;
}

} // namespace

CdclBackend::CdclBackend(const FormulaStore& store, const BackendConfig& config)
    : store_(&store), timeoutMs_(config.timeoutMs), solver_(solverOptionsFor(config)) {
    restartDeadline();
}

CdclBackend::CdclBackend(const FormulaStore& store, const BackendConfig& config,
                         const CdclImage& image)
    : store_(&store),
      timeoutMs_(config.timeoutMs),
      solver_(image.solver, solverOptionsFor(config)),
      builder_(solver_, image.trueLit),
      lits_(image.lits),
      linleq_(image.linleq.begin(), image.linleq.end()),
      selectors_(image.selectors) {
    restartDeadline();
}

void CdclBackend::restartDeadline() {
    // The query's timeout is one deadline over all of its solver calls (and
    // the prepare round), not a fresh budget per call.
    if (timeoutMs_ > 0)
        solver_.setDeadline(std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeoutMs_));
}

std::unique_ptr<const CdclImage> CdclBackend::image() const {
    auto image = std::make_unique<CdclImage>();
    image->solver = solver_.image();
    std::size_t used = lits_.size();
    while (used > 0 && !lits_[used - 1].isDefined()) --used;
    image->lits.assign(lits_.begin(), lits_.begin() + static_cast<std::ptrdiff_t>(used));
    image->linleq.assign(linleq_.begin(), linleq_.end());
    image->selectors = selectors_;
    image->trueLit = builder_.existingTrueLit();
    return image;
}

sat::Lit CdclBackend::compile(NodeId id) {
    if (const sat::Lit known = compiled(id); known.isDefined()) return known;
    const Node& n = store_->node(id);
    sat::Lit out = sat::kUndefLit;
    switch (n.kind) {
        case NodeKind::Const:
            out = n.constValue ? builder_.trueLit() : builder_.falseLit();
            break;
        case NodeKind::Var:
            out = builder_.newLit();
            // KB-facing variable: modelValue()/cores/what-if deltas address
            // it directly, so inprocessing must never eliminate it.
            solver_.freeze(out.var());
            break;
        case NodeKind::Not:
            out = ~compile(n.children[0]);
            break;
        case NodeKind::And:
        case NodeKind::Or: {
            std::vector<sat::Lit> kids;
            kids.reserve(n.children.size());
            for (const NodeId c : n.children) kids.push_back(compile(c));
            out = n.kind == NodeKind::And ? builder_.mkAnd(kids) : builder_.mkOr(kids);
            break;
        }
        case NodeKind::LinLeq:
            out = compileLinLeq(id);
            break;
    }
    if (static_cast<std::size_t>(id) >= lits_.size())
        lits_.resize(std::max(store_->size(), static_cast<std::size_t>(id) + 1),
                     sat::kUndefLit);
    lits_[static_cast<std::size_t>(id)] = out;
    return out;
}

sat::Lit CdclBackend::compileLinLeq(NodeId id) {
    const Node& n = store_->node(id);
    // The FormulaStore folds trivial bounds, but stay defensive.
    std::int64_t total = 0;
    for (const LinTerm& t : n.terms) total += t.coef;
    if (n.bound >= total) return builder_.trueLit();
    if (n.bound < 0) return builder_.falseLit();

    LinLeqGate& gate = linleq_[id];
    gate.out = builder_.newLit();
    emitLinLeqDirections(id);
    return gate.out;
}

void CdclBackend::emitLinLeqDirections(NodeId id) {
    const auto gateIt = linleq_.find(id);
    if (gateIt == linleq_.end() || !gateIt->second.out.isDefined())
        return; // not compiled yet, or folded to a constant
    LinLeqGate& gate = gateIt->second;
    const int mask = gate.polarity != 0 ? gate.polarity : (kPos | kNeg);
    const bool needForward = (mask & kPos) != 0 && !gate.forwardBuilt;
    const bool needBackward = (mask & kNeg) != 0 && !gate.backwardBuilt;
    if (!needForward && !needBackward) return;

    const Node& n = store_->node(id);
    std::int64_t total = 0;
    std::vector<encode::PbTerm> flat;
    std::map<int, std::vector<encode::PbTerm>> grouped;
    std::vector<std::vector<encode::PbTerm>> groups;
    flat.reserve(n.terms.size());
    for (const LinTerm& t : n.terms) {
        const sat::Lit varLit = compile(t.var);
        const sat::Lit lit = t.negated ? ~varLit : varLit;
        const encode::PbTerm term{t.coef, lit};
        flat.push_back(term);
        if (t.group >= 0)
            grouped[t.group].push_back(term);
        else
            groups.push_back({term});
        total += t.coef;
    }
    for (auto& [groupId, members] : grouped) groups.push_back(std::move(members));

    if (needForward) {
        // out → Σ ≤ bound: counter detects Σ ≥ bound+1; exclusivity groups
        // keep it linear for selector-style inputs.
        const encode::PbSum forward(
            builder_, std::span<const std::vector<encode::PbTerm>>(groups),
            /*clampAt=*/n.bound + 1);
        builder_.addClause(~gate.out, forward.atMostLit(builder_, n.bound));
        gate.forwardBuilt = true;
    }
    if (needBackward) {
        // ¬out → Σ ≥ bound+1 ⇔ Σ complements ≤ total−bound−1. Complements
        // are not exclusive, so this uses the flat construction.
        std::vector<encode::PbTerm> complements;
        complements.reserve(flat.size());
        for (const encode::PbTerm& t : flat) complements.push_back({t.weight, ~t.lit});
        const encode::PbSum backward(builder_, complements,
                                     /*clampAt=*/total - n.bound);
        builder_.addClause(gate.out,
                           backward.atMostLit(builder_, total - n.bound - 1));
        gate.backwardBuilt = true;
    }
}

void CdclBackend::notePolarity(NodeId id, int mask) {
    const Node& n = store_->node(id);
    switch (n.kind) {
        case NodeKind::Const:
        case NodeKind::Var: return;
        case NodeKind::Not:
            notePolarity(n.children[0],
                         ((mask & kPos) != 0 ? kNeg : 0) |
                             ((mask & kNeg) != 0 ? kPos : 0));
            return;
        case NodeKind::And:
        case NodeKind::Or:
            for (const NodeId c : n.children) notePolarity(c, mask);
            return;
        case NodeKind::LinLeq: {
            LinLeqGate& gate = linleq_[id];
            if ((gate.polarity | mask) == gate.polarity) return;
            gate.polarity |= mask;
            // Upgrade an already-compiled gate with the new direction.
            emitLinLeqDirections(id);
            return;
        }
    }
}

void CdclBackend::addHard(NodeId formula, int track) {
    notePolarity(formula, kPos);
    const sat::Lit f = compile(formula);
    if (track < 0) {
        builder_.assertLit(f);
        return;
    }
    const sat::Lit selector = builder_.newLit();
    // Selectors are assumed on every check; eliminating one between solves
    // would silently disable its track.
    solver_.freeze(selector.var());
    builder_.assertImplies(selector, f);
    selectors_.emplace_back(track, selector);
}

sat::Lit CdclBackend::assumptionLit(NodeId id) {
    const auto lit = store_->asLiteral(id);
    expects(lit.has_value(), "CdclBackend: assumption must be a (negated) variable");
    const sat::Lit base = compile(lit->first);
    return lit->second ? ~base : base;
}

std::vector<sat::Lit> CdclBackend::buildAssumptionLits(
    std::span<const NodeId> assumptions) {
    std::vector<sat::Lit> lits;
    lits.reserve(selectors_.size() + assumptions.size());
    for (const auto& [track, selector] : selectors_) lits.push_back(selector);
    for (const NodeId a : assumptions) lits.push_back(assumptionLit(a));
    return lits;
}

void CdclBackend::captureCore(std::span<const NodeId> assumptions) {
    lastCore_ = {};
    const std::vector<sat::Lit>& core = solver_.unsatCore();
    for (const sat::Lit failed : core) {
        bool matched = false;
        for (const auto& [track, selector] : selectors_) {
            if (selector == failed) {
                lastCore_.tracks.push_back(track);
                matched = true;
                break;
            }
        }
        if (matched) continue;
        for (const NodeId a : assumptions) {
            if (assumptionLit(a) == failed) {
                lastCore_.assumptions.push_back(a);
                break;
            }
        }
    }
}

CheckStatus CdclBackend::check(std::span<const NodeId> assumptions) {
    const obs::Span span("check");
    const std::vector<sat::Lit> lits = buildAssumptionLits(assumptions);
    switch (solver_.solve(lits)) {
        case sat::SolveResult::Sat: return CheckStatus::Sat;
        case sat::SolveResult::Unknown: return CheckStatus::Unknown;
        case sat::SolveResult::Unsat:
            captureCore(assumptions);
            return CheckStatus::Unsat;
    }
    return CheckStatus::Unknown;
}

CheckStatus CdclBackend::checkWithTracks(std::span<const int> activeTracks,
                                         std::span<const NodeId> assumptions) {
    const obs::Span span("check");
    std::vector<sat::Lit> lits;
    lits.reserve(activeTracks.size() + assumptions.size());
    for (const auto& [track, selector] : selectors_) {
        if (std::find(activeTracks.begin(), activeTracks.end(), track) !=
            activeTracks.end())
            lits.push_back(selector);
    }
    for (const NodeId a : assumptions) lits.push_back(assumptionLit(a));
    switch (solver_.solve(lits)) {
        case sat::SolveResult::Sat: return CheckStatus::Sat;
        case sat::SolveResult::Unknown: return CheckStatus::Unknown;
        case sat::SolveResult::Unsat:
            captureCore(assumptions);
            return CheckStatus::Unsat;
    }
    return CheckStatus::Unknown;
}

bool CdclBackend::modelValue(NodeId var) const {
    expects(store_->node(var).kind == NodeKind::Var,
            "CdclBackend::modelValue: not a variable");
    const sat::Lit lit = compiled(var);
    if (!lit.isDefined()) return false; // variable absent from the formula
    return solver_.modelValue(lit);
}

OptimizeResult CdclBackend::optimize(std::span<const ObjectiveSpec> objectives,
                                     std::span<const NodeId> assumptions) {
    const obs::Span span("optimize");
    const std::vector<sat::Lit> assume = buildAssumptionLits(assumptions);

    std::vector<opt::Objective> levels;
    levels.reserve(objectives.size());
    for (const ObjectiveSpec& spec : objectives) {
        opt::Objective level;
        level.name = spec.name;
        level.softs.reserve(spec.softs.size());
        for (const SoftItem& soft : spec.softs) {
            notePolarity(soft.formula, kPos);
            level.softs.push_back(
                {compile(soft.formula), soft.weight, soft.exclusiveGroup});
        }
        levels.push_back(std::move(level));
    }

    const opt::LexResult lex = opt::optimizeLex(builder_, levels, assume);
    OptimizeResult result;
    result.feasible = lex.feasible;
    result.unknown = lex.unknown;
    result.costs = lex.costs;
    // Interrupted searches proved nothing, so there is no core to capture.
    if (!lex.feasible && !lex.unknown) captureCore(assumptions);
    return result;
}

} // namespace lar::smt
