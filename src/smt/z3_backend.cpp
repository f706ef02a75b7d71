#if defined(LAR_HAVE_Z3)

#include "smt/z3_backend.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "util/error.hpp"

namespace lar::smt {

Z3Backend::Z3Backend(const FormulaStore& store, const BackendConfig& config)
    : store_(&store), config_(config), solver_(ctx_) {
    restartDeadline();
    if (config_.seed != 0) {
        z3::params params(ctx_);
        params.set("random_seed", static_cast<unsigned>(config_.seed & 0xFFFFFFFFu));
        solver_.set(params);
    }
    // Resource budgets are applied one param at a time so an unsupported
    // name in the linked libz3 degrades to "unlimited" instead of discarding
    // the whole parameter set.
    if (config_.conflictBudget >= 0) {
        try {
            z3::params params(ctx_);
            params.set("max_conflicts",
                       static_cast<unsigned>(std::min<std::int64_t>(
                           config_.conflictBudget, 0xFFFFFFFFLL)));
            solver_.set(params);
        } catch (const z3::exception&) {
        }
    }
    if (config_.memoryBudgetMb >= 0) {
        try {
            z3::params params(ctx_);
            params.set("max_memory",
                       static_cast<unsigned>(std::min<std::int64_t>(
                           config_.memoryBudgetMb, 0xFFFFFFFFLL)));
            solver_.set(params);
        } catch (const z3::exception&) {
        }
    }
}

void Z3Backend::restartDeadline() {
    if (config_.timeoutMs > 0)
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(config_.timeoutMs);
}

unsigned Z3Backend::timeoutLeftMs() const {
    if (!deadline_.has_value()) return 0;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          *deadline_ - std::chrono::steady_clock::now())
                          .count();
    return static_cast<unsigned>(std::max<std::int64_t>(1, left));
}

void Z3Backend::armTimeout() {
    if (!deadline_.has_value()) return;
    z3::params params(ctx_);
    params.set("timeout", timeoutLeftMs());
    solver_.set(params);
}

void Z3Backend::collectStats(const z3::stats& st) {
    // Z3 key names vary per tactic ("conflicts", "sat conflicts", ...): match
    // by substring and take the maximum seen, since the same quantity can be
    // reported under several keys.
    const auto value = [&st](unsigned i) -> std::uint64_t {
        return st.is_uint(i) ? st.uint_value(i)
                             : static_cast<std::uint64_t>(st.double_value(i));
    };
    sat::SolverStats out = collected_;
    for (unsigned i = 0; i < st.size(); ++i) {
        const std::string key = st.key(i);
        if (key.find("conflict") != std::string::npos)
            out.conflicts = std::max(out.conflicts, collected_.conflicts + value(i));
        else if (key.find("decision") != std::string::npos)
            out.decisions = std::max(out.decisions, collected_.decisions + value(i));
        else if (key.find("propagation") != std::string::npos)
            out.propagations =
                std::max(out.propagations, collected_.propagations + value(i));
        else if (key.find("restart") != std::string::npos)
            out.restarts = std::max(out.restarts, collected_.restarts + value(i));
        else if (key.find("binary") != std::string::npos)
            out.binaryClauses =
                std::max(out.binaryClauses, collected_.binaryClauses + value(i));
    }
    out.solves = collected_.solves + 1;
    collected_ = out;
}

z3::expr Z3Backend::varExpr(NodeId id) {
    const auto it = exprIndex_.find(id);
    if (it != exprIndex_.end()) return exprs_[it->second];
    const Node& n = store_->node(id);
    expects(n.kind == NodeKind::Var, "Z3Backend::varExpr: not a variable");
    z3::expr e = ctx_.bool_const(n.name.c_str());
    exprIndex_.emplace(id, static_cast<unsigned>(exprs_.size()));
    exprs_.push_back(e);
    return e;
}

z3::expr Z3Backend::toExpr(NodeId id) {
    const Node& n = store_->node(id);
    switch (n.kind) {
        case NodeKind::Const: return ctx_.bool_val(n.constValue);
        case NodeKind::Var: return varExpr(id);
        case NodeKind::Not: return !toExpr(n.children[0]);
        case NodeKind::And: {
            z3::expr_vector kids(ctx_);
            for (const NodeId c : n.children) kids.push_back(toExpr(c));
            return z3::mk_and(kids);
        }
        case NodeKind::Or: {
            z3::expr_vector kids(ctx_);
            for (const NodeId c : n.children) kids.push_back(toExpr(c));
            return z3::mk_or(kids);
        }
        case NodeKind::LinLeq: {
            // Σ coef·ite(lit, 1, 0) ≤ bound over the integers.
            z3::expr sum = ctx_.int_val(0);
            for (const LinTerm& t : n.terms) {
                z3::expr lit = varExpr(t.var);
                if (t.negated) lit = !lit;
                sum = sum + z3::ite(lit, ctx_.int_val(static_cast<int>(t.coef)),
                                    ctx_.int_val(0));
            }
            return sum <= ctx_.int_val(static_cast<int>(n.bound));
        }
    }
    throw LogicError("Z3Backend::toExpr: unknown node kind");
}

void Z3Backend::addHard(NodeId formula, int track) {
    hardForOptimize_.emplace_back(formula, track);
    if (track < 0) {
        solver_.add(toExpr(formula));
        return;
    }
    const std::string name = "lar!track!" + std::to_string(track);
    z3::expr selector = ctx_.bool_const(name.c_str());
    solver_.add(z3::implies(selector, toExpr(formula)));
    selectors_.emplace_back(track, selector);
}

void Z3Backend::captureCore(const z3::expr_vector& core,
                            std::span<const NodeId> assumptions) {
    lastCore_ = {};
    for (unsigned i = 0; i < core.size(); ++i) {
        const z3::expr failed = core[i];
        bool matched = false;
        for (const auto& [track, selector] : selectors_) {
            if (z3::eq(failed, selector)) {
                lastCore_.tracks.push_back(track);
                matched = true;
                break;
            }
        }
        if (matched) continue;
        for (const NodeId a : assumptions) {
            z3::expr e = toExpr(a);
            if (z3::eq(failed, e)) {
                lastCore_.assumptions.push_back(a);
                break;
            }
        }
    }
}

CheckStatus Z3Backend::checkWithTracks(std::span<const int> activeTracks,
                                       std::span<const NodeId> assumptions) {
    const obs::Span span("check");
    if (cancelled() || deadlinePassed()) return CheckStatus::Unknown;
    armTimeout();
    z3::expr_vector assume(ctx_);
    for (const auto& [track, selector] : selectors_) {
        if (std::find(activeTracks.begin(), activeTracks.end(), track) !=
            activeTracks.end())
            assume.push_back(selector);
    }
    for (const NodeId a : assumptions) assume.push_back(toExpr(a));
    const z3::check_result verdict = solver_.check(assume);
    collectStats(solver_.statistics());
    switch (verdict) {
        case z3::sat:
            model_ = std::make_unique<z3::model>(solver_.get_model());
            return CheckStatus::Sat;
        case z3::unsat:
            captureCore(solver_.unsat_core(), assumptions);
            return CheckStatus::Unsat;
        case z3::unknown: return CheckStatus::Unknown;
    }
    return CheckStatus::Unknown;
}

CheckStatus Z3Backend::check(std::span<const NodeId> assumptions) {
    const obs::Span span("check");
    if (cancelled() || deadlinePassed()) return CheckStatus::Unknown;
    armTimeout();
    z3::expr_vector assume(ctx_);
    for (const auto& [track, selector] : selectors_) assume.push_back(selector);
    for (const NodeId a : assumptions) assume.push_back(toExpr(a));
    const z3::check_result verdict = solver_.check(assume);
    collectStats(solver_.statistics());
    switch (verdict) {
        case z3::sat:
            model_ = std::make_unique<z3::model>(solver_.get_model());
            return CheckStatus::Sat;
        case z3::unsat:
            captureCore(solver_.unsat_core(), assumptions);
            return CheckStatus::Unsat;
        case z3::unknown: return CheckStatus::Unknown;
    }
    return CheckStatus::Unknown;
}

bool Z3Backend::modelValue(NodeId var) const {
    expects(model_ != nullptr, "Z3Backend::modelValue: no model available");
    const Node& n = store_->node(var);
    expects(n.kind == NodeKind::Var, "Z3Backend::modelValue: not a variable");
    const auto it = exprIndex_.find(var);
    if (it == exprIndex_.end()) return false; // variable absent from the formula
    const z3::expr v = model_->eval(exprs_[it->second], /*model_completion=*/true);
    return v.is_true();
}

OptimizeResult Z3Backend::optimize(std::span<const ObjectiveSpec> objectives,
                                   std::span<const NodeId> assumptions) {
    const obs::Span span("optimize");
    if (cancelled() || deadlinePassed()) {
        OptimizeResult result;
        result.unknown = true;
        return result;
    }
    z3::optimize opt(ctx_);
    z3::params params(ctx_);
    params.set("priority", ctx_.str_symbol("lex"));
    if (deadline_.has_value()) params.set("timeout", timeoutLeftMs());
    opt.set(params);

    for (const auto& [formula, track] : hardForOptimize_) opt.add(toExpr(formula));
    for (const NodeId a : assumptions) opt.add(toExpr(a));
    // Soft groups are created in objective order; with lex priority Z3
    // optimizes them in that order. The installed z3++.h has no grouped
    // add_soft overload, so go through the C API.
    for (const ObjectiveSpec& spec : objectives) {
        const z3::symbol group = ctx_.str_symbol(spec.name.c_str());
        for (const SoftItem& soft : spec.softs) {
            const std::string weight = std::to_string(soft.weight);
            Z3_optimize_assert_soft(ctx_, opt, toExpr(soft.formula), weight.c_str(),
                                    group);
        }
    }

    OptimizeResult result;
    const z3::check_result verdict = opt.check();
    collectStats(opt.statistics());
    result.unknown = verdict == z3::unknown;
    if (verdict != z3::sat) return result;
    model_ = std::make_unique<z3::model>(opt.get_model());
    result.feasible = true;
    // Recompute per-level costs from the model (backend-independent metric).
    for (const ObjectiveSpec& spec : objectives) {
        std::int64_t cost = 0;
        for (const SoftItem& soft : spec.softs) {
            const z3::expr v = model_->eval(
                const_cast<Z3Backend*>(this)->toExpr(soft.formula), true);
            if (!v.is_true()) cost += soft.weight;
        }
        result.costs.push_back(cost);
    }
    return result;
}

} // namespace lar::smt

#endif // LAR_HAVE_Z3
