#include "sat/simplify/extender.hpp"

#include <cassert>

namespace lar::sat {

namespace {

// Undef counts as false, matching Solver::modelValue.
bool litTrue(const std::vector<lbool>& model, Lit l) {
    const auto v = static_cast<std::size_t>(l.var());
    const bool assignedTrue = v < model.size() && model[v] == lbool::True;
    return assignedTrue != l.sign();
}

} // namespace

void VarClauses::push(Var v, std::span<const Lit> lits) {
    vars_.push_back(v);
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    ends_.push_back(static_cast<std::uint32_t>(lits_.size()));
}

template <typename Keep>
void VarClauses::compact(Keep keep) {
    std::size_t kept = 0;
    std::size_t write = 0;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < vars_.size(); ++i) {
        const std::size_t end = ends_[i];
        if (keep(i)) {
            for (std::size_t j = begin; j < end; ++j) lits_[write++] = lits_[j];
            vars_[kept] = vars_[i];
            ends_[kept++] = static_cast<std::uint32_t>(write);
        }
        begin = end;
    }
    vars_.resize(kept);
    ends_.resize(kept);
    lits_.resize(write);
}

void VarClauses::take(Var v, std::vector<std::vector<Lit>>& out) {
    for (std::size_t i = 0; i < vars_.size(); ++i) {
        if (vars_[i] != v) continue;
        const std::span<const Lit> lits = clause(i);
        out.emplace_back(lits.begin(), lits.end());
    }
    removeVar(v);
}

void VarClauses::removeVar(Var v) {
    compact([&](std::size_t i) { return vars_[i] != v; });
}

void Extender::pushClause(Var v, std::span<const Lit> lits) {
    assert(!lits.empty() && lits[0].var() == v);
    entries_.push(v, lits);
}

void Extender::pushUnit(Lit l) {
    entries_.push(l.var(), std::span<const Lit>(&l, 1));
}

void Extender::extend(std::vector<lbool>& model) const {
    for (std::size_t i = entries_.size(); i-- > 0;) {
        const std::span<const Lit> clause = entries_.clause(i);
        bool satisfied = false;
        for (const Lit l : clause) {
            if (litTrue(model, l)) {
                satisfied = true;
                break;
            }
        }
        if (satisfied) continue;
        const Lit witness = clause[0];
        const auto v = static_cast<std::size_t>(witness.var());
        if (v < model.size()) model[v] = fromBool(!witness.sign());
    }
}

} // namespace lar::sat
