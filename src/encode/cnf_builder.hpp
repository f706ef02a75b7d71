// Tseitin-style circuit-to-CNF construction over a sat::Solver.
//
// All higher-level encodings (pseudo-Boolean sums, the reasoning layer's
// requirement formulas) funnel through this builder. Gate
// outputs are fresh literals constrained to be *equivalent* to their gate
// function, so they can be used in both polarities.
#pragma once

#include <span>
#include <vector>

#include "sat/solver.hpp"
#include "sat/types.hpp"

namespace lar::encode {

class CnfBuilder {
public:
    explicit CnfBuilder(sat::Solver& solver) : solver_(&solver) {}
    /// Builder over a solver that already holds `trueLit` as a unit (a
    /// clone of a prepared solver); kUndefLit when none was created.
    CnfBuilder(sat::Solver& solver, sat::Lit trueLit)
        : solver_(&solver), true_(trueLit) {}

    /// The underlying solver.
    [[nodiscard]] sat::Solver& solver() { return *solver_; }

    /// Fresh positive literal over a fresh variable.
    [[nodiscard]] sat::Lit newLit() { return sat::mkLit(solver_->newVar()); }

    /// Constant-true literal (created lazily, one per builder).
    [[nodiscard]] sat::Lit trueLit();
    /// The constant-true literal if one was created, else kUndefLit.
    [[nodiscard]] sat::Lit existingTrueLit() const { return true_; }
    /// Constant-false literal.
    [[nodiscard]] sat::Lit falseLit() { return ~trueLit(); }

    /// Asserts a clause (top-level disjunction).
    void addClause(std::vector<sat::Lit> lits) { solver_->addClause(std::move(lits)); }
    void addClause(sat::Lit a) { solver_->addClause(a); }
    void addClause(sat::Lit a, sat::Lit b) { solver_->addClause(a, b); }
    void addClause(sat::Lit a, sat::Lit b, sat::Lit c) { solver_->addClause(a, b, c); }

    /// Asserts `l` at the top level.
    void assertLit(sat::Lit l) { solver_->addClause(l); }

    /// out ⇔ AND(inputs). Empty input yields trueLit().
    [[nodiscard]] sat::Lit mkAnd(std::span<const sat::Lit> inputs);
    /// out ⇔ OR(inputs). Empty input yields falseLit().
    [[nodiscard]] sat::Lit mkOr(std::span<const sat::Lit> inputs);
    [[nodiscard]] sat::Lit mkAnd(sat::Lit a, sat::Lit b);
    [[nodiscard]] sat::Lit mkOr(sat::Lit a, sat::Lit b);
    /// out ⇔ (a → b).
    [[nodiscard]] sat::Lit mkImplies(sat::Lit a, sat::Lit b) { return mkOr(~a, b); }
    /// out ⇔ (a ↔ b).
    [[nodiscard]] sat::Lit mkIff(sat::Lit a, sat::Lit b);
    /// out ⇔ (a ⊕ b).
    [[nodiscard]] sat::Lit mkXor(sat::Lit a, sat::Lit b) { return ~mkIff(a, b); }
    /// out ⇔ (cond ? ifTrue : ifFalse).
    [[nodiscard]] sat::Lit mkIte(sat::Lit cond, sat::Lit ifTrue, sat::Lit ifFalse);

    /// Top-level implication a → b (no gate variable).
    void assertImplies(sat::Lit a, sat::Lit b) { addClause(~a, b); }
    /// Top-level equivalence a ↔ b.
    void assertIff(sat::Lit a, sat::Lit b) {
        addClause(~a, b);
        addClause(a, ~b);
    }

private:
    sat::Solver* solver_;
    sat::Lit true_ = sat::kUndefLit;
};

} // namespace lar::encode
