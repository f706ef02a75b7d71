#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sat/types.hpp"

namespace lar::sat {

// Clauses tagged with the variable they belong to, in push order. Stored
// flat — one literal buffer plus per-clause offsets — so a copy is three
// memcpys and the footprint is exact (bytes()). Used for the elimination
// reconstruction stack (Extender) and for the stash of eliminated
// variables' original clauses (Solver::elimStash_).
class VarClauses {
 public:
  void push(Var v, std::span<const Lit> lits);

  // Moves every clause of `v` (in push order) into `out` and erases them.
  void take(Var v, std::vector<std::vector<Lit>>& out);

  // Erases every clause of `v`.
  void removeVar(Var v);

  [[nodiscard]] std::size_t size() const { return vars_.size(); }
  [[nodiscard]] bool empty() const { return vars_.empty(); }
  [[nodiscard]] std::span<const Lit> clause(std::size_t i) const {
    return {lits_.data() + ends_[i] - length(i), length(i)};
  }
  // Exact heap footprint of the three buffers.
  [[nodiscard]] std::size_t bytes() const {
    return vars_.size() * sizeof(Var) + ends_.size() * sizeof(std::uint32_t) +
           lits_.size() * sizeof(Lit);
  }

 private:
  [[nodiscard]] std::size_t length(std::size_t i) const {
    return ends_[i] - (i == 0 ? 0 : ends_[i - 1]);
  }
  // Keeps the clauses for which keep(i) holds, in order.
  template <typename Keep>
  void compact(Keep keep);

  std::vector<Var> vars_;
  std::vector<std::uint32_t> ends_;  // one past each clause's last literal
  std::vector<Lit> lits_;
};

// Model-reconstruction stack for bounded variable elimination.
//
// When variable v is eliminated, the clauses of one phase are pushed here
// (each with its v-literal first, as the witness) followed by a unit entry
// asserting the opposite phase. extend() walks the stack in reverse push
// order: if an entry's clause is unsatisfied under the partial model, the
// witness literal is flipped true. Because the resolvents added at
// elimination time are satisfied by any model of the simplified formula,
// flipping the witness can never falsify a later (= earlier-pushed) entry
// of the same variable, so a single reverse pass reconstructs a model of
// the original formula.
class Extender {
 public:
  // Push one stashed clause for an eliminated variable. lits[0] must be the
  // literal of `v` contained in the clause.
  void pushClause(Var v, std::span<const Lit> lits);

  // Push the default-phase unit for an eliminated variable.
  void pushUnit(Lit l);

  // Physically remove every entry for `v` (used when the variable is
  // restored because a new clause mentions it).
  void removeVar(Var v) { entries_.removeVar(v); }

  // Extend a model of the simplified formula to the original formula.
  // Unassigned variables are treated as false, matching Solver::modelValue.
  void extend(std::vector<lbool>& model) const;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  std::size_t bytes() const { return entries_.bytes(); }

 private:
  VarClauses entries_;
};

}  // namespace lar::sat
