// Solver-neutral formula AST.
//
// The reasoning layer compiles knowledge-base rules into this AST; backends
// (our CDCL solver, native Z3) consume it. Nodes are interned in a
// FormulaStore arena and referenced by dense NodeId, so formulas are cheap
// to copy and share. The AST is deliberately small — propositional
// connectives plus linear pseudo-Boolean atoms — matching the paper's
// "simple predicate logic is already enough" position (§3.4).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace lar::smt {

using NodeId = std::int32_t;
constexpr NodeId kInvalidNode = -1;

enum class NodeKind : std::uint8_t { Const, Var, Not, And, Or, LinLeq };

/// One weighted term of a linear atom: coef · [var ≠ negated].
/// Terms sharing a non-negative `group` are mutually exclusive (at most one
/// is true in any model) — an invariant the *caller* guarantees (e.g.
/// exactly-one selector variables). Backends may exploit it to keep
/// counting encodings linear.
struct LinTerm {
    std::int64_t coef = 1;
    NodeId var = kInvalidNode; ///< must reference a Var node
    bool negated = false;
    int group = -1;

    bool operator==(const LinTerm&) const = default;
};

struct Node {
    NodeKind kind = NodeKind::Const;
    bool constValue = false;                ///< Const
    std::string name;                       ///< Var
    std::vector<NodeId> children;           ///< Not (1), And, Or
    std::vector<LinTerm> terms;             ///< LinLeq
    std::int64_t bound = 0;                 ///< LinLeq: Σ terms ≤ bound
};

class FormulaStore {
public:
    FormulaStore();

    /// Constant true / false (interned singletons).
    [[nodiscard]] NodeId constant(bool value) const {
        return value ? trueId_ : falseId_;
    }

    /// Named boolean variable; repeated calls with the same name return the
    /// same node.
    NodeId var(const std::string& name);

    /// Looks up a variable by name without creating it.
    [[nodiscard]] std::optional<NodeId> findVar(const std::string& name) const;

    /// Negation (folds constants and double negation).
    NodeId mkNot(NodeId f);
    /// Conjunction (folds constants; empty → true; singleton → itself).
    NodeId mkAnd(std::vector<NodeId> children);
    /// Disjunction (folds constants; empty → false; singleton → itself).
    NodeId mkOr(std::vector<NodeId> children);
    NodeId mkAnd(NodeId a, NodeId b) { return mkAnd(std::vector<NodeId>{a, b}); }
    NodeId mkOr(NodeId a, NodeId b) { return mkOr(std::vector<NodeId>{a, b}); }
    NodeId mkImplies(NodeId a, NodeId b) { return mkOr(mkNot(a), b); }
    NodeId mkIff(NodeId a, NodeId b) {
        return mkAnd(mkImplies(a, b), mkImplies(b, a));
    }

    /// Σ coef_i·lit_i ≤ bound. Each term's var must be a Var node (or a Not
    /// of one, which is normalized into the negated flag); coefs must be > 0.
    /// Returns the smallest equivalent node: a constant; an And of the
    /// negated terms when any one true term breaks the bound; an Or of them
    /// when any one false term meets it (so at-least-one is a clause);
    /// otherwise the LinLeq node of an identical atom made earlier, if any.
    NodeId mkLinLeq(std::vector<LinTerm> terms, std::int64_t bound);
    /// Σ coef_i·lit_i ≥ bound (rewritten to a LinLeq over complements).
    NodeId mkLinGeq(std::vector<LinTerm> terms, std::int64_t bound);

    /// Cardinality sugar over plain variables/negations.
    NodeId mkAtMost(std::span<const NodeId> lits, int k);
    NodeId mkAtLeast(std::span<const NodeId> lits, int k);
    NodeId mkExactly(std::span<const NodeId> lits, int k) {
        return mkAnd(mkAtMost(lits, k), mkAtLeast(lits, k));
    }

    [[nodiscard]] const Node& node(NodeId id) const {
        expects(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
                "FormulaStore: invalid node id");
        return nodes_[static_cast<std::size_t>(id)];
    }

    [[nodiscard]] std::size_t size() const { return nodes_.size(); }

    /// Variables in creation order (useful for model dumps).
    [[nodiscard]] const std::vector<NodeId>& variables() const { return vars_; }

    /// Renders `id` as a human-readable string (for explanations/tests).
    [[nodiscard]] std::string toString(NodeId id) const;

    /// Evaluates `id` under a full assignment (var NodeId → bool).
    [[nodiscard]] bool evaluate(NodeId id,
                                const std::unordered_map<NodeId, bool>& model) const;

    /// Normalizes a literal-like node: returns (varNode, negated) when `id`
    /// is a Var or Not(Var); nullopt otherwise.
    [[nodiscard]] std::optional<std::pair<NodeId, bool>> asLiteral(NodeId id) const;

private:
    NodeId addNode(Node n);

    std::vector<Node> nodes_;
    std::vector<NodeId> vars_;
    std::unordered_map<std::string, NodeId> varIndex_;
    /// LinLeq nodes by a hash of (terms, bound): equal atoms share one node,
    /// and so one counter in every backend.
    std::unordered_multimap<std::uint64_t, NodeId> linLeqIndex_;
    NodeId trueId_ = kInvalidNode;
    NodeId falseId_ = kInvalidNode;
};

} // namespace lar::smt
