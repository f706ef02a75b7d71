#include "smt/formula.hpp"

#include <algorithm>
#include <limits>

namespace lar::smt {

FormulaStore::FormulaStore() {
    Node t;
    t.kind = NodeKind::Const;
    t.constValue = true;
    trueId_ = addNode(std::move(t));
    Node f;
    f.kind = NodeKind::Const;
    f.constValue = false;
    falseId_ = addNode(std::move(f));
}

NodeId FormulaStore::addNode(Node n) {
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId FormulaStore::var(const std::string& name) {
    if (auto it = varIndex_.find(name); it != varIndex_.end()) return it->second;
    Node n;
    n.kind = NodeKind::Var;
    n.name = name;
    const NodeId id = addNode(std::move(n));
    varIndex_.emplace(name, id);
    vars_.push_back(id);
    return id;
}

std::optional<NodeId> FormulaStore::findVar(const std::string& name) const {
    if (auto it = varIndex_.find(name); it != varIndex_.end()) return it->second;
    return std::nullopt;
}

NodeId FormulaStore::mkNot(NodeId f) {
    const Node& n = node(f);
    if (n.kind == NodeKind::Const) return constant(!n.constValue);
    if (n.kind == NodeKind::Not) return n.children[0];
    Node out;
    out.kind = NodeKind::Not;
    out.children = {f};
    return addNode(std::move(out));
}

NodeId FormulaStore::mkAnd(std::vector<NodeId> children) {
    std::vector<NodeId> kept;
    kept.reserve(children.size());
    for (const NodeId c : children) {
        const Node& n = node(c);
        if (n.kind == NodeKind::Const) {
            if (!n.constValue) return constant(false);
            continue; // true is neutral
        }
        kept.push_back(c);
    }
    if (kept.empty()) return constant(true);
    if (kept.size() == 1) return kept[0];
    Node out;
    out.kind = NodeKind::And;
    out.children = std::move(kept);
    return addNode(std::move(out));
}

NodeId FormulaStore::mkOr(std::vector<NodeId> children) {
    std::vector<NodeId> kept;
    kept.reserve(children.size());
    for (const NodeId c : children) {
        const Node& n = node(c);
        if (n.kind == NodeKind::Const) {
            if (n.constValue) return constant(true);
            continue; // false is neutral
        }
        kept.push_back(c);
    }
    if (kept.empty()) return constant(false);
    if (kept.size() == 1) return kept[0];
    Node out;
    out.kind = NodeKind::Or;
    out.children = std::move(kept);
    return addNode(std::move(out));
}

NodeId FormulaStore::mkLinLeq(std::vector<LinTerm> terms, std::int64_t bound) {
    std::int64_t total = 0;
    std::int64_t minCoef = std::numeric_limits<std::int64_t>::max();
    for (LinTerm& t : terms) {
        expects(t.coef > 0, "mkLinLeq: coefficients must be positive");
        // Normalize Not(Var) references.
        const auto lit = asLiteral(t.var);
        expects(lit.has_value(), "mkLinLeq: term must reference a variable");
        t.var = lit->first;
        t.negated = t.negated != lit->second;
        total += t.coef;
        minCoef = std::min(minCoef, t.coef);
    }
    if (bound < 0) return constant(false);
    if (total <= bound) return constant(true);
    // From here 0 ≤ bound < total. If one true term already breaks the
    // bound, every term is false; if one false term already meets it, some
    // term is false.
    const auto falseTerms = [&] {
        std::vector<NodeId> lits;
        lits.reserve(terms.size());
        for (const LinTerm& t : terms) lits.push_back(t.negated ? t.var : mkNot(t.var));
        return lits;
    };
    if (bound < minCoef) return mkAnd(falseTerms());
    if (total - bound <= minCoef) return mkOr(falseTerms());

    std::uint64_t key = static_cast<std::uint64_t>(bound);
    const auto mix = [&key](std::uint64_t v) { key = (key ^ v) * 0x100000001b3ULL; };
    for (const LinTerm& t : terms) {
        mix(static_cast<std::uint64_t>(t.coef));
        mix(static_cast<std::uint64_t>(t.var) << 1 | (t.negated ? 1 : 0));
        mix(static_cast<std::uint64_t>(t.group));
    }
    for (auto [it, end] = linLeqIndex_.equal_range(key); it != end; ++it) {
        const Node& n = nodes_[static_cast<std::size_t>(it->second)];
        if (n.bound == bound && n.terms == terms) return it->second;
    }
    Node out;
    out.kind = NodeKind::LinLeq;
    out.terms = std::move(terms);
    out.bound = bound;
    const NodeId id = addNode(std::move(out));
    linLeqIndex_.emplace(key, id);
    return id;
}

NodeId FormulaStore::mkLinGeq(std::vector<LinTerm> terms, std::int64_t bound) {
    // Σ c·l ≥ b  ⇔  Σ c·(1−l) ≤ Σc − b. Complemented literals lose the
    // exclusivity guarantee, so groups are cleared.
    std::int64_t total = 0;
    for (LinTerm& t : terms) {
        expects(t.coef > 0, "mkLinGeq: coefficients must be positive");
        total += t.coef;
        t.negated = !t.negated;
        t.group = -1;
    }
    if (bound <= 0) return constant(true);
    if (bound > total) return constant(false);
    return mkLinLeq(std::move(terms), total - bound);
}

NodeId FormulaStore::mkAtMost(std::span<const NodeId> lits, int k) {
    std::vector<LinTerm> terms;
    terms.reserve(lits.size());
    for (const NodeId l : lits) terms.push_back({1, l, false});
    return mkLinLeq(std::move(terms), k);
}

NodeId FormulaStore::mkAtLeast(std::span<const NodeId> lits, int k) {
    std::vector<LinTerm> terms;
    terms.reserve(lits.size());
    for (const NodeId l : lits) terms.push_back({1, l, false});
    return mkLinGeq(std::move(terms), k);
}

std::optional<std::pair<NodeId, bool>> FormulaStore::asLiteral(NodeId id) const {
    const Node& n = node(id);
    if (n.kind == NodeKind::Var) return std::make_pair(id, false);
    if (n.kind == NodeKind::Not) {
        const Node& inner = node(n.children[0]);
        if (inner.kind == NodeKind::Var)
            return std::make_pair(n.children[0], true);
    }
    return std::nullopt;
}

std::string FormulaStore::toString(NodeId id) const {
    const Node& n = node(id);
    switch (n.kind) {
        case NodeKind::Const: return n.constValue ? "true" : "false";
        case NodeKind::Var: return n.name;
        case NodeKind::Not: return "!" + toString(n.children[0]);
        case NodeKind::And:
        case NodeKind::Or: {
            std::string out = "(";
            const char* sep = n.kind == NodeKind::And ? " & " : " | ";
            for (std::size_t i = 0; i < n.children.size(); ++i) {
                if (i > 0) out += sep;
                out += toString(n.children[i]);
            }
            return out + ")";
        }
        case NodeKind::LinLeq: {
            std::string out = "(";
            for (std::size_t i = 0; i < n.terms.size(); ++i) {
                if (i > 0) out += " + ";
                const LinTerm& t = n.terms[i];
                if (t.coef != 1) out += std::to_string(t.coef) + "*";
                if (t.negated) out += "!";
                out += node(t.var).name;
            }
            return out + " <= " + std::to_string(n.bound) + ")";
        }
    }
    return "?";
}

bool FormulaStore::evaluate(NodeId id,
                            const std::unordered_map<NodeId, bool>& model) const {
    const Node& n = node(id);
    switch (n.kind) {
        case NodeKind::Const: return n.constValue;
        case NodeKind::Var: {
            const auto it = model.find(id);
            expects(it != model.end(), "evaluate: unassigned variable " + n.name);
            return it->second;
        }
        case NodeKind::Not: return !evaluate(n.children[0], model);
        case NodeKind::And:
            return std::all_of(n.children.begin(), n.children.end(),
                               [&](NodeId c) { return evaluate(c, model); });
        case NodeKind::Or:
            return std::any_of(n.children.begin(), n.children.end(),
                               [&](NodeId c) { return evaluate(c, model); });
        case NodeKind::LinLeq: {
            std::int64_t sum = 0;
            for (const LinTerm& t : n.terms) {
                const auto it = model.find(t.var);
                expects(it != model.end(), "evaluate: unassigned variable");
                if (it->second != t.negated) sum += t.coef;
            }
            return sum <= n.bound;
        }
    }
    return false;
}

} // namespace lar::smt
