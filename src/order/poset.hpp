// Conditional preference graph over systems, per objective (Figure 1).
//
// Edges come from the knowledge base's Ordering rules of thumb; each edge is
// active only when its condition holds in the evaluation context. Queries
// (better-than, comparability, maximal elements) operate on the transitive
// closure of the active edges. Incomparability is first-class: the paper
// stresses that rules-of-thumb are incomplete, and "no edge" means "no
// knowledge", not equality.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kb/kb.hpp"
#include "order/context.hpp"

namespace lar::order {

class PreferenceGraph {
public:
    /// Builds the graph for one objective from the KB's orderings.
    PreferenceGraph(const kb::KnowledgeBase& kb, std::string objective);

    [[nodiscard]] const std::string& objective() const { return objective_; }

    /// Edges whose condition holds under `ctx`.
    [[nodiscard]] std::vector<const kb::Ordering*> activeEdges(
        const Context& ctx) const;

    /// True when `a` is transitively preferred to `b` under `ctx`.
    [[nodiscard]] bool betterThan(const std::string& a, const std::string& b,
                                  const Context& ctx) const;

    /// Preferred in one direction and not the other (guards against cycles
    /// introduced by conditional edges).
    [[nodiscard]] bool strictlyBetter(const std::string& a, const std::string& b,
                                      const Context& ctx) const;

    /// Neither direction is known: a knowledge gap (§3.1 — may warrant a
    /// measurement if it changes the design).
    [[nodiscard]] bool incomparable(const std::string& a, const std::string& b,
                                    const Context& ctx) const;

    /// Subset of `candidates` not strictly beaten by another candidate.
    [[nodiscard]] std::vector<std::string> maximalElements(
        const std::vector<std::string>& candidates, const Context& ctx) const;

    /// A preference cycle under `ctx` (contradictory rules of thumb), if any.
    [[nodiscard]] std::optional<std::vector<std::string>> findCycle(
        const Context& ctx) const;

    /// All systems mentioned by this objective's orderings.
    [[nodiscard]] std::vector<std::string> systems() const;

    /// Graphviz rendering of the active edges (Figure-1 style). When
    /// `restrictTo` is non-empty, only edges between the listed systems are
    /// rendered (e.g. just the six Figure-1 stacks).
    [[nodiscard]] std::string toDot(
        const Context& ctx, const std::vector<std::string>& restrictTo = {}) const;

    /// Hasse edges under `ctx`: the transitive reduction of the active
    /// preference relation (an edge a→b survives only when no intermediate
    /// c has a→c→b). This is the clutter-free Figure-1 view.
    [[nodiscard]] std::vector<std::pair<std::string, std::string>> hasseEdges(
        const Context& ctx) const;

    /// Systems ranked into levels by longest path from a maximal element
    /// (level 0 = best). Incomparable systems share a level.
    [[nodiscard]] std::vector<std::vector<std::string>> levels(
        const Context& ctx) const;

private:
    std::string objective_;
    std::vector<kb::Ordering> edges_;
};

/// All pairs of distinct `candidates` that are incomparable under every one
/// of the provided contexts — the knowledge gaps worth measuring.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> knowledgeGaps(
    const PreferenceGraph& graph, const std::vector<std::string>& candidates,
    const std::vector<Context>& contexts);

} // namespace lar::order
