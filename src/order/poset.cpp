#include "order/poset.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <set>

namespace lar::order {

PreferenceGraph::PreferenceGraph(const kb::KnowledgeBase& kb,
                                 std::string objective)
    : objective_(std::move(objective)) {
    for (const kb::Ordering* o : kb.orderingsFor(objective_)) edges_.push_back(*o);
}

std::vector<const kb::Ordering*> PreferenceGraph::activeEdges(
    const Context& ctx) const {
    std::vector<const kb::Ordering*> out;
    for (const kb::Ordering& e : edges_)
        if (ctx.evaluate(e.condition)) out.push_back(&e);
    return out;
}

bool PreferenceGraph::betterThan(const std::string& a, const std::string& b,
                                 const Context& ctx) const {
    if (a == b) return false;
    // BFS over active edges from a.
    const auto active = activeEdges(ctx);
    std::map<std::string, std::vector<std::string>> adj;
    for (const kb::Ordering* e : active) adj[e->better].push_back(e->worse);
    std::set<std::string> seen{a};
    std::deque<std::string> queue{a};
    while (!queue.empty()) {
        const std::string cur = queue.front();
        queue.pop_front();
        for (const std::string& next : adj[cur]) {
            if (next == b) return true;
            if (seen.insert(next).second) queue.push_back(next);
        }
    }
    return false;
}

bool PreferenceGraph::strictlyBetter(const std::string& a, const std::string& b,
                                     const Context& ctx) const {
    return betterThan(a, b, ctx) && !betterThan(b, a, ctx);
}

bool PreferenceGraph::incomparable(const std::string& a, const std::string& b,
                                   const Context& ctx) const {
    if (a == b) return false;
    return !betterThan(a, b, ctx) && !betterThan(b, a, ctx);
}

std::vector<std::string> PreferenceGraph::maximalElements(
    const std::vector<std::string>& candidates, const Context& ctx) const {
    std::vector<std::string> out;
    for (const std::string& c : candidates) {
        const bool beaten = std::any_of(
            candidates.begin(), candidates.end(), [&](const std::string& other) {
                return other != c && strictlyBetter(other, c, ctx);
            });
        if (!beaten) out.push_back(c);
    }
    return out;
}

std::optional<std::vector<std::string>> PreferenceGraph::findCycle(
    const Context& ctx) const {
    const auto active = activeEdges(ctx);
    std::map<std::string, std::vector<std::string>> adj;
    std::set<std::string> nodes;
    for (const kb::Ordering* e : active) {
        adj[e->better].push_back(e->worse);
        nodes.insert(e->better);
        nodes.insert(e->worse);
    }
    std::map<std::string, int> state; // 0 unseen, 1 active, 2 done
    std::vector<std::string> stack;
    std::optional<std::vector<std::string>> cycle;

    const std::function<bool(const std::string&)> dfs =
        [&](const std::string& node) -> bool {
        state[node] = 1;
        stack.push_back(node);
        for (const std::string& next : adj[node]) {
            if (state[next] == 1) {
                // Extract the cycle from the stack.
                std::vector<std::string> found;
                auto it = std::find(stack.begin(), stack.end(), next);
                for (; it != stack.end(); ++it) found.push_back(*it);
                cycle = std::move(found);
                return true;
            }
            if (state[next] == 0 && dfs(next)) return true;
        }
        stack.pop_back();
        state[node] = 2;
        return false;
    };
    for (const std::string& node : nodes)
        if (state[node] == 0 && dfs(node)) return cycle;
    return std::nullopt;
}

std::vector<std::string> PreferenceGraph::systems() const {
    std::set<std::string> names;
    for (const kb::Ordering& e : edges_) {
        names.insert(e.better);
        names.insert(e.worse);
    }
    return {names.begin(), names.end()};
}

std::string PreferenceGraph::toDot(const Context& ctx,
                                   const std::vector<std::string>& restrictTo) const {
    const auto included = [&restrictTo](const std::string& name) {
        return restrictTo.empty() ||
               std::find(restrictTo.begin(), restrictTo.end(), name) !=
                   restrictTo.end();
    };
    std::string out = "digraph \"" + objective_ + "\" {\n";
    out += "  label=\"" + objective_ + "\";\n";
    for (const kb::Ordering* e : activeEdges(ctx)) {
        if (!included(e->better) || !included(e->worse)) continue;
        out += "  \"" + e->better + "\" -> \"" + e->worse + "\"";
        if (!e->condition.isTrivial())
            out += " [label=\"" + e->condition.toString() + "\"]";
        out += ";\n";
    }
    out += "}\n";
    return out;
}

std::vector<std::pair<std::string, std::string>> PreferenceGraph::hasseEdges(
    const Context& ctx) const {
    // Direct active edges whose endpoints have no two-step witness.
    std::set<std::pair<std::string, std::string>> direct;
    for (const kb::Ordering* e : activeEdges(ctx)) direct.insert({e->better, e->worse});
    std::vector<std::pair<std::string, std::string>> hasse;
    for (const auto& [a, b] : direct) {
        if (a == b) continue;
        bool shortcut = false;
        for (const auto& [c, d] : direct) {
            if (c != a || d == b) continue;
            if (betterThan(d, b, ctx)) {
                shortcut = true; // a → d →⁺ b witnesses transitivity
                break;
            }
        }
        if (!shortcut) hasse.emplace_back(a, b);
    }
    return hasse;
}

std::vector<std::vector<std::string>> PreferenceGraph::levels(
    const Context& ctx) const {
    const std::vector<std::string> all = systems();
    // Level of s = length of the longest chain of strictly-better systems.
    std::map<std::string, int> level;
    const std::function<int(const std::string&)> depth =
        [&](const std::string& s) -> int {
        if (const auto it = level.find(s); it != level.end()) return it->second;
        level[s] = 0; // guards conditional cycles
        int best = 0;
        for (const std::string& other : all)
            if (other != s && strictlyBetter(other, s, ctx))
                best = std::max(best, depth(other) + 1);
        level[s] = best;
        return best;
    };
    int maxLevel = 0;
    for (const std::string& s : all) maxLevel = std::max(maxLevel, depth(s));
    std::vector<std::vector<std::string>> out(static_cast<std::size_t>(maxLevel) + 1);
    for (const std::string& s : all)
        out[static_cast<std::size_t>(level[s])].push_back(s);
    return out;
}

std::vector<std::pair<std::string, std::string>> knowledgeGaps(
    const PreferenceGraph& graph, const std::vector<std::string>& candidates,
    const std::vector<Context>& contexts) {
    std::vector<std::pair<std::string, std::string>> gaps;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        for (std::size_t j = i + 1; j < candidates.size(); ++j) {
            const bool alwaysIncomparable = std::all_of(
                contexts.begin(), contexts.end(), [&](const Context& ctx) {
                    return graph.incomparable(candidates[i], candidates[j], ctx);
                });
            if (alwaysIncomparable) gaps.emplace_back(candidates[i], candidates[j]);
        }
    }
    return gaps;
}

} // namespace lar::order
