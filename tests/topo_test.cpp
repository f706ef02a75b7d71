#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <regex>
#include <set>

#include "doc_section.hpp"
#include "topo/loadbalance.hpp"
#include "topo/pfc.hpp"
#include "util/error.hpp"

namespace lar::topo {
namespace {

TEST(FatTree, NodeAndLinkCounts) {
    const FatTree t(4);
    // k=4: 16 hosts, 4 core, 8 edge, 8 agg.
    EXPECT_EQ(t.hosts().size(), 16u);
    EXPECT_EQ(t.switches().size(), 20u);
    // Cables: 16 host links + 16 edge-agg + 16 agg-core = 48, ×2 directions.
    EXPECT_EQ(t.links().size(), 96u);
}

TEST(FatTree, RejectsBadK) {
    EXPECT_THROW(FatTree(3), LogicError);
    EXPECT_THROW(FatTree(0), LogicError);
}

TEST(FatTree, LinkDirectionsConsistent) {
    const FatTree t(4);
    for (const Link& l : t.links()) {
        const Node& from = t.node(l.from);
        const Node& to = t.node(l.to);
        if (l.up) {
            EXPECT_LT(static_cast<int>(from.kind), static_cast<int>(to.kind))
                << from.name << "->" << to.name;
        } else {
            EXPECT_GT(static_cast<int>(from.kind), static_cast<int>(to.kind));
        }
    }
}

TEST(FatTree, FindLinkInverseOfTopology) {
    const FatTree t(4);
    for (const Link& l : t.links()) {
        EXPECT_EQ(t.findLink(l.from, l.to), l.id);
        EXPECT_GE(t.findLink(l.to, l.from), 0); // reverse direction exists
    }
    EXPECT_EQ(t.findLink(t.hosts()[0], t.hosts()[1]), -1);
}

TEST(Routing, UpDownRouteIsValleyFree) {
    const FatTree t(8);
    util::Rng rng(1);
    for (const Route& route : sampleUpDownRoutes(t, 200, rng)) {
        bool descended = false;
        for (const int linkId : route.linkIds) {
            if (!t.link(linkId).up) descended = true;
            // Once going down, never up again (valley-free).
            if (descended) EXPECT_FALSE(t.link(linkId).up);
        }
        // Endpoints connect.
        EXPECT_EQ(t.link(route.linkIds.front()).from, route.srcHost);
        EXPECT_EQ(t.link(route.linkIds.back()).to, route.dstHost);
        for (std::size_t i = 0; i + 1 < route.linkIds.size(); ++i)
            EXPECT_EQ(t.link(route.linkIds[i]).to,
                      t.link(route.linkIds[i + 1]).from);
    }
}

TEST(Routing, SamePodAndCrossPodRoutes) {
    const FatTree t(4);
    // Hosts under the same edge switch: 2-hop route.
    const Route sameEdge = upDownRoute(t, t.hosts()[0], t.hosts()[1]);
    EXPECT_EQ(sameEdge.linkIds.size(), 2u);
    // Cross-pod: up to core and down = 6 links.
    const Route crossPod = upDownRoute(t, t.hosts()[0], t.hosts().back());
    EXPECT_EQ(crossPod.linkIds.size(), 6u);
}

TEST(Routing, RouteTurnsDeduplicated) {
    const FatTree t(4);
    const Route r = upDownRoute(t, t.hosts()[0], t.hosts().back());
    const std::vector<Route> twice{r, r};
    const auto turns = routeTurns(t, twice);
    EXPECT_EQ(turns.size(), r.linkIds.size() - 1);
}

TEST(Routing, FloodingIncludesDownUpTurns) {
    const FatTree t(4);
    const auto turns = floodingTurns(t);
    bool downUp = false;
    for (const Turn& turn : turns) {
        if (!t.link(turn.inLink).up && t.link(turn.outLink).up) downUp = true;
        // Never reflect straight back.
        EXPECT_NE(t.link(turn.outLink).to, t.link(turn.inLink).from);
    }
    EXPECT_TRUE(downUp);
}

// --- PFC deadlock: the §2.2 Microsoft story -----------------------------------

// At every k the §3.4 expert rule ("PFC cannot be used with any flooding
// algorithm") must reach the graph analysis' verdict.
class PfcSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PfcSweepTest, UpDownRoutingIsDeadlockFree) {
    const PfcAnalysis analysis =
        analyzePfcDeadlock(GetParam(), /*routePairs=*/300,
                           /*floodingEnabled=*/false, /*seed=*/7);
    EXPECT_FALSE(analysis.deadlockPossible) << "k=" << GetParam();
    EXPECT_EQ(analysis.deadlockPossible, pfcExpertRuleUnsafe(true, false));
    EXPECT_GT(analysis.dependencies, 0u);
}

TEST_P(PfcSweepTest, FloodingIntroducesDeadlockCycle) {
    const PfcAnalysis analysis =
        analyzePfcDeadlock(GetParam(), /*routePairs=*/300,
                           /*floodingEnabled=*/true, /*seed=*/7);
    EXPECT_TRUE(analysis.deadlockPossible) << "k=" << GetParam();
    EXPECT_EQ(analysis.deadlockPossible, pfcExpertRuleUnsafe(true, true));
    EXPECT_GE(analysis.cycle.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Ks, PfcSweepTest, ::testing::Values(4, 6, 8, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return "k" + std::to_string(info.param);
                         });

TEST(Pfc, ExpertRuleMatchesGraphAnalysisOnTheStory) {
    // §3.4: the expert rule "PFC cannot be used with flooding" reaches the
    // same verdict as the deep graph analysis, at zero analysis cost.
    EXPECT_FALSE(pfcExpertRuleUnsafe(true, false));
    EXPECT_TRUE(pfcExpertRuleUnsafe(true, true));
    EXPECT_FALSE(pfcExpertRuleUnsafe(false, true));
    const PfcAnalysis clean = analyzePfcDeadlock(4, 100, false, 3);
    const PfcAnalysis flooded = analyzePfcDeadlock(4, 100, true, 3);
    EXPECT_EQ(clean.deadlockPossible, pfcExpertRuleUnsafe(true, false));
    EXPECT_EQ(flooded.deadlockPossible, pfcExpertRuleUnsafe(true, true));
}

TEST(Pfc, CycleIsActualCycleInDependencyGraph) {
    const FatTree t(4);
    util::Rng rng(5);
    auto routes = sampleUpDownRoutes(t, 100, rng);
    auto turns = routeTurns(t, routes);
    const auto flood = floodingTurns(t);
    turns.insert(turns.end(), flood.begin(), flood.end());
    const BufferDependencyGraph graph(t, turns);
    const auto cycle = graph.findCycle();
    ASSERT_TRUE(cycle.has_value());
    // Verify each consecutive pair is a real dependency (turn).
    const auto isTurn = [&turns](int a, int b) {
        return std::any_of(turns.begin(), turns.end(), [a, b](const Turn& turn) {
            return turn.inLink == a && turn.outLink == b;
        });
    };
    for (std::size_t i = 0; i < cycle->size(); ++i) {
        const int a = (*cycle)[i];
        const int b = (*cycle)[(i + 1) % cycle->size()];
        EXPECT_TRUE(isTurn(a, b)) << "missing dependency " << a << "->" << b;
    }
    EXPECT_FALSE(graph.describeCycle(t, *cycle).empty());
}

// --- load-balancing simulation (§2.3 ECMP-imbalance claim) -------------------

TEST(LoadBalance, TrafficMatrixShape) {
    const FatTree t(4);
    util::Rng rng(3);
    const auto flows = randomTrafficMatrix(t, 100, rng);
    ASSERT_EQ(flows.size(), 100u);
    for (const Flow& f : flows) {
        EXPECT_NE(f.srcHost, f.dstHost);
        EXPECT_EQ(t.node(f.srcHost).kind, NodeKind::Host);
        EXPECT_EQ(t.node(f.dstHost).kind, NodeKind::Host);
        EXPECT_GT(f.rateGbps, 0);
    }
}

TEST(LoadBalance, SprayingConservesTraffic) {
    // Total fabric load must match between schemes for inter-edge flows
    // (same hops per unit of traffic at each level on a fat-tree).
    const FatTree t(4);
    util::Rng rng(9);
    const auto flows = randomTrafficMatrix(t, 200, rng);
    const LoadReport ecmp = simulateEcmp(t, flows);
    const LoadReport spray = simulateSpraying(t, flows);
    EXPECT_GT(ecmp.maxLinkLoadGbps, 0);
    EXPECT_GT(spray.maxLinkLoadGbps, 0);
    // Spraying never produces a hotter link than ECMP's worst.
    EXPECT_LE(spray.maxLinkLoadGbps, ecmp.maxLinkLoadGbps + 1e-9);
}

TEST(LoadBalance, EcmpImbalanceExceedsSpraying) {
    // EXPERIMENTS.md SEC23b: one row per fat-tree, peak/mean link load to
    // two decimals.
    const std::string section = test::docSection(LAR_EXPERIMENTS_MD, "SEC23b");
    const std::regex row(
        R"(\| k=(\d+) \| (\d+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+)× \|)");
    std::map<int, std::smatch> documented;
    for (auto it = std::sregex_iterator(section.begin(), section.end(), row);
         it != std::sregex_iterator(); ++it)
        documented[std::stoi((*it)[1])] = *it;

    const auto twoDecimals = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.2f", v);
        return std::string(buf);
    };
    for (const int k : {4, 8, 16}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        const FatTree t(k);
        util::Rng rng(2024);
        const int flowCount = static_cast<int>(t.hosts().size()) * 4;
        const auto flows = randomTrafficMatrix(t, flowCount, rng);
        const LoadReport ecmp = simulateEcmp(t, flows);
        const LoadReport spray = simulateSpraying(t, flows);
        // Hash collisions of heavy flows make ECMP meaningfully worse.
        EXPECT_GE(ecmp.imbalance(), spray.imbalance() * 1.2);
        // Spraying is close to uniform across the symmetric fabric.
        EXPECT_LT(spray.imbalance(), 4.0);

        ASSERT_TRUE(documented.count(k));
        const std::smatch& m = documented.at(k);
        EXPECT_EQ(std::stoi(m[2]), flowCount);
        EXPECT_EQ(m[3].str(), twoDecimals(ecmp.imbalance()));
        EXPECT_EQ(m[4].str(), twoDecimals(spray.imbalance()));
        EXPECT_EQ(m[5].str(),
                  twoDecimals(ecmp.imbalance() / spray.imbalance()));
    }
}

TEST(LoadBalance, SingleFlowSprayUsesAllPaths) {
    const FatTree t(4);
    // One cross-pod flow: ECMP loads one core link; spraying loads four.
    const std::vector<Flow> one{{t.hosts().front(), t.hosts().back(), 1.0}};
    const LoadReport ecmp = simulateEcmp(t, one);
    const LoadReport spray = simulateSpraying(t, one);
    EXPECT_DOUBLE_EQ(ecmp.maxLinkLoadGbps, 1.0);
    EXPECT_NEAR(spray.maxLinkLoadGbps, 0.5, 1e-9); // edge→agg split over 2
}

TEST(Pfc, EmptyTurnSetIsAcyclic) {
    const FatTree t(4);
    const BufferDependencyGraph graph(t, {});
    EXPECT_FALSE(graph.findCycle().has_value());
    EXPECT_EQ(graph.dependencyCount(), 0u);
}

} // namespace
} // namespace lar::topo
