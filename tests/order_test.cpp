#include <gtest/gtest.h>

#include "catalog/catalog.hpp"
#include "kb/objectives.hpp"
#include "order/poset.hpp"

namespace lar::order {
namespace {

using kb::Category;
using kb::CmpOp;
using kb::HardwareClass;
using kb::Requirement;

kb::KnowledgeBase makeStackKb() {
    // A miniature Figure-1: A > B unconditionally; B > C when fast NICs;
    // C > B when slow NICs; D incomparable to everything.
    kb::KnowledgeBase kb;
    for (const char* name : {"A", "B", "C", "D"}) {
        kb::System s;
        s.name = name;
        s.category = Category::NetworkStack;
        s.source = "test";
        kb.addSystem(std::move(s));
    }
    kb.addOrdering({"A", "B", kb::kObjThroughput, Requirement::alwaysTrue(), "t"});
    kb.addOrdering({"B", "C", kb::kObjThroughput,
                    Requirement::hardwareCmp(HardwareClass::Nic,
                                             kb::kAttrPortBandwidthGbps,
                                             CmpOp::Ge, 40.0),
                    "t"});
    kb.addOrdering({"C", "B", kb::kObjThroughput,
                    Requirement::hardwareCmp(HardwareClass::Nic,
                                             kb::kAttrPortBandwidthGbps,
                                             CmpOp::Lt, 40.0),
                    "t"});
    return kb;
}

kb::HardwareSpec nicWithBw(double gbps) {
    kb::HardwareSpec nic;
    nic.model = "test-nic";
    nic.cls = HardwareClass::Nic;
    nic.attrs[kb::kAttrPortBandwidthGbps] = gbps;
    return nic;
}

TEST(Context, EvaluatesAllKinds) {
    const kb::HardwareSpec nic = nicWithBw(100);
    Context ctx;
    ctx.hardware[HardwareClass::Nic] = &nic;
    ctx.presentSystems.insert("Linux");
    ctx.facts.insert("flooding");
    ctx.options.insert("pony");
    ctx.workloadProperties.insert("dc_flows");

    EXPECT_TRUE(ctx.evaluate(Requirement::alwaysTrue()));
    EXPECT_FALSE(ctx.evaluate(Requirement::alwaysFalse()));
    EXPECT_TRUE(ctx.evaluate(Requirement::systemPresent("Linux")));
    EXPECT_FALSE(ctx.evaluate(Requirement::systemPresent("Snap")));
    EXPECT_TRUE(ctx.evaluate(Requirement::fact("flooding")));
    EXPECT_FALSE(ctx.evaluate(Requirement::factAbsent("flooding")));
    EXPECT_TRUE(ctx.evaluate(Requirement::option("pony")));
    EXPECT_TRUE(ctx.evaluate(Requirement::workloadHas("dc_flows")));
    EXPECT_TRUE(ctx.evaluate(Requirement::hardwareCmp(
        HardwareClass::Nic, kb::kAttrPortBandwidthGbps, CmpOp::Ge, 40.0)));
    EXPECT_FALSE(ctx.evaluate(Requirement::hardwareCmp(
        HardwareClass::Nic, kb::kAttrPortBandwidthGbps, CmpOp::Lt, 40.0)));
    // Missing class / attr evaluates false.
    EXPECT_FALSE(ctx.evaluate(
        Requirement::hardwareHas(HardwareClass::Switch, kb::kAttrP4Supported)));
    EXPECT_FALSE(ctx.evaluate(
        Requirement::hardwareHas(HardwareClass::Nic, "no_such_attr")));
    // Connectives.
    EXPECT_TRUE(ctx.evaluate(
        Requirement::allOf({Requirement::fact("flooding"),
                            Requirement::option("pony")})));
    EXPECT_TRUE(ctx.evaluate(
        Requirement::anyOf({Requirement::alwaysFalse(),
                            Requirement::systemPresent("Linux")})));
}

TEST(PreferenceGraph, DirectAndTransitiveEdges) {
    const kb::KnowledgeBase kb = makeStackKb();
    const PreferenceGraph graph(kb, kb::kObjThroughput);
    const kb::HardwareSpec fast = nicWithBw(100);
    Context ctx;
    ctx.hardware[HardwareClass::Nic] = &fast;

    EXPECT_TRUE(graph.betterThan("A", "B", ctx));
    EXPECT_TRUE(graph.betterThan("B", "C", ctx));
    EXPECT_TRUE(graph.betterThan("A", "C", ctx)); // transitive
    EXPECT_FALSE(graph.betterThan("C", "A", ctx));
    EXPECT_TRUE(graph.strictlyBetter("A", "C", ctx));
}

TEST(PreferenceGraph, ConditionsFlipWithContext) {
    const kb::KnowledgeBase kb = makeStackKb();
    const PreferenceGraph graph(kb, kb::kObjThroughput);
    const kb::HardwareSpec slow = nicWithBw(10);
    Context ctx;
    ctx.hardware[HardwareClass::Nic] = &slow;
    EXPECT_FALSE(graph.betterThan("B", "C", ctx));
    EXPECT_TRUE(graph.betterThan("C", "B", ctx));
    // A > C now holds through nothing (A>B only reaches B; B is below C).
    EXPECT_FALSE(graph.betterThan("A", "C", ctx));
}

TEST(PreferenceGraph, IncomparabilityIsFirstClass) {
    const kb::KnowledgeBase kb = makeStackKb();
    const PreferenceGraph graph(kb, kb::kObjThroughput);
    Context ctx; // no hardware: conditional edges inactive
    EXPECT_TRUE(graph.incomparable("D", "A", ctx));
    EXPECT_TRUE(graph.incomparable("B", "C", ctx));
    EXPECT_FALSE(graph.incomparable("A", "B", ctx));
    EXPECT_FALSE(graph.incomparable("A", "A", ctx));
}

TEST(PreferenceGraph, MaximalElements) {
    const kb::KnowledgeBase kb = makeStackKb();
    const PreferenceGraph graph(kb, kb::kObjThroughput);
    const kb::HardwareSpec fast = nicWithBw(100);
    Context ctx;
    ctx.hardware[HardwareClass::Nic] = &fast;
    const auto maxima = graph.maximalElements({"A", "B", "C", "D"}, ctx);
    EXPECT_EQ(maxima, (std::vector<std::string>{"A", "D"}));
}

TEST(PreferenceGraph, CycleDetectionUnderContext) {
    kb::KnowledgeBase kb = makeStackKb();
    // Contradictory conditional knowledge that activates together.
    kb.addOrdering({"B", "A", kb::kObjThroughput,
                    Requirement::option("weird"), "t"});
    const PreferenceGraph graph(kb, kb::kObjThroughput);
    Context ctx;
    EXPECT_FALSE(graph.findCycle(ctx).has_value());
    ctx.options.insert("weird");
    const auto cycle = graph.findCycle(ctx);
    ASSERT_TRUE(cycle.has_value());
    EXPECT_GE(cycle->size(), 2u);
}

TEST(PreferenceGraph, DotExportContainsActiveEdges) {
    const kb::KnowledgeBase kb = makeStackKb();
    const PreferenceGraph graph(kb, kb::kObjThroughput);
    const kb::HardwareSpec fast = nicWithBw(100);
    Context ctx;
    ctx.hardware[HardwareClass::Nic] = &fast;
    const std::string dot = graph.toDot(ctx);
    EXPECT_NE(dot.find("\"A\" -> \"B\""), std::string::npos);
    EXPECT_NE(dot.find("\"B\" -> \"C\""), std::string::npos);
    EXPECT_EQ(dot.find("\"C\" -> \"B\""), std::string::npos); // inactive
}

TEST(PreferenceGraph, KnowledgeGaps) {
    const kb::KnowledgeBase kb = makeStackKb();
    const PreferenceGraph graph(kb, kb::kObjThroughput);
    const kb::HardwareSpec fast = nicWithBw(100);
    const kb::HardwareSpec slow = nicWithBw(10);
    Context fastCtx;
    fastCtx.hardware[HardwareClass::Nic] = &fast;
    Context slowCtx;
    slowCtx.hardware[HardwareClass::Nic] = &slow;
    const auto gaps =
        knowledgeGaps(graph, {"A", "B", "C", "D"}, {fastCtx, slowCtx});
    // D vs everything is a gap in both contexts; B vs C is ordered in both.
    EXPECT_EQ(gaps.size(), 3u);
    for (const auto& [a, b] : gaps) EXPECT_TRUE(a == "D" || b == "D");
}

// --- Figure 1, from the real catalog -----------------------------------------

class Figure1Test : public ::testing::Test {
protected:
    Figure1Test() : kb_(catalog::buildKnowledgeBase()) {}

    Context contextWith(double nicGbps, bool pony) const {
        Context ctx;
        nic_.model = "ctx-nic";
        nic_.cls = HardwareClass::Nic;
        nic_.attrs[kb::kAttrPortBandwidthGbps] = nicGbps;
        ctx.hardware[HardwareClass::Nic] = &nic_;
        if (pony) ctx.options.insert("pony_enabled");
        return ctx;
    }

    kb::KnowledgeBase kb_;
    mutable kb::HardwareSpec nic_;
};

TEST_F(Figure1Test, ThroughputAbove40G) {
    const PreferenceGraph graph(kb_, kb::kObjThroughput);
    const Context ctx = contextWith(100, true);
    EXPECT_TRUE(graph.strictlyBetter("NetChannel", "Linux", ctx));
    EXPECT_TRUE(graph.strictlyBetter("NetChannel", "Snap", ctx));
    EXPECT_TRUE(graph.strictlyBetter("Snap", "Linux", ctx));
}

TEST_F(Figure1Test, ThroughputBelow40GFlipsNetChannel) {
    const PreferenceGraph graph(kb_, kb::kObjThroughput);
    const Context ctx = contextWith(10, false);
    EXPECT_TRUE(graph.strictlyBetter("Linux", "NetChannel", ctx));
    // Without Pony, Snap is not known to beat Linux on throughput.
    EXPECT_FALSE(graph.betterThan("Snap", "Linux", ctx));
}

TEST_F(Figure1Test, ShenangoDemikernelIsolationGapPreserved) {
    // The paper explicitly keeps this pair incomparable on isolation (§3.1).
    const PreferenceGraph graph(kb_, kb::kObjIsolation);
    const Context ctx = contextWith(100, true);
    EXPECT_TRUE(graph.incomparable("Shenango", "Demikernel", ctx));
    // But Snap > Shenango and Linux > Shenango are known.
    EXPECT_TRUE(graph.strictlyBetter("Snap", "Shenango", ctx));
    EXPECT_TRUE(graph.strictlyBetter("Linux", "Shenango", ctx));
}

TEST_F(Figure1Test, PonyCostsAppModification) {
    const PreferenceGraph graph(kb_, kb::kObjAppModification);
    EXPECT_TRUE(
        graph.strictlyBetter("Linux", "Snap", contextWith(100, true)));
    EXPECT_FALSE(graph.betterThan("Linux", "Snap", contextWith(100, false)));
    // Demikernel's new libOS API costs modification whatever the context.
    EXPECT_TRUE(
        graph.strictlyBetter("Linux", "Demikernel", contextWith(100, true)));
}

TEST_F(Figure1Test, ListingTwoMonitoringOrderings) {
    const Context ctx = contextWith(100, false);
    const PreferenceGraph monitoring(kb_, kb::kObjMonitoring);
    EXPECT_TRUE(monitoring.strictlyBetter("SIMON", "PingMesh", ctx));
    const PreferenceGraph ease(kb_, kb::kObjDeploymentEase);
    EXPECT_TRUE(ease.strictlyBetter("PingMesh", "SIMON", ctx));
}

TEST_F(Figure1Test, NoCycleInAnyObjectiveUnderCommonContexts) {
    std::set<std::string> objectives;
    for (const kb::Ordering& o : kb_.orderings()) objectives.insert(o.objective);
    for (const std::string& objective : objectives) {
        const PreferenceGraph graph(kb_, objective);
        for (const double bw : {10.0, 100.0}) {
            for (const bool pony : {false, true}) {
                Context ctx = contextWith(bw, pony);
                ctx.workloadProperties = {"dc_flows", "short_flows", "wan_flows",
                                          "wan_dc_traffic_compete",
                                          "incast_heavy", "long_flows"};
                EXPECT_FALSE(graph.findCycle(ctx).has_value())
                    << "objective " << objective << " bw " << bw;
            }
        }
    }
}

} // namespace
} // namespace lar::order
