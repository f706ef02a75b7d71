#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <regex>

#include "catalog/catalog.hpp"
#include "doc_section.hpp"
#include "kb/objectives.hpp"
#include "order/poset.hpp"
#include "reason/engine.hpp"
#include "reason/validate.hpp"
#include "util/stopwatch.hpp"

namespace lar::reason {
namespace {

using catalog::kCapDetectQueueLength;
using kb::Category;
using kb::HardwareClass;

class ReasonTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        kb_ = new kb::KnowledgeBase(catalog::buildKnowledgeBase());
    }
    static void TearDownTestSuite() {
        delete kb_;
        kb_ = nullptr;
    }

    /// The §2.3 case-study problem shape.
    Problem caseStudyProblem() const {
        Problem p = makeDefaultProblem(*kb_);
        p.hardware[HardwareClass::Server].count = 60;
        p.hardware[HardwareClass::Switch].count = 8;
        p.hardware[HardwareClass::Nic].count = 60;
        p.workloads = {catalog::makeInferenceWorkload()};
        p.objectivePriority = {kb::kObjLatency, kb::kObjHardwareCost,
                               kb::kObjMonitoring};
        p.requiredCapabilities = {kCapDetectQueueLength};
        return p;
    }

    static kb::KnowledgeBase* kb_;
};

kb::KnowledgeBase* ReasonTest::kb_ = nullptr;

TEST_F(ReasonTest, DefaultProblemIsFeasible) {
    Problem p = makeDefaultProblem(*kb_);
    Engine engine(p);
    EXPECT_TRUE(engine.checkFeasible().feasible);
}

TEST_F(ReasonTest, CaseStudyIsFeasibleAndValid) {
    const Problem p = caseStudyProblem();
    Engine engine(p);
    const auto design = engine.synthesize();
    ASSERT_TRUE(design.has_value());
    const auto violations = validateDesign(p, *design);
    EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_F(ReasonTest, OptimizedDesignValidatesAndFillsRequiredRoles) {
    const Problem p = caseStudyProblem();
    Engine engine(p);
    const auto design = engine.optimize();
    ASSERT_TRUE(design.has_value());
    EXPECT_TRUE(design->chosen.count(Category::NetworkStack));
    EXPECT_TRUE(design->chosen.count(Category::CongestionControl));
    // Required capability forces a monitoring-capable system.
    const auto violations = validateDesign(p, *design);
    EXPECT_TRUE(violations.empty()) << violations.front();
    // Lexicographic costs reported for each level (+ implicit parsimony).
    EXPECT_EQ(design->objectiveCosts.size(), 4u);
}

TEST_F(ReasonTest, PerformanceBoundForcesCongaAndP4Switch) {
    // Listing 3's bound (beat PacketSpray on load balancing) can only be met
    // by CONGA in the catalog, which needs a P4 switch: the §2.3 ripple.
    const Problem p = caseStudyProblem();
    Engine engine(p);
    const auto design = engine.optimize();
    ASSERT_TRUE(design.has_value());
    EXPECT_EQ(design->chosen.at(Category::LoadBalancer), "CONGA");
    const kb::HardwareSpec& sw =
        kb_->hardware(design->hardwareModel.at(HardwareClass::Switch));
    EXPECT_TRUE(sw.boolAttr(kb::kAttrP4Supported).value_or(false));
}

// --- the §2.3 case study as the paper narrates it (EXPERIMENTS.md SEC23) ----

/// The case-study deployment before the architect states any goal: no
/// performance bound, objective or capability.
Problem narrativeStart(Problem p) {
    p.workloads[0].bounds.clear();
    p.objectivePriority.clear();
    p.requiredCapabilities.clear();
    return p;
}

TEST_F(ReasonTest, CaseStudyNaiveDesignIsFeasibleButDominatedOnLatency) {
    // Step 0: the simplest choices deploy, but each is dominated on latency.
    Problem naive = narrativeStart(caseStudyProblem());
    for (const char* name : {"OVS", "Linux", "Cubic", "ECMP"})
        naive.pinnedSystems[name] = true;
    EXPECT_TRUE(Engine(naive).optimize().has_value());

    order::Context ctx;
    ctx.hardware[HardwareClass::Nic] = &kb_->hardware("Intel X710 10G");
    ctx.workloadProperties = {kb::kPropDcFlows, kb::kPropShortFlows};
    const order::PreferenceGraph latency(*kb_, kb::kObjLatency);
    EXPECT_TRUE(latency.strictlyBetter("Shenango", "Linux", ctx));
    EXPECT_TRUE(latency.strictlyBetter("DCTCP", "Cubic", ctx));
}

TEST_F(ReasonTest, CaseStudyGoalsRippleThroughTheDesign) {
    // Step 1: the latency goal alone redesigns the deployment.
    Problem latencyGoal = narrativeStart(caseStudyProblem());
    latencyGoal.objectivePriority = {kb::kObjLatency, kb::kObjHardwareCost};
    EXPECT_TRUE(Engine(latencyGoal).optimize().has_value());

    // Step 2 (Listing 3): beating PacketSpray needs CONGA, and CONGA a P4
    // switch.
    Problem lbGoal = latencyGoal;
    lbGoal.workloads[0].bounds = {{kb::kObjLoadBalancing, "PacketSpray"}};
    const auto lbDesign = Engine(lbGoal).optimize();
    ASSERT_TRUE(lbDesign.has_value());
    EXPECT_EQ(lbDesign->chosen.at(Category::LoadBalancer), "CONGA");
    EXPECT_TRUE(
        kb_->hardware(lbDesign->hardwareModel.at(HardwareClass::Switch))
            .boolAttr(kb::kAttrP4Supported)
            .value_or(false));

    // Step 3: a queue-length monitoring goal; the design still validates.
    Problem monGoal = lbGoal;
    monGoal.requiredCapabilities = {kCapDetectQueueLength};
    monGoal.objectivePriority = {kb::kObjLatency, kb::kObjHardwareCost,
                                 kb::kObjMonitoring};
    const auto monDesign = Engine(monGoal).optimize();
    ASSERT_TRUE(monDesign.has_value());
    EXPECT_TRUE(validateDesign(monGoal, *monDesign).empty());

    // Step 4: a sharp deadline swaps out every research prototype.
    Problem deadline = monGoal;
    deadline.forbidResearchGrade = true;
    const auto deadlineDesign = Engine(deadline).optimize();
    ASSERT_TRUE(deadlineDesign.has_value());
    for (const auto& [category, name] : deadlineDesign->chosen)
        EXPECT_FALSE(kb_->system(name).researchGrade) << name;
}

TEST_F(ReasonTest, InfeasibilityExplainedWithRuleNames) {
    Problem p = caseStudyProblem();
    // Pin a non-P4 switch: the load-balancing bound (CONGA) now conflicts.
    p.hardware[HardwareClass::Switch].pinnedModel = "Cisco Catalyst 9500-40X";
    Engine engine(p);
    const FeasibilityReport report = engine.checkFeasible();
    ASSERT_FALSE(report.feasible);
    ASSERT_FALSE(report.conflictingRules.empty());
    const bool mentionsPin = std::any_of(
        report.conflictingRules.begin(), report.conflictingRules.end(),
        [](const std::string& rule) {
            return rule.find("pinned hardware") != std::string::npos;
        });
    // The 10G fixed-function switch breaks the design in more than one way
    // (the CONGA bound needs P4; the queue-length goal needs SmartNICs that
    // outpace the 10G ports) — the core must surface at least one of them.
    const bool mentionsSubstance = std::any_of(
        report.conflictingRules.begin(), report.conflictingRules.end(),
        [](const std::string& rule) {
            return rule.find("performance bound") != std::string::npos ||
                   rule.find("detect_queue_length") != std::string::npos;
        });
    EXPECT_TRUE(mentionsPin);
    EXPECT_TRUE(mentionsSubstance);
}

TEST_F(ReasonTest, MinimalConflictIsSmallAndIrreducible) {
    Problem p = caseStudyProblem();
    p.hardware[HardwareClass::Switch].pinnedModel = "Cisco Catalyst 9500-40X";
    Engine plain(p);
    const FeasibilityReport full = plain.checkFeasible();
    ASSERT_FALSE(full.feasible);

    Engine minimal(p);
    const FeasibilityReport shrunk = minimal.explainMinimalConflict();
    ASSERT_FALSE(shrunk.feasible);
    EXPECT_FALSE(shrunk.conflictingRules.empty());
    EXPECT_LE(shrunk.conflictingRules.size(), full.conflictingRules.size());
    // Each remaining rule must name a concrete entity; "minimal" can still
    // be a few dozen rules when the explanation has to exclude every
    // SmartNIC model one by one.
    for (const std::string& rule : shrunk.conflictingRules)
        EXPECT_FALSE(rule.empty());
}

TEST_F(ReasonTest, ResearchGradeExclusion) {
    Problem p = caseStudyProblem();
    p.forbidResearchGrade = true;
    Engine engine(p);
    const auto design = engine.optimize();
    ASSERT_TRUE(design.has_value());
    for (const auto& [category, name] : design->chosen)
        EXPECT_FALSE(kb_->system(name).researchGrade) << name;
}

TEST_F(ReasonTest, PinnedSystemIsKept) {
    Problem p = caseStudyProblem();
    p.pinnedSystems["Sonata"] = true;
    Engine engine(p);
    const auto design = engine.optimize();
    ASSERT_TRUE(design.has_value());
    EXPECT_TRUE(design->uses("Sonata"));
    // Sonata requires a P4 switch; the ripple must hold.
    const kb::HardwareSpec& sw =
        kb_->hardware(design->hardwareModel.at(HardwareClass::Switch));
    EXPECT_TRUE(sw.boolAttr(kb::kAttrP4Supported).value_or(false));
    EXPECT_TRUE(validateDesign(p, *design).empty());
}

TEST_F(ReasonTest, ForbiddenSystemIsAvoided) {
    Problem p = caseStudyProblem();
    p.pinnedSystems["CONGA"] = false;
    Engine engine(p);
    // Without CONGA nothing beats PacketSpray: infeasible.
    EXPECT_FALSE(engine.checkFeasible().feasible);
}

TEST_F(ReasonTest, FactPinReproducesPfcFloodingStory) {
    // §2.2: the environment already floods (e.g. a learning bridge is in
    // place); RoCEv2's expert rule must then exclude it.
    Problem p = makeDefaultProblem(*kb_);
    p.optionalCategories.insert(Category::TransportProtocol);
    p.pinnedFacts[catalog::kFactFlooding] = true;
    p.pinnedSystems["RoCEv2"] = true;
    Engine engine(p);
    const FeasibilityReport report = engine.checkFeasible();
    ASSERT_FALSE(report.feasible);
    const bool mentionsRoce = std::any_of(
        report.conflictingRules.begin(), report.conflictingRules.end(),
        [](const std::string& rule) {
            return rule.find("RoCEv2") != std::string::npos;
        });
    EXPECT_TRUE(mentionsRoce);
    // Without the pinned flooding fact, RoCEv2 deploys fine.
    Problem ok = makeDefaultProblem(*kb_);
    ok.pinnedSystems["RoCEv2"] = true;
    EXPECT_TRUE(Engine(ok).checkFeasible().feasible);
}

TEST_F(ReasonTest, FloodingProviderConflictsWithRoce) {
    // Even unpinned: choosing Linux-Bridge (provides flooding) together with
    // RoCEv2 must be impossible.
    Problem p = makeDefaultProblem(*kb_);
    p.pinnedSystems["RoCEv2"] = true;
    p.pinnedSystems["Linux-Bridge"] = true;
    Engine engine(p);
    EXPECT_FALSE(engine.checkFeasible().feasible);
}

TEST_F(ReasonTest, ResourceCapacityBindsCores) {
    Problem p = caseStudyProblem();
    // 10 small servers cannot host 2800 workload cores.
    p.hardware[HardwareClass::Server].count = 10;
    p.hardware[HardwareClass::Server].pinnedModel = "Xeon Skylake-SP 16c 1U";
    Engine engine(p);
    const FeasibilityReport report = engine.checkFeasible();
    ASSERT_FALSE(report.feasible);
    const bool mentionsCores = std::any_of(
        report.conflictingRules.begin(), report.conflictingRules.end(),
        [](const std::string& rule) {
            return rule.find("cores") != std::string::npos;
        });
    EXPECT_TRUE(mentionsCores);
}

TEST_F(ReasonTest, BudgetConstraintRespected) {
    Problem p = caseStudyProblem();
    p.maxHardwareCostUsd = 700000;
    Engine engine(p);
    const auto design = engine.optimize();
    ASSERT_TRUE(design.has_value());
    EXPECT_LE(design->hardwareCostUsd, 700000 + 1);
    EXPECT_TRUE(validateDesign(p, *design).empty());
}

TEST_F(ReasonTest, ImpossibleBudgetExplained) {
    Problem p = caseStudyProblem();
    p.maxHardwareCostUsd = 1000; // nothing fits
    Engine engine(p);
    const FeasibilityReport report = engine.checkFeasible();
    ASSERT_FALSE(report.feasible);
    const bool mentionsBudget = std::any_of(
        report.conflictingRules.begin(), report.conflictingRules.end(),
        [](const std::string& rule) {
            return rule.find("budget") != std::string::npos;
        });
    EXPECT_TRUE(mentionsBudget);
}

TEST_F(ReasonTest, HardwareCostObjectiveReducesCost) {
    Problem cheap = caseStudyProblem();
    cheap.objectivePriority = {kb::kObjHardwareCost};
    const auto cheapDesign = Engine(cheap).optimize();
    Problem indifferent = caseStudyProblem();
    indifferent.objectivePriority = {};
    indifferent.preferMinimalDesign = false;
    const auto anyDesign = Engine(indifferent).synthesize();
    ASSERT_TRUE(cheapDesign.has_value());
    ASSERT_TRUE(anyDesign.has_value());
    EXPECT_LE(cheapDesign->hardwareCostUsd, anyDesign->hardwareCostUsd);
}

TEST_F(ReasonTest, ParsimonySkipsUselessCategories) {
    Problem p = makeDefaultProblem(*kb_);
    p.objectivePriority = {};
    Engine engine(p);
    const auto design = engine.optimize();
    ASSERT_TRUE(design.has_value());
    // Only the two required categories should be filled.
    EXPECT_EQ(design->chosen.size(), 2u);
}

TEST_F(ReasonTest, EnumerateDistinctDesigns) {
    Problem p = makeDefaultProblem(*kb_);
    Engine engine(p);
    const auto designs = engine.enumerateDesigns(5);
    ASSERT_GE(designs.size(), 2u);
    for (std::size_t i = 0; i < designs.size(); ++i) {
        EXPECT_TRUE(validateDesign(p, designs[i]).empty());
        for (std::size_t j = i + 1; j < designs.size(); ++j)
            EXPECT_FALSE(designs[i].diff(designs[j]).empty())
                << "designs " << i << " and " << j << " identical";
    }
}

TEST_F(ReasonTest, EnumerateWithinOptimalClass) {
    Problem p = caseStudyProblem();
    Engine engine(p);
    const auto designs = engine.enumerateDesigns(3, /*optimizeFirst=*/true);
    ASSERT_GE(designs.size(), 1u);
    // Every member of the optimal class must still satisfy the bound.
    for (const Design& d : designs)
        EXPECT_EQ(d.chosen.at(Category::LoadBalancer), "CONGA");
}

TEST_F(ReasonTest, WorkloadPropertyUnlocksAnnulus) {
    // Annulus is only deployable when WAN and DC traffic compete (§4.1).
    Problem without = makeDefaultProblem(*kb_);
    without.hardware[HardwareClass::Server].count = 40;
    without.hardware[HardwareClass::Nic].count = 40;
    without.pinnedSystems["Annulus"] = true;
    EXPECT_FALSE(Engine(without).checkFeasible().feasible);

    Problem with = without;
    with.workloads = {catalog::makeVideoWorkload()}; // wan_dc_traffic_compete
    EXPECT_TRUE(Engine(with).checkFeasible().feasible);
}

TEST_F(ReasonTest, MoreApplicationsOnPinnedServersIsInfeasible) {
    // §5.1 query 1: "I want to support more applications, but I can't
    // change my servers." The optimal design's servers cannot host the
    // added workloads; the conflict names the core capacity and the pin.
    const Problem base = caseStudyProblem();
    const auto baseline = Engine(base).optimize();
    ASSERT_TRUE(baseline.has_value());
    Problem pinned = base;
    const std::string server =
        baseline->hardwareModel.at(HardwareClass::Server);
    pinned.hardware[HardwareClass::Server].pinnedModel = server;
    pinned.workloads.push_back(catalog::makeVideoWorkload());
    pinned.workloads.push_back(catalog::makeBatchWorkload());
    const FeasibilityReport report = Engine(pinned).checkFeasible();
    ASSERT_FALSE(report.feasible);
    const auto names = [&report](const std::string& text) {
        return std::any_of(report.conflictingRules.begin(),
                           report.conflictingRules.end(),
                           [&text](const std::string& rule) {
                               return rule.find(text) != std::string::npos;
                           });
    };
    EXPECT_TRUE(names("resource 'cores'"));
    EXPECT_TRUE(names("pinned hardware: server stays " + server));

    // Unpinning the servers gives a design again.
    Problem unpinned = pinned;
    unpinned.hardware[HardwareClass::Server].pinnedModel.reset();
    EXPECT_TRUE(Engine(unpinned).optimize().has_value());
}

TEST_F(ReasonTest, CompareScenariosShowsCxlRipple) {
    // §5.1 query 3: is CXL memory pooling worthwhile? Compare a problem
    // restricted to non-CXL servers vs one allowing CXL under a
    // memory-intensive workload mix, where the storage team's rule asks for
    // either big boxes (>= 512 GB RAM) or CXL memory pooling.
    Problem base = caseStudyProblem();
    base.workloads.push_back(catalog::makeStorageWorkload());
    base.extraConstraint = kb::Requirement::anyOf(
        {kb::Requirement::hardwareCmp(HardwareClass::Server, kb::kAttrRamGb,
                                      kb::CmpOp::Ge, 512.0),
         kb::Requirement::hardwareHas(HardwareClass::Server,
                                      kb::kAttrCxlSupported)});
    Problem noCxl = base;
    for (const kb::HardwareSpec* h : kb_->byClass(HardwareClass::Server))
        if (!h->boolAttr(kb::kAttrCxlSupported).value_or(false))
            noCxl.hardware[HardwareClass::Server].candidateModels.push_back(
                h->model);
    const ScenarioComparison cmp = compareScenarios(noCxl, base);
    ASSERT_TRUE(cmp.a.has_value());
    ASSERT_TRUE(cmp.b.has_value());
    // Both feasible; the comparison lists any ripple as concrete changes.
    for (const std::string& change : cmp.changes) EXPECT_FALSE(change.empty());
    // CXL is worthwhile: the optimum picks a CXL-capable server and costs
    // less than the best non-CXL design.
    EXPECT_TRUE(kb_->hardware(cmp.b->hardwareModel.at(HardwareClass::Server))
                    .boolAttr(kb::kAttrCxlSupported)
                    .value_or(false));
    EXPECT_LT(cmp.b->hardwareCostUsd, cmp.a->hardwareCostUsd);
}

TEST_F(ReasonTest, RetentionAnalysisSonata) {
    // §5.1 query 2: keep Sonata unless there are huge benefits.
    Problem p = caseStudyProblem();
    const RetentionReport report = analyzeRetention(p, "Sonata");
    ASSERT_TRUE(report.keeping.has_value());
    ASSERT_TRUE(report.unpinned.has_value());
    EXPECT_TRUE(report.keeping->uses("Sonata"));
    ASSERT_FALSE(report.extraCostPerObjective.empty());
    // Sonata is already in the optimal class: keeping it costs nothing at
    // any objective level, so there is no reason to switch.
    for (const std::int64_t extra : report.extraCostPerObjective)
        EXPECT_EQ(extra, 0);
    EXPECT_FALSE(report.worthSwitching(100));
}

TEST_F(ReasonTest, ValueOfInformationShenangoDemikernel) {
    // §3.1: is measuring Shenango vs Demikernel isolation worth it? Only if
    // the answer would change the design.
    Problem p = makeDefaultProblem(*kb_);
    p.objectivePriority = {kb::kObjIsolation};
    const InformationValue value =
        valueOfInformation(p, kb::kObjIsolation, "Shenango", "Demikernel");
    ASSERT_TRUE(value.ifABetter.has_value());
    ASSERT_TRUE(value.ifBBetter.has_value());
    // The engine answers decisively either way; the flag tells the architect
    // whether running the measurement pays off.
    if (value.changesDesign) {
        EXPECT_FALSE(value.ifABetter->diff(*value.ifBBetter).empty());
    } else {
        EXPECT_TRUE(value.ifABetter->diff(*value.ifBBetter).empty());
    }
}

TEST_F(ReasonTest, DesignDiffListsChanges) {
    Design a;
    a.chosen[Category::NetworkStack] = "Linux";
    a.hardwareModel[HardwareClass::Nic] = "N1";
    Design b;
    b.chosen[Category::NetworkStack] = "Snap";
    b.hardwareModel[HardwareClass::Nic] = "N1";
    b.enabledOptions.insert("pony_enabled");
    const auto changes = a.diff(b);
    ASSERT_EQ(changes.size(), 2u);
    EXPECT_NE(changes[0].find("Linux -> Snap"), std::string::npos);
    EXPECT_NE(changes[1].find("pony_enabled"), std::string::npos);
    EXPECT_TRUE(a.diff(a).empty());
}

TEST_F(ReasonTest, ValidatorCatchesBrokenDesigns) {
    const Problem p = caseStudyProblem();
    Engine engine(p);
    auto design = engine.optimize();
    ASSERT_TRUE(design.has_value());
    // Sabotage: swap the load balancer to ECMP (violates the bound).
    Design broken = *design;
    broken.chosen[Category::LoadBalancer] = "ECMP";
    const auto violations = validateDesign(p, broken);
    EXPECT_FALSE(violations.empty());
}

TEST_F(ReasonTest, CommonSenseOffAllowsIncoherentDesigns) {
    // §3.4: without common-sense rules the engine may return designs with
    // no network stack at all.
    Problem p = makeDefaultProblem(*kb_);
    p.commonSenseRules = false;
    p.preferMinimalDesign = true;
    p.objectivePriority = {};
    Engine engine(p);
    const auto design = engine.optimize();
    ASSERT_TRUE(design.has_value());
    EXPECT_TRUE(design->chosen.empty()); // nothing forces anything
}

// --- §3.1 success measure: linear encoding growth (EXPERIMENTS.md SEC31) ----

/// A KB with the first `systemCount` catalog systems, the same share of each
/// hardware class (at least one model per class), and the orderings among
/// the included systems.
kb::KnowledgeBase prefixKb(const kb::KnowledgeBase& full,
                           std::size_t systemCount) {
    const double fraction = static_cast<double>(systemCount) /
                            static_cast<double>(full.systems().size());
    kb::KnowledgeBase prefix;
    for (std::size_t i = 0; i < systemCount && i < full.systems().size(); ++i)
        prefix.addSystem(full.systems()[i]);
    for (const HardwareClass cls :
         {HardwareClass::Switch, HardwareClass::Nic, HardwareClass::Server}) {
        const auto specs = full.byClass(cls);
        const std::size_t keep = std::max<std::size_t>(
            1, static_cast<std::size_t>(static_cast<double>(specs.size()) *
                                        fraction));
        for (std::size_t i = 0; i < keep; ++i) prefix.addHardware(*specs[i]);
    }
    for (const kb::Ordering& o : full.orderings())
        if (prefix.findSystem(o.better) != nullptr &&
            prefix.findSystem(o.worse) != nullptr)
            prefix.addOrdering(o);
    return prefix;
}

TEST_F(ReasonTest, EncodingLengthGrowsLinearlyWithKbSize) {
    // "The length of specification should grow linearly with the number of
    // systems, hardware and workloads included": the encoding length per
    // entity stays within 1.5x across the sweep. EXPERIMENTS.md SEC31 lists
    // some rows of the sweep; each must match what the code computes.
    struct Row {
        std::size_t hardware;
        std::size_t length;
        double perEntity;
    };
    std::map<std::size_t, Row> sweep;
    for (const std::size_t systems : {8u, 16u, 24u, 32u, 40u, 48u, 56u}) {
        const kb::KnowledgeBase prefix = prefixKb(*kb_, systems);
        const std::size_t hardware = prefix.hardwareSpecs().size();
        const std::size_t length = prefix.encodingLength();
        sweep[systems] = {hardware, length,
                          static_cast<double>(length) /
                              static_cast<double>(systems + hardware)};
    }
    const auto [lo, hi] = std::minmax_element(
        sweep.begin(), sweep.end(), [](const auto& a, const auto& b) {
            return a.second.perEntity < b.second.perEntity;
        });
    EXPECT_LT(hi->second.perEntity / lo->second.perEntity, 1.5);

    const std::string section = test::docSection(LAR_EXPERIMENTS_MD, "SEC31");
    const std::regex row(R"(\n\| (\d+) \| (\d+) \| (\d+) \| ([\d.]+) \|)");
    int rows = 0;
    for (auto it = std::sregex_iterator(section.begin(), section.end(), row);
         it != std::sregex_iterator(); ++it, ++rows) {
        const std::smatch& m = *it;
        const auto found = sweep.find(std::stoul(m[1]));
        ASSERT_NE(found, sweep.end()) << "undocumented sweep point " << m[1];
        char perEntity[16];
        std::snprintf(perEntity, sizeof perEntity, "%.1f",
                      found->second.perEntity);
        EXPECT_EQ(std::stoul(m[2]), found->second.hardware) << m[0];
        EXPECT_EQ(std::stoul(m[3]), found->second.length) << m[0];
        EXPECT_EQ(m[4].str(), perEntity) << m[0];
    }
    EXPECT_GT(rows, 0);
}

TEST_F(ReasonTest, CaseStudyEncodesEachDistinctLinearAtomOnce) {
    // The resource rules state one atom per hardware model, and most models
    // repeat another's (terms, bound). Equal atoms must share one LinLeq
    // node, so every backend builds one counter for them, and an atom with
    // a clause or cube form must not be a LinLeq at all.
    Problem p = caseStudyProblem();
    p.hardware[HardwareClass::Server].count = 70;
    p.hardware[HardwareClass::Nic].count = 77;
    p.hardware[HardwareClass::Switch].count = 9;
    const Compilation compilation(p);
    const smt::FormulaStore& store = compilation.store();
    std::vector<smt::NodeId> atoms;
    for (smt::NodeId id = 0; static_cast<std::size_t>(id) < store.size(); ++id) {
        const smt::Node& n = store.node(id);
        if (n.kind != smt::NodeKind::LinLeq) continue;
        std::int64_t total = 0;
        std::int64_t minCoef = n.terms.front().coef;
        for (const smt::LinTerm& t : n.terms) {
            total += t.coef;
            minCoef = std::min(minCoef, t.coef);
        }
        EXPECT_GE(n.bound, minCoef) << store.toString(id);
        EXPECT_GT(total - n.bound, minCoef) << store.toString(id);
        for (const smt::NodeId other : atoms)
            EXPECT_FALSE(store.node(other).bound == n.bound &&
                         store.node(other).terms == n.terms)
                << store.toString(id);
        atoms.push_back(id);
    }
    EXPECT_EQ(atoms.size(), 13u);
}

TEST_F(ReasonTest, OptimizeStaysFeasibleAsTheKbGrows) {
    for (const std::size_t systems : {14u, 28u, 42u, 56u}) {
        const kb::KnowledgeBase prefix = prefixKb(*kb_, systems);
        Problem p = makeDefaultProblem(prefix);
        // 120 servers so even small-core prefix inventories can host the
        // workload; bounds dropped because they name systems near the end.
        p.hardware[HardwareClass::Server].count = 120;
        p.hardware[HardwareClass::Switch].count = 8;
        p.hardware[HardwareClass::Nic].count = 120;
        p.workloads = {catalog::makeInferenceWorkload()};
        p.workloads[0].bounds.clear();
        p.objectivePriority = {kb::kObjLatency, kb::kObjHardwareCost};
        const util::Stopwatch timer;
        EXPECT_TRUE(Engine(p).optimize().has_value()) << systems << " systems";
        EXPECT_LT(timer.millis(), 60000.0) << systems << " systems";
    }
}

// Property suite across both backends.
class ReasonBackendTest
    : public ReasonTest,
      public ::testing::WithParamInterface<smt::BackendKind> {};

TEST_P(ReasonBackendTest, OptimalCostsAgreeAcrossBackends) {
    Problem p = makeDefaultProblem(*kb_);
    p.hardware[HardwareClass::Server].count = 40;
    p.workloads = {catalog::makeInferenceWorkload()};
    p.objectivePriority = {kb::kObjLatency, kb::kObjMonitoring};
    Engine engine(p, withBackend(GetParam()));
    const auto design = engine.optimize();
    ASSERT_TRUE(design.has_value());
    EXPECT_TRUE(validateDesign(p, *design).empty());
    // The cdcl backend's result is the reference; both must agree on costs.
    Engine reference(p, withBackend(smt::BackendKind::Cdcl));
    const auto refDesign = reference.optimize();
    ASSERT_TRUE(refDesign.has_value());
    EXPECT_EQ(design->objectiveCosts, refDesign->objectiveCosts);
}

TEST_P(ReasonBackendTest, CaseStudyQueriesAgreeAcrossBackends) {
    // The case-study query suite: feasibility, an infeasible problem with
    // its core, and optimize with and without a hardware budget. Verdicts
    // and optimal costs must match the cdcl reference.
    Problem caseStudy = caseStudyProblem();
    Problem pinnedSwitch = caseStudyProblem();
    pinnedSwitch.hardware[HardwareClass::Switch].pinnedModel =
        "Cisco Catalyst 9500-40X";
    Problem budget = caseStudyProblem();
    budget.maxHardwareCostUsd = 700000;

    const QueryOptions backend = withBackend(GetParam());
    EXPECT_TRUE(Engine(caseStudy, backend).checkFeasible().feasible);
    const FeasibilityReport core =
        Engine(pinnedSwitch, backend).checkFeasible();
    EXPECT_FALSE(core.feasible);
    EXPECT_FALSE(core.conflictingRules.empty());
    for (const Problem* p : {&caseStudy, &budget}) {
        const auto design = Engine(*p, backend).optimize();
        const auto reference =
            Engine(*p, withBackend(smt::BackendKind::Cdcl)).optimize();
        ASSERT_TRUE(design.has_value());
        ASSERT_TRUE(reference.has_value());
        EXPECT_TRUE(validateDesign(*p, *design).empty());
        EXPECT_EQ(design->objectiveCosts, reference->objectiveCosts);
    }
}

std::vector<smt::BackendKind> reasonBackends() {
    std::vector<smt::BackendKind> kinds{smt::BackendKind::Cdcl};
    if (smt::haveZ3()) kinds.push_back(smt::BackendKind::Z3);
    return kinds;
}

INSTANTIATE_TEST_SUITE_P(Backends, ReasonBackendTest,
                         ::testing::ValuesIn(reasonBackends()),
                         [](const ::testing::TestParamInfo<smt::BackendKind>& info) {
                             return info.param == smt::BackendKind::Cdcl ? "cdcl"
                                                                         : "z3";
                         });

} // namespace
} // namespace lar::reason
