#include <gtest/gtest.h>

#include "catalog/catalog.hpp"
#include "kb/objectives.hpp"
#include "llmsim/greedy.hpp"
#include "reason/engine.hpp"
#include "reason/validate.hpp"

namespace lar::llmsim {
namespace {

using kb::Category;
using kb::HardwareClass;

class LlmSimTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        kb_ = new kb::KnowledgeBase(catalog::buildKnowledgeBase());
    }
    static void TearDownTestSuite() {
        delete kb_;
        kb_ = nullptr;
    }

    reason::Problem caseStudy() const {
        reason::Problem p = reason::makeDefaultProblem(*kb_);
        p.hardware[HardwareClass::Server].count = 60;
        p.hardware[HardwareClass::Switch].count = 8;
        p.hardware[HardwareClass::Nic].count = 60;
        p.workloads = {catalog::makeInferenceWorkload()};
        p.objectivePriority = {kb::kObjLatency, kb::kObjHardwareCost,
                               kb::kObjMonitoring};
        p.requiredCapabilities = {catalog::kCapDetectQueueLength};
        return p;
    }

    static kb::KnowledgeBase* kb_;
};

kb::KnowledgeBase* LlmSimTest::kb_ = nullptr;

TEST_F(LlmSimTest, SimpleAggregateQueriesAreCorrect) {
    // §5.2: "it accurately determined straightforward requirements such as
    // the minimum number of cores needed".
    const reason::Problem p = caseStudy();
    const GreedyReasoner llm(p);
    // Ground truth: workload cores + SIMON's fixed+scaled cores.
    const reason::WorkloadAggregates agg = reason::aggregateWorkloads(p.workloads);
    std::int64_t expected = agg.totalPeakCores;
    for (const kb::ResourceDemand& d : kb_->system("SIMON").demands)
        if (d.resource == kb::kResCores)
            expected += d.amountFor(agg.totalKiloFlows, agg.totalGbps);
    EXPECT_EQ(llm.minCoresNeeded({"SIMON"}), expected);
    EXPECT_EQ(llm.minCoresNeeded({}), agg.totalPeakCores);
    EXPECT_EQ(llm.minCoresNeeded({"NoSuchSystem"}), agg.totalPeakCores);

    // The SAT engine answers by construction: a validated design deploying
    // SIMON accounts for at least that core demand.
    reason::Problem withSimon = p;
    withSimon.pinnedSystems["SIMON"] = true;
    const auto sat = reason::Engine(withSimon).optimize();
    ASSERT_TRUE(sat.has_value());
    EXPECT_TRUE(sat->uses("SIMON"));
    EXPECT_GE(sat->resourceUsage.at(kb::kResCores), expected);
    EXPECT_TRUE(reason::validateDesign(withSimon, *sat).empty());
}

TEST_F(LlmSimTest, GreedyProposalLooksPlausible) {
    const reason::Problem p = caseStudy();
    const GreedyReasoner llm(p);
    const reason::Design design = llm.proposeDesign();
    // It fills the required categories with real systems.
    EXPECT_TRUE(design.chosen.count(Category::NetworkStack));
    EXPECT_TRUE(design.chosen.count(Category::CongestionControl));
    EXPECT_TRUE(design.hardwareModel.count(HardwareClass::Switch));
}

TEST_F(LlmSimTest, GreedyMissesNuancesTheSatEngineCatches) {
    // §5.2: the LLM "failed to return correct results when faced with
    // nuances". The greedy proposal must violate at least one rule the
    // validator knows about, while the SAT engine's design is clean.
    const reason::Problem p = caseStudy();
    const GreedyReasoner llm(p);
    const reason::Design greedy = llm.proposeDesign();
    const auto greedyViolations = reason::validateDesign(p, greedy);
    EXPECT_FALSE(greedyViolations.empty());

    reason::Engine engine(p);
    const auto sat = engine.optimize();
    ASSERT_TRUE(sat.has_value());
    EXPECT_TRUE(reason::validateDesign(p, *sat).empty());
}

TEST_F(LlmSimTest, SatEngineAnswersTheNuancedQueries) {
    // §5.2's other nuanced queries: a tight budget, P4-only switches with
    // Sonata pinned, and RoCEv2 where flooding is in place. The SAT engine
    // answers each correctly, as scored by the validator.
    reason::Problem budget = caseStudy();
    budget.maxHardwareCostUsd = 700000; // tight but feasible
    reason::Problem p4Only = caseStudy();
    for (const kb::HardwareSpec* h : kb_->byClass(HardwareClass::Switch))
        if (h->boolAttr(kb::kAttrP4Supported).value_or(false))
            p4Only.hardware[HardwareClass::Switch].candidateModels.push_back(
                h->model);
    p4Only.pinnedSystems["Sonata"] = true; // P4 stages contended
    for (const reason::Problem* p : {&budget, &p4Only}) {
        const auto design = reason::Engine(*p).optimize();
        ASSERT_TRUE(design.has_value());
        EXPECT_TRUE(reason::validateDesign(*p, *design).empty());
    }
    // PFC cannot run where frames flood: the right answer is no design.
    reason::Problem roce = caseStudy();
    roce.optionalCategories.insert(Category::TransportProtocol);
    roce.pinnedFacts[catalog::kFactFlooding] = true;
    roce.pinnedSystems["RoCEv2"] = true;
    EXPECT_FALSE(reason::Engine(roce).checkFeasible().feasible);
}

TEST_F(LlmSimTest, GreedyIgnoresBudgets) {
    reason::Problem p = caseStudy();
    p.maxHardwareCostUsd = 500000;
    const GreedyReasoner llm(p);
    const reason::Design greedy = llm.proposeDesign();
    // "Bigger is better" hardware blows the budget; the validator notices.
    const auto violations = reason::validateDesign(p, greedy);
    const bool budgetViolated = std::any_of(
        violations.begin(), violations.end(), [](const std::string& violation) {
            return violation.find("budget") != std::string::npos;
        });
    EXPECT_TRUE(budgetViolated);
}

TEST_F(LlmSimTest, GreedyHonorsPins) {
    reason::Problem p = caseStudy();
    p.pinnedSystems["Sonata"] = true;
    p.hardware[HardwareClass::Server].pinnedModel = "EPYC Milan 64c 2U";
    const GreedyReasoner llm(p);
    const reason::Design design = llm.proposeDesign();
    EXPECT_TRUE(design.uses("Sonata"));
    EXPECT_EQ(design.hardwareModel.at(HardwareClass::Server), "EPYC Milan 64c 2U");
}

} // namespace
} // namespace lar::llmsim
