#include <gtest/gtest.h>

#include <regex>

#include "catalog/catalog.hpp"
#include "doc_section.hpp"
#include "kb/objectives.hpp"
#include "reason/engine.hpp"
#include "reason/validate.hpp"
#include "rules/datalog.hpp"
#include "rules/deployment.hpp"
#include "util/error.hpp"

namespace lar::rules {
namespace {

// --- core Datalog engine ------------------------------------------------------

TEST(Datalog, FactsOnly) {
    Program p;
    p.addFact("edge", {"a", "b"});
    p.addFact("edge", {"b", "c"});
    const Database db = p.evaluate();
    EXPECT_TRUE(db.contains("edge", {"a", "b"}));
    EXPECT_FALSE(db.contains("edge", {"c", "a"}));
    EXPECT_EQ(db.totalFacts(), 2u);
}

TEST(Datalog, TransitiveClosure) {
    Program p;
    for (const auto& [a, b] : std::vector<std::pair<std::string, std::string>>{
             {"a", "b"}, {"b", "c"}, {"c", "d"}, {"x", "y"}})
        p.addFact("edge", {a, b});
    Rule base;
    base.head = {"path", {var("X"), var("Y")}};
    base.body = {{"edge", {var("X"), var("Y")}}};
    p.addRule(std::move(base));
    Rule step;
    step.head = {"path", {var("X"), var("Z")}};
    step.body = {{"edge", {var("X"), var("Y")}}, {"path", {var("Y"), var("Z")}}};
    p.addRule(std::move(step));
    const Database db = p.evaluate();
    EXPECT_TRUE(db.contains("path", {"a", "d"}));
    EXPECT_TRUE(db.contains("path", {"b", "d"}));
    EXPECT_FALSE(db.contains("path", {"d", "a"}));
    EXPECT_FALSE(db.contains("path", {"a", "y"}));
    EXPECT_EQ(db.relation("path").size(), 7u); // 6 in the chain + x→y
}

TEST(Datalog, JoinSharedVariables) {
    Program p;
    p.addFact("parent", {"ann", "bob"});
    p.addFact("parent", {"bob", "cid"});
    p.addFact("parent", {"ann", "dee"});
    Rule grand;
    grand.head = {"grandparent", {var("G"), var("C")}};
    grand.body = {{"parent", {var("G"), var("P")}},
                  {"parent", {var("P"), var("C")}}};
    p.addRule(std::move(grand));
    const Database db = p.evaluate();
    EXPECT_TRUE(db.contains("grandparent", {"ann", "cid"}));
    EXPECT_EQ(db.relation("grandparent").size(), 1u);
}

TEST(Datalog, StratifiedNegation) {
    Program p;
    p.addFact("node", {"a"});
    p.addFact("node", {"b"});
    p.addFact("covered", {"a"});
    Rule uncovered;
    uncovered.head = {"uncovered", {var("X")}};
    uncovered.body = {{"node", {var("X")}}};
    uncovered.negated = {{"covered", {var("X")}}};
    p.addRule(std::move(uncovered));
    const Database db = p.evaluate();
    EXPECT_FALSE(db.contains("uncovered", {"a"}));
    EXPECT_TRUE(db.contains("uncovered", {"b"}));
}

TEST(Datalog, NegationSeesDerivedLowerStratum) {
    // covered is itself derived; negation must wait for its stratum.
    Program p;
    p.addFact("node", {"a"});
    p.addFact("node", {"b"});
    p.addFact("tag", {"a"});
    Rule covered;
    covered.head = {"covered", {var("X")}};
    covered.body = {{"tag", {var("X")}}};
    p.addRule(std::move(covered));
    Rule uncovered;
    uncovered.head = {"uncovered", {var("X")}};
    uncovered.body = {{"node", {var("X")}}};
    uncovered.negated = {{"covered", {var("X")}}};
    p.addRule(std::move(uncovered));
    const Database db = p.evaluate();
    EXPECT_FALSE(db.contains("uncovered", {"a"}));
    EXPECT_TRUE(db.contains("uncovered", {"b"}));
}

TEST(Datalog, UnstratifiableProgramRejected) {
    Program p;
    p.addFact("n", {"x"});
    Rule a;
    a.head = {"p", {var("X")}};
    a.body = {{"n", {var("X")}}};
    a.negated = {{"q", {var("X")}}};
    p.addRule(std::move(a));
    Rule b;
    b.head = {"q", {var("X")}};
    b.body = {{"n", {var("X")}}};
    b.negated = {{"p", {var("X")}}};
    p.addRule(std::move(b));
    EXPECT_THROW((void)p.evaluate(), EncodingError);
}

TEST(Datalog, RangeRestrictionEnforced) {
    Program p;
    Rule bad;
    bad.head = {"out", {var("X")}};
    bad.body = {}; // X unbound
    EXPECT_THROW(p.addRule(std::move(bad)), EncodingError);

    Rule badNeg;
    badNeg.head = {"out", {cst("a")}};
    badNeg.negated = {{"q", {var("Y")}}}; // Y only under negation
    EXPECT_THROW(p.addRule(std::move(badNeg)), EncodingError);
}

TEST(Datalog, GroundRuleWithNegationOnly) {
    Program p;
    Rule r;
    r.head = {"ok", {cst("yes")}};
    r.negated = {{"blocked", {cst("x")}}};
    p.addRule(std::move(r));
    EXPECT_TRUE(p.evaluate().contains("ok", {"yes"}));

    Program p2;
    p2.addFact("blocked", {"x"});
    Rule r2;
    r2.head = {"ok", {cst("yes")}};
    r2.negated = {{"blocked", {cst("x")}}};
    p2.addRule(std::move(r2));
    EXPECT_FALSE(p2.evaluate().contains("ok", {"yes"}));
}

TEST(Datalog, ConstantsInBodyFilter) {
    Program p;
    p.addFact("edge", {"a", "b"});
    p.addFact("edge", {"a", "c"});
    Rule fromA;
    fromA.head = {"reach_from_a", {var("Y")}};
    fromA.body = {{"edge", {cst("a"), var("Y")}}};
    p.addRule(std::move(fromA));
    const Database db = p.evaluate();
    EXPECT_EQ(db.relation("reach_from_a").size(), 2u);
}

// --- the deployment-check program ---------------------------------------------

class DeploymentRulesTest : public ::testing::Test {
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
        p.hardware[kb::HardwareClass::Server].count = 60;
        p.hardware[kb::HardwareClass::Switch].count = 8;
        p.hardware[kb::HardwareClass::Nic].count = 60;
        p.workloads = {catalog::makeInferenceWorkload()};
        p.requiredCapabilities = {catalog::kCapDetectQueueLength};
        return p;
    }

    static kb::KnowledgeBase* kb_;
};

kb::KnowledgeBase* DeploymentRulesTest::kb_ = nullptr;

TEST_F(DeploymentRulesTest, EngineDesignChecksCompliant) {
    const reason::Problem p = caseStudy();
    const auto design = reason::Engine(p).optimize();
    ASSERT_TRUE(design.has_value());
    const DatalogCheck check = checkDesignWithRules(p, *design);
    EXPECT_TRUE(check.compliant) << check.violations.front();
    EXPECT_GT(check.programFacts, 100u);
    // The rule count follows from whichever optimum the engine returns: the
    // design-independent rules (env_fact derivation, two conflict
    // directions, coverage + missing capability, research-grade exclusion
    // when forbidden) plus at least one violation rule per chosen system
    // whose requirement tree is non-trivial.
    const std::size_t designIndependent = p.forbidResearchGrade ? 6 : 5;
    std::size_t requirementTrees = 0;
    for (const auto& [category, name] : design->chosen)
        if (!kb_->system(name).constraints.isTrivial()) ++requirementTrees;
    EXPECT_GT(requirementTrees, 0u);
    EXPECT_GE(check.programRules, designIndependent + requirementTrees);
}

TEST_F(DeploymentRulesTest, SabotagedLoadBalancerTripsRequirementRule) {
    const reason::Problem p = caseStudy();
    auto design = reason::Engine(p).optimize();
    ASSERT_TRUE(design.has_value());
    // PacketSpray needs big NIC reorder buffers; pair it with a NIC that
    // lacks them by swapping only the system.
    design->chosen[kb::Category::LoadBalancer] = "PacketSpray";
    design->hardwareModel[kb::HardwareClass::Nic] = "Intel X520 10G";
    const DatalogCheck check = checkDesignWithRules(p, *design);
    EXPECT_FALSE(check.compliant);
    const bool blamesPacketSpray = std::any_of(
        check.violations.begin(), check.violations.end(),
        [](const std::string& v) {
            return v.find("PacketSpray") != std::string::npos;
        });
    EXPECT_TRUE(blamesPacketSpray);
}

TEST_F(DeploymentRulesTest, PfcFloodingRuleFiresInDatalog) {
    // RoCEv2 + Linux-Bridge: the flooding fact derives via env_fact(F) :-
    // chosen(S), provides(S, F), and RoCEv2's !fact(flooding) leaf fails.
    reason::Problem p = reason::makeDefaultProblem(*kb_);
    reason::Design design;
    design.chosen[kb::Category::NetworkStack] = "Linux";
    design.chosen[kb::Category::CongestionControl] = "Cubic";
    design.chosen[kb::Category::TransportProtocol] = "RoCEv2";
    design.chosen[kb::Category::VirtualSwitch] = "Linux-Bridge";
    design.hardwareModel[kb::HardwareClass::Switch] =
        "NVIDIA Spectrum-2 32x100G";
    design.hardwareModel[kb::HardwareClass::Nic] = "Mellanox ConnectX-5 100G";
    design.hardwareModel[kb::HardwareClass::Server] = "EPYC Milan 64c 2U";
    const DatalogCheck check = checkDesignWithRules(p, design);
    EXPECT_FALSE(check.compliant);
    const bool blamesRoce = std::any_of(
        check.violations.begin(), check.violations.end(),
        [](const std::string& v) { return v.find("RoCEv2") != std::string::npos; });
    EXPECT_TRUE(blamesRoce);
    // Dropping the bridge clears the violation.
    design.chosen.erase(kb::Category::VirtualSwitch);
    EXPECT_TRUE(checkDesignWithRules(p, design).compliant);
}

TEST_F(DeploymentRulesTest, MissingCapabilityDetected) {
    reason::Problem p = caseStudy();
    auto design = reason::Engine(p).optimize();
    ASSERT_TRUE(design.has_value());
    design->chosen.erase(kb::Category::Monitoring); // drop the queue-length solver
    const DatalogCheck check = checkDesignWithRules(p, *design);
    // Unless another chosen system solves it, the capability rule fires.
    const bool covered = std::any_of(
        design->chosen.begin(), design->chosen.end(), [this](const auto& entry) {
            return kb_->system(entry.second)
                .solvesCapability(catalog::kCapDetectQueueLength);
        });
    EXPECT_EQ(check.compliant, covered);
}

TEST_F(DeploymentRulesTest, AgreesWithValidatorOnPredicateRules) {
    // Property: on engine-produced designs and single-system corruptions,
    // the Datalog check and the native validator agree about predicate-level
    // compliance (the Datalog side does not model quantities/budgets, so the
    // validator's verdict is restricted to requirement/conflict/capability/
    // research-grade violations).
    const reason::Problem p = caseStudy();
    reason::Engine engine(p);
    std::vector<reason::Design> corpus = engine.enumerateDesigns(4);
    ASSERT_FALSE(corpus.empty());
    for (const reason::Design& good : corpus) {
        const DatalogCheck check = checkDesignWithRules(p, good);
        const auto violations = reason::validateDesign(p, good);
        EXPECT_EQ(check.compliant, violations.empty());
    }
    // One corruption per chosen category of each design: swap in the first
    // other system of that category.
    const std::size_t goodCount = corpus.size();
    for (std::size_t i = 0; i < goodCount; ++i) {
        const reason::Design good = corpus[i]; // push_back may reallocate
        for (const auto& [category, name] : good.chosen) {
            for (const kb::System* s : kb_->byCategory(category)) {
                if (s->name == name) continue;
                reason::Design corrupted = good;
                corrupted.chosen[category] = s->name;
                corpus.push_back(std::move(corrupted));
                break;
            }
        }
    }
    ASSERT_GT(corpus.size(), goodCount);
    std::size_t agree = 0;
    DatalogCheck last;
    for (const reason::Design& design : corpus) {
        const auto violations = reason::validateDesign(p, design);
        const bool predicateViolation = std::any_of(
            violations.begin(), violations.end(), [](const std::string& v) {
                return v.find("requirement of") != std::string::npos ||
                       v.find("conflicts with") != std::string::npos ||
                       v.find("solves") != std::string::npos ||
                       v.find("research-grade") != std::string::npos;
            });
        last = checkDesignWithRules(p, design);
        EXPECT_EQ(last.compliant, !predicateViolation) << design.toString();
        if (last.compliant == !predicateViolation) ++agree;
    }
    // Forward chaining only checks; finding a design takes the SAT search.
    EXPECT_TRUE(engine.optimize().has_value());

    // EXPERIMENTS.md §ABL5 states the corpus, the agreement and the size of
    // the last design's program.
    const std::string section = test::docSection(LAR_EXPERIMENTS_MD, "ABL5");
    std::smatch m;
    ASSERT_TRUE(std::regex_search(
        section, m,
        std::regex(R"(corpus of (\d+) engine-enumerated designs plus their (\d+) single-system)")));
    EXPECT_EQ(std::stoul(m[1]), goodCount);
    EXPECT_EQ(std::stoul(m[2]), corpus.size() - goodCount);
    ASSERT_TRUE(std::regex_search(
        section, m,
        std::regex(R"(verdict agreement with the native validator \| (\d+)/(\d+) )")));
    EXPECT_EQ(std::stoul(m[1]), agree);
    EXPECT_EQ(std::stoul(m[2]), corpus.size());
    ASSERT_TRUE(std::regex_search(
        section, m, std::regex(R"(Datalog program, last design \| (\d+) facts, (\d+) rules \|)")));
    EXPECT_EQ(std::stoul(m[1]), last.programFacts);
    EXPECT_EQ(std::stoul(m[2]), last.programRules);
}

} // namespace
} // namespace lar::rules
