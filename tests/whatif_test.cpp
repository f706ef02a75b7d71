#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "catalog/catalog.hpp"
#include "kb/objectives.hpp"
#include "reason/engine.hpp"
#include "reason/validate.hpp"
#include "reason/whatif.hpp"
#include "util/error.hpp"

namespace lar::reason {
namespace {

class WhatIfTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        kb_ = new kb::KnowledgeBase(catalog::buildKnowledgeBase());
    }
    static void TearDownTestSuite() {
        delete kb_;
        kb_ = nullptr;
    }

    Problem caseStudy() const {
        Problem p = makeDefaultProblem(*kb_);
        p.hardware[kb::HardwareClass::Server].count = 60;
        p.hardware[kb::HardwareClass::Switch].count = 8;
        p.hardware[kb::HardwareClass::Nic].count = 60;
        p.workloads = {catalog::makeInferenceWorkload()};
        p.requiredCapabilities = {catalog::kCapDetectQueueLength};
        return p;
    }

    static kb::KnowledgeBase* kb_;
};

kb::KnowledgeBase* WhatIfTest::kb_ = nullptr;

TEST_F(WhatIfTest, EmptyVariationMatchesBaseFeasibility) {
    const Problem p = caseStudy();
    WhatIfSession session(p);
    const Answer answer = session.ask({});
    EXPECT_TRUE(answer.verdict == Verdict::Sat);
    ASSERT_TRUE(answer.design.has_value());
    EXPECT_TRUE(validateDesign(p, *answer.design).empty());
}

TEST_F(WhatIfTest, AnswersMatchFreshEnginePins) {
    const Problem p = caseStudy();
    WhatIfSession session(p);
    const struct {
        const char* system;
        bool include;
    } cases[] = {
        {"Sonata", true},  {"SIMON", true},    {"CONGA", false},
        {"RoCEv2", true},  {"Shenango", true}, {"Linux", false},
    };
    for (const auto& c : cases) {
        Variation variation;
        variation.systems[c.system] = c.include;
        const Answer incremental = session.ask(variation);

        Problem pinned = p;
        pinned.pinnedSystems[c.system] = c.include;
        const bool fresh = Engine(pinned).checkFeasible().feasible;
        EXPECT_EQ(incremental.verdict == Verdict::Sat, fresh)
            << c.system << "=" << c.include;
    }
    EXPECT_EQ(session.queriesAnswered(), 6);
}

TEST_F(WhatIfTest, VariationsAreIndependent) {
    // A restrictive variation must not leak into the next query.
    const Problem p = caseStudy();
    WhatIfSession session(p);
    Variation impossible;
    impossible.systems["CONGA"] = false; // kills the LB bound
    EXPECT_FALSE(session.ask(impossible).verdict == Verdict::Sat);
    EXPECT_TRUE(session.ask({}).verdict == Verdict::Sat); // back to normal
}

TEST_F(WhatIfTest, HardwarePinVariation) {
    const Problem p = caseStudy();
    WhatIfSession session(p);
    Variation tofino;
    tofino.hardwareModels[kb::HardwareClass::Switch] = "Intel Tofino2 32x100G";
    const Answer a = session.ask(tofino);
    EXPECT_TRUE(a.verdict == Verdict::Sat);
    ASSERT_TRUE(a.design.has_value());
    EXPECT_EQ(a.design->hardwareModel.at(kb::HardwareClass::Switch),
              "Intel Tofino2 32x100G");

    Variation catalyst;
    catalyst.hardwareModels[kb::HardwareClass::Switch] =
        "Cisco Catalyst 9500-40X"; // non-P4: bound unsatisfiable
    const Answer b = session.ask(catalyst);
    EXPECT_FALSE(b.verdict == Verdict::Sat);
    EXPECT_FALSE(b.conflictingRules.empty());
}

TEST_F(WhatIfTest, OptionVariation) {
    Problem p = makeDefaultProblem(*kb_);
    p.hardware[kb::HardwareClass::Server].count = 20;
    p.hardware[kb::HardwareClass::Nic].count = 20;
    WhatIfSession session(p);
    // Vegas needs the scavenger class option (and deep-buffer switches).
    Variation vegasNoScavenger;
    vegasNoScavenger.systems["Vegas"] = true;
    vegasNoScavenger.options[catalog::kOptScavengerClass] = false;
    EXPECT_FALSE(session.ask(vegasNoScavenger).verdict == Verdict::Sat);

    Variation vegasScavenger;
    vegasScavenger.systems["Vegas"] = true;
    vegasScavenger.options[catalog::kOptScavengerClass] = true;
    EXPECT_TRUE(session.ask(vegasScavenger).verdict == Verdict::Sat);
}

TEST_F(WhatIfTest, UnknownNamesReportedAsStructuredError) {
    WhatIfSession session(caseStudy());
    Variation bad;
    bad.systems["Ghost"] = true;
    bad.options["phantom_opt"] = true;
    const Answer a = session.ask(bad);
    EXPECT_EQ(a.verdict, Verdict::Error);
    EXPECT_FALSE(a.verdict != Verdict::Error);
    EXPECT_FALSE(a.verdict == Verdict::Sat); // a typo must never read as feasible
    ASSERT_EQ(a.unknownNames.size(), 2u);
    EXPECT_EQ(a.unknownNames[0], "system/Ghost");
    EXPECT_EQ(a.unknownNames[1], "option/phantom_opt");

    Variation badHw;
    badHw.hardwareModels[kb::HardwareClass::Nic] = "Ghost NIC";
    const Answer b = session.ask(badHw);
    EXPECT_EQ(b.verdict, Verdict::Error);
    ASSERT_EQ(b.unknownNames.size(), 1u);
    EXPECT_EQ(b.unknownNames[0], "hardware/nic/Ghost NIC");

    // The session stays usable after a rejected variation.
    EXPECT_EQ(session.ask({}).verdict, Verdict::Sat);
}

TEST_F(WhatIfTest, PreCancelledAskIsCancelledOnEveryBackend) {
    std::vector<smt::BackendKind> backends = {smt::BackendKind::Cdcl};
#ifdef LAR_HAVE_Z3
    backends.push_back(smt::BackendKind::Z3);
#endif
    for (const smt::BackendKind backend : backends) {
        std::atomic<bool> cancel{true};
        QueryOptions options = withBackend(backend);
        options.cancelFlag = &cancel;
        WhatIfSession session(caseStudy(), options);
        const Answer a = session.ask({});
        EXPECT_EQ(a.verdict, Verdict::Cancelled)
            << "backend " << static_cast<int>(backend);
        EXPECT_FALSE(a.design.has_value());
    }
}

TEST_F(WhatIfTest, ManyVariationsStayConsistent) {
    // Sweep every monitoring system as a pin; incremental answers must
    // match fresh engines throughout (learned clauses must never change
    // semantics).
    const Problem p = caseStudy();
    WhatIfSession session(p);
    for (const kb::System* s : kb_->byCategory(kb::Category::Monitoring)) {
        Variation v;
        v.systems[s->name] = true;
        const bool incremental = session.ask(v).verdict == Verdict::Sat;
        Problem pinned = p;
        pinned.pinnedSystems[s->name] = true;
        EXPECT_EQ(incremental, Engine(pinned).checkFeasible().feasible)
            << s->name;
    }
}

} // namespace
} // namespace lar::reason
