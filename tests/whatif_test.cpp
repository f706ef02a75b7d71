// What-if asks: each variation answered on a session's held solver
// (SessionManager::ask) must agree with a fresh Engine over the problem
// with the same pins, and every Sat design must pass the independent
// validator on that pinned problem.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "kb/objectives.hpp"
#include "reason/engine.hpp"
#include "reason/service.hpp"
#include "reason/session.hpp"
#include "reason/validate.hpp"

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

    static ServiceOptions lightService() {
        ServiceOptions options;
        options.workers = 1;
        return options;
    }

    /// Opens a session over `problem`; its id.
    std::string open(const Problem& problem) {
        const SessionManager::CreateResult created = sessions_.create(problem);
        EXPECT_FALSE(created.shed);
        return created.id;
    }

    Answer ask(const std::string& id, const Variation& variation) {
        std::optional<SessionManager::AskOutcome> outcome =
            sessions_.ask(id, variation);
        EXPECT_TRUE(outcome.has_value()) << id;
        return outcome.has_value() ? std::move(outcome->answer) : Answer{};
    }

    /// `problem` with `variation`'s pins applied as problem pins: what a
    /// fresh Engine and the validator see for that ask.
    static Problem pinned(Problem problem, const Variation& variation) {
        for (const auto& [name, include] : variation.systems)
            problem.pinnedSystems[name] = include;
        for (const auto& [cls, model] : variation.hardwareModels)
            problem.hardware[cls].pinnedModel = model;
        for (const auto& [name, enabled] : variation.options)
            problem.pinnedOptions[name] = enabled;
        return problem;
    }

    /// A Sat ask must carry a design valid for the pinned problem.
    static void expectValidDesign(const Problem& problem,
                                  const Variation& variation,
                                  const Answer& answer) {
        if (answer.verdict != Verdict::Sat) return;
        ASSERT_TRUE(answer.design.has_value());
        EXPECT_EQ(validateDesign(pinned(problem, variation), *answer.design),
                  std::vector<std::string>{});
    }

    static kb::KnowledgeBase* kb_;
    Service service_{lightService()};
    SessionManager sessions_{service_};
};

kb::KnowledgeBase* WhatIfTest::kb_ = nullptr;

TEST_F(WhatIfTest, EmptyVariationMatchesBaseFeasibility) {
    const Problem p = caseStudy();
    const Answer answer = ask(open(p), {});
    EXPECT_TRUE(answer.verdict == Verdict::Sat);
    ASSERT_TRUE(answer.design.has_value());
    EXPECT_TRUE(validateDesign(p, *answer.design).empty());
}

TEST_F(WhatIfTest, EmptyAskMatchesEngineFeasibility) {
    // On a fresh session an empty ask runs the very feasibility query
    // Engine::run answers: same verdict, same conflicting rules.
    Problem overBudget = caseStudy();
    overBudget.maxHardwareCostUsd = 250000; // too tight for 60 servers
    const struct {
        Problem problem;
        Verdict expected;
    } cases[] = {{caseStudy(), Verdict::Sat}, {overBudget, Verdict::Unsat}};
    for (const auto& c : cases) {
        const Answer asked = ask(open(c.problem), {});
        const Answer ran = Engine(c.problem).run(QueryKind::Feasibility);
        EXPECT_EQ(asked.verdict, c.expected);
        EXPECT_EQ(ran.verdict, c.expected);
        EXPECT_EQ(asked.conflictingRules, ran.conflictingRules);
    }
}

TEST_F(WhatIfTest, AnswersMatchFreshEnginePins) {
    const Problem p = caseStudy();
    const std::string id = open(p);
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
        const Answer incremental = ask(id, variation);
        const bool fresh = Engine(pinned(p, variation)).checkFeasible().feasible;
        EXPECT_EQ(incremental.verdict == Verdict::Sat, fresh)
            << c.system << "=" << c.include;
        expectValidDesign(p, variation, incremental);
    }
    const std::vector<SessionManager::SessionInfo> listed = sessions_.list();
    ASSERT_EQ(listed.size(), 1U);
    EXPECT_EQ(listed[0].asks, 6U);
}

TEST_F(WhatIfTest, VariationsAreIndependent) {
    // A restrictive variation must not leak into the next query.
    const std::string id = open(caseStudy());
    Variation impossible;
    impossible.systems["CONGA"] = false; // kills the LB bound
    EXPECT_FALSE(ask(id, impossible).verdict == Verdict::Sat);
    EXPECT_TRUE(ask(id, {}).verdict == Verdict::Sat); // back to normal
}

TEST_F(WhatIfTest, HardwarePinVariation) {
    const Problem p = caseStudy();
    const std::string id = open(p);
    Variation tofino;
    tofino.hardwareModels[kb::HardwareClass::Switch] = "Intel Tofino2 32x100G";
    const Answer a = ask(id, tofino);
    EXPECT_TRUE(a.verdict == Verdict::Sat);
    ASSERT_TRUE(a.design.has_value());
    EXPECT_EQ(a.design->hardwareModel.at(kb::HardwareClass::Switch),
              "Intel Tofino2 32x100G");
    expectValidDesign(p, tofino, a);

    Variation catalyst;
    catalyst.hardwareModels[kb::HardwareClass::Switch] =
        "Cisco Catalyst 9500-40X"; // non-P4: bound unsatisfiable
    const Answer b = ask(id, catalyst);
    EXPECT_FALSE(b.verdict == Verdict::Sat);
    EXPECT_FALSE(b.conflictingRules.empty());
}

TEST_F(WhatIfTest, OptionVariation) {
    Problem p = makeDefaultProblem(*kb_);
    p.hardware[kb::HardwareClass::Server].count = 20;
    p.hardware[kb::HardwareClass::Nic].count = 20;
    const std::string id = open(p);
    // Vegas needs the scavenger class option (and deep-buffer switches).
    Variation vegasNoScavenger;
    vegasNoScavenger.systems["Vegas"] = true;
    vegasNoScavenger.options[catalog::kOptScavengerClass] = false;
    EXPECT_FALSE(ask(id, vegasNoScavenger).verdict == Verdict::Sat);

    Variation vegasScavenger;
    vegasScavenger.systems["Vegas"] = true;
    vegasScavenger.options[catalog::kOptScavengerClass] = true;
    const Answer a = ask(id, vegasScavenger);
    EXPECT_TRUE(a.verdict == Verdict::Sat);
    expectValidDesign(p, vegasScavenger, a);
}

TEST_F(WhatIfTest, UnknownNamesReportedAsStructuredError) {
    const std::string id = open(caseStudy());
    Variation bad;
    bad.systems["Ghost"] = true;
    bad.options["phantom_opt"] = true;
    const Answer a = ask(id, bad);
    EXPECT_EQ(a.verdict, Verdict::Error);
    EXPECT_FALSE(a.verdict != Verdict::Error);
    EXPECT_FALSE(a.verdict == Verdict::Sat); // a typo must never read as feasible
    ASSERT_EQ(a.unknownNames.size(), 2u);
    EXPECT_EQ(a.unknownNames[0], "system/Ghost");
    EXPECT_EQ(a.unknownNames[1], "option/phantom_opt");

    Variation badHw;
    badHw.hardwareModels[kb::HardwareClass::Nic] = "Ghost NIC";
    const Answer b = ask(id, badHw);
    EXPECT_EQ(b.verdict, Verdict::Error);
    ASSERT_EQ(b.unknownNames.size(), 1u);
    EXPECT_EQ(b.unknownNames[0], "hardware/nic/Ghost NIC");

    // The session stays usable after a rejected variation.
    EXPECT_EQ(ask(id, {}).verdict, Verdict::Sat);
}

TEST_F(WhatIfTest, PreCancelledAskIsCancelledOnEveryBackend) {
    // The manager owns its sessions' cancel flags, so this drives the held
    // solver an ask runs on directly.
    std::vector<smt::BackendKind> backends = {smt::BackendKind::Cdcl};
#ifdef LAR_HAVE_Z3
    backends.push_back(smt::BackendKind::Z3);
#endif
    const auto compilation = std::make_shared<const Compilation>(caseStudy());
    for (const smt::BackendKind backend : backends) {
        std::atomic<bool> cancel{true};
        QueryOptions options = withBackend(backend);
        options.cancelFlag = &cancel;
        SolverSession solver(compilation, options);
        const Answer a = solver.run(QueryKind::Feasibility);
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
    const std::string id = open(p);
    for (const kb::System* s : kb_->byCategory(kb::Category::Monitoring)) {
        Variation v;
        v.systems[s->name] = true;
        const Answer incremental = ask(id, v);
        EXPECT_EQ(incremental.verdict == Verdict::Sat,
                  Engine(pinned(p, v)).checkFeasible().feasible)
            << s->name;
        expectValidDesign(p, v, incremental);
    }
}

} // namespace
} // namespace lar::reason
