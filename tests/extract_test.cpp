#include <gtest/gtest.h>

#include <regex>

#include "catalog/catalog.hpp"
#include "extract/checker.hpp"
#include "extract/extractor.hpp"
#include "extract/specgen.hpp"
#include "doc_section.hpp"
#include "util/error.hpp"

namespace lar::extract {
namespace {

class ExtractTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        kb_ = new kb::KnowledgeBase(catalog::buildKnowledgeBase());
    }
    static void TearDownTestSuite() {
        delete kb_;
        kb_ = nullptr;
    }
    static kb::KnowledgeBase* kb_;
};

kb::KnowledgeBase* ExtractTest::kb_ = nullptr;

TEST_F(ExtractTest, Listing1SheetRendersPaperFields) {
    const SpecSheet sheet =
        renderSpecSheet(kb_->hardware("Cisco Catalyst 9500-40X"));
    EXPECT_NE(sheet.text.find("\"Model Name\": \"Cisco Catalyst 9500-40X\""),
              std::string::npos);
    EXPECT_NE(sheet.text.find("\"Port Bandwidth\": \"10 Gbps\""),
              std::string::npos);
    EXPECT_NE(sheet.text.find("\"Max Power Consumption\": \"950W\""),
              std::string::npos);
    EXPECT_NE(sheet.text.find("\"Ports\": \"40x 10 Gigabit Ethernet SFP+\""),
              std::string::npos);
    EXPECT_NE(sheet.text.find("\"Memory\": \"16 GB\""), std::string::npos);
    EXPECT_NE(sheet.text.find("\"P4 Supported?\": \"No\""), std::string::npos);
    EXPECT_NE(sheet.text.find("\"# P4 Stages\": \"N/A\""), std::string::npos);
    EXPECT_NE(sheet.text.find("\"ECN supported?\": \"Yes\""), std::string::npos);
    EXPECT_NE(sheet.text.find("\"MAC Address Table Size\": \"64,000 entries\""),
              std::string::npos);
}

TEST_F(ExtractTest, HardwareExtractionIsPerfectOnWholeCorpus) {
    // §4.1: "the LLM extracted the fields with 100% accuracy (unless it was
    // missing in the spec itself)".
    int sheets = 0;
    int totalFields = 0;
    int correctFields = 0;
    for (const SpecSheet& sheet : renderHardwareCorpus(*kb_)) {
        const kb::HardwareSpec extracted = extractHardware(sheet.text);
        const FieldAccuracy acc = compareHardware(extracted, sheet.groundTruth);
        ++sheets;
        totalFields += acc.total;
        correctFields += acc.correct;
    }
    EXPECT_GT(totalFields, 1500);
    EXPECT_EQ(correctFields, totalFields); // 100 %

    std::smatch m;
    const std::string section = test::docSection(LAR_EXPERIMENTS_MD, "LST1");
    ASSERT_TRUE(std::regex_search(
        section, m, std::regex(R"(\((\d+)/(\d+) fields over (\d+) sheets)")));
    EXPECT_EQ(std::stoi(m[1]), correctFields);
    EXPECT_EQ(std::stoi(m[2]), totalFields);
    EXPECT_EQ(std::stoi(m[3]), sheets);
}

TEST_F(ExtractTest, ExtractHardwareParsesThousandsSeparators) {
    const SpecSheet sheet =
        renderSpecSheet(kb_->hardware("Cisco Catalyst 9500-40X"));
    const kb::HardwareSpec extracted = extractHardware(sheet.text);
    EXPECT_EQ(extracted.numAttr(kb::kAttrMacTableSize), 64000.0);
    EXPECT_DOUBLE_EQ(extracted.unitCostUsd, 22000.0);
}

TEST_F(ExtractTest, ExtractHardwareRejectsGarbage) {
    EXPECT_THROW((void)extractHardware("not a sheet"), ParseError);
    EXPECT_THROW((void)extractHardware("{\n  \"Vendor\": \"x\"\n}\n"),
                 ParseError); // no Model Name
}

TEST_F(ExtractTest, SystemDocSeparatesNuancesFromHardRequirements) {
    const SystemDoc annulus = renderSystemDoc(kb_->system("Annulus"));
    int nuances = 0;
    int hard = 0;
    for (const DocFact& fact : annulus.facts) {
        if (fact.kind == DocFact::Kind::NuanceCondition) ++nuances;
        if (fact.kind == DocFact::Kind::HardRequirement) ++hard;
    }
    // The WAN/DC-competition applicability is a nuance; QCN support is hard.
    EXPECT_GE(nuances, 1);
    EXPECT_GE(hard, 1);
    EXPECT_NE(annulus.prose.find("only when"), std::string::npos);
}

TEST_F(ExtractTest, NoiselessExtractionRecoversEverything) {
    NoiseModel perfect;
    perfect.missNuanceCondition = 0;
    perfect.missQuantity = 0;
    perfect.wrongQuantity = 0;
    perfect.missHardRequirement = 0;
    perfect.missProvides = 0;
    perfect.missConflict = 0;
    util::Rng rng(1);
    for (const kb::System& s : kb_->systems()) {
        const SystemDoc doc = renderSystemDoc(s);
        const SystemExtraction result = extractSystem(doc, perfect, rng);
        EXPECT_EQ(result.encoding.constraints.toString(),
                  s.constraints.toString())
            << s.name;
        EXPECT_EQ(result.encoding.demands.size(), s.demands.size()) << s.name;
        EXPECT_EQ(result.encoding.provides, s.provides) << s.name;
        EXPECT_EQ(result.encoding.solves, s.solves) << s.name;
    }
}

TEST_F(ExtractTest, NoisyExtractionMatchesPaperFindings) {
    // §4.1 shape: hardware requirements mostly found; nuance conditions and
    // quantities missed much more often.
    NoiseModel noise;
    util::Rng rng(42);
    ExtractionStats stats;
    for (int round = 0; round < 20; ++round)
        for (const SystemDoc& doc : renderSystemCorpus(*kb_))
            stats.add(extractSystem(doc, noise, rng).stats);

    const double hardRecall = static_cast<double>(stats.hardRequirementsFound) /
                              stats.hardRequirementsTotal;
    const double nuanceRecall = static_cast<double>(stats.nuanceConditionsFound) /
                                stats.nuanceConditionsTotal;
    const double quantityPrecision =
        static_cast<double>(stats.quantitiesCorrect) / stats.quantitiesTotal;
    EXPECT_GT(hardRecall, 0.9);
    EXPECT_LT(nuanceRecall, 0.7);
    EXPECT_LT(nuanceRecall, hardRecall - 0.2);
    EXPECT_LT(quantityPrecision, hardRecall);
    EXPECT_GT(stats.nuanceConditionsTotal, 0);
}

TEST_F(ExtractTest, AdversarialPromptingImprovesRecall) {
    // §4.1: "it was more productive to ask the LLM to find requirements
    // without which the mechanisms paper cannot work".
    NoiseModel plain;
    NoiseModel adversarial;
    adversarial.adversarialPrompting = true;
    ExtractionStats plainStats;
    ExtractionStats advStats;
    util::Rng rngA(7);
    util::Rng rngB(7);
    for (int round = 0; round < 30; ++round) {
        for (const SystemDoc& doc : renderSystemCorpus(*kb_)) {
            plainStats.add(extractSystem(doc, plain, rngA).stats);
            advStats.add(extractSystem(doc, adversarial, rngB).stats);
        }
    }
    EXPECT_GT(advStats.nuanceConditionsFound, plainStats.nuanceConditionsFound);
}

TEST_F(ExtractTest, CheckerFindsShenangoInterruptPollingGap) {
    // §4.2's concrete example: a hand-written Shenango encoding that forgot
    // the interrupt-polling NIC requirement gets flagged.
    kb::System incomplete = kb_->system("Shenango");
    incomplete.constraints = kb::Requirement::hardwareHas(
        kb::HardwareClass::Nic, kb::kAttrSrIov); // forgot interrupt polling
    const SystemDoc doc = renderSystemDoc(kb_->system("Shenango"));
    const auto flagged = [](const CheckResult& result) {
        return std::any_of(
            result.findings.begin(), result.findings.end(),
            [](const CheckFinding& finding) {
                return finding.type == CheckFinding::Type::MissingCondition &&
                       finding.description.find("interrupt_polling") !=
                           std::string::npos;
            });
    };
    CheckerModel certain;
    certain.detectMissingCondition = 1.0;
    certain.falseAlarm = 0.0;
    util::Rng rng(3);
    EXPECT_TRUE(flagged(checkEncoding(incomplete, doc, certain, rng)));

    // Under the default (imperfect) checker, the paper's "it identified that
    // we missed it" must hold in more than 80 of 100 runs.
    int runsFlagged = 0;
    for (int run = 0; run < 100; ++run)
        runsFlagged +=
            flagged(checkEncoding(incomplete, doc, CheckerModel{}, rng));
    EXPECT_GT(runsFlagged, 80);
}

TEST_F(ExtractTest, CheckerFlagsWrongSonataStageCount) {
    // §4.2: "it does raise an alarm if we encode the wrong number of P4
    // stages to deploy Sonata" — though value checks are less reliable.
    kb::System wrong = kb_->system("Sonata");
    for (kb::ResourceDemand& d : wrong.demands)
        if (d.resource == kb::kResP4Stages) d.fixed = 2; // truth is 8
    const SystemDoc doc = renderSystemDoc(kb_->system("Sonata"));
    const auto flagged = [](const CheckResult& result) {
        return std::any_of(result.findings.begin(), result.findings.end(),
                           [](const CheckFinding& finding) {
                               return finding.type ==
                                      CheckFinding::Type::WrongValue;
                           });
    };
    CheckerModel certain;
    certain.detectWrongValue = 1.0;
    certain.falseAlarm = 0.0;
    util::Rng rng(3);
    EXPECT_TRUE(flagged(checkEncoding(wrong, doc, certain, rng)));

    // Under the default checker the alarm is raised only part of the time:
    // in more than 20 and fewer than 90 of 100 runs.
    int runsFlagged = 0;
    for (int run = 0; run < 100; ++run)
        runsFlagged += flagged(checkEncoding(wrong, doc, CheckerModel{}, rng));
    EXPECT_GT(runsFlagged, 20);
    EXPECT_LT(runsFlagged, 90);
}

TEST_F(ExtractTest, ExistenceCheckingBeatsValueChecking) {
    // §4.2 aggregate: detection rate of missing conditions exceeds that of
    // wrong values under the default checker model.
    CheckerModel model;
    util::Rng rng(11);
    CheckStats totals;
    NoiseModel noise;
    for (int round = 0; round < 30; ++round) {
        for (const SystemDoc& doc : renderSystemCorpus(*kb_)) {
            const SystemExtraction extraction = extractSystem(doc, noise, rng);
            const CheckResult check =
                checkEncoding(extraction.encoding, doc, model, rng);
            totals.missingTotal += check.stats.missingTotal;
            totals.missingFlagged += check.stats.missingFlagged;
            totals.wrongValueTotal += check.stats.wrongValueTotal;
            totals.wrongValueFlagged += check.stats.wrongValueFlagged;
        }
    }
    ASSERT_GT(totals.missingTotal, 0);
    ASSERT_GT(totals.wrongValueTotal, 0);
    const double missRate =
        static_cast<double>(totals.missingFlagged) / totals.missingTotal;
    const double valueRate =
        static_cast<double>(totals.wrongValueFlagged) / totals.wrongValueTotal;
    EXPECT_GT(missRate, valueRate);
    EXPECT_GT(missRate, 0.85);
}

TEST_F(ExtractTest, PerfectEncodingYieldsNoFindings) {
    CheckerModel model;
    model.falseAlarm = 0.0;
    util::Rng rng(9);
    for (const kb::System& s : kb_->systems()) {
        const CheckResult result =
            checkEncoding(s, renderSystemDoc(s), model, rng);
        EXPECT_TRUE(result.findings.empty()) << s.name;
    }
}

TEST_F(ExtractTest, ObjectivityClassification) {
    // §4.2: comparisons are subjective; dependency facts are objective.
    for (const kb::Ordering& o : kb_->orderings())
        EXPECT_EQ(classifyOrdering(o), ClaimClass::SubjectiveComparison);
    EXPECT_EQ(classifyRequirement(kb_->system("HPCC").constraints),
              ClaimClass::ObjectiveFact);
}

} // namespace
} // namespace lar::extract
