// DESIGN.md §9 documents the toJson(QueryTrace) schema; this test keeps the
// document honest. It serializes a trace with every optional block present
// and fails when a top-level key has no row in the §9 table, or when the
// section — or README.md — states a schema version other than
// kQueryTraceSchemaVersion. It also runs queries down every way a backend
// gets built and fails when §9 does not name a span they emit. Beside it,
// BenchDoc fails when a document names a bench binary that is not built.
#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <set>
#include <string>

#include "catalog/catalog.hpp"
#include "doc_section.hpp"
#include "obs/span.hpp"
#include "reason/engine.hpp"
#include "reason/trace.hpp"
#include "util/file.hpp"

namespace lar::reason {
namespace {

/// The text of DESIGN.md from "## 9." up to the next "## " heading.
std::string section9() { return test::docSection(LAR_DESIGN_MD, "9."); }

/// A trace with every optional top-level block populated.
QueryTrace fullTrace() {
    QueryTrace trace;
    trace.id = "q";
    trace.traceId = "0123456789abcdef0123456789abcdef";
    trace.verdict = Verdict::Error;
    trace.verdictDetail = "3 designs";
    trace.errorKind = "error";
    trace.errorMessage = "boom";
    trace.stopReason = sat::StopReason::Deadline;
    trace.warmStartAttempted = true;
    trace.portfolioWorkers = 2;
    trace.stats.simplifyRounds = 1;
    // A one-span budget with two spans opened: the tree is truncated.
    auto spans = std::make_shared<obs::Trace>(1);
    {
        const obs::ScopedTrace scoped(*spans);
        const obs::Span outer("query");
        const obs::Span inner("solve");
    }
    trace.spans = spans;
    return trace;
}

TEST(TraceSchemaDoc, Section9DocumentsTheEmittedVersion) {
    const std::string section = section9();
    std::smatch m;
    ASSERT_TRUE(std::regex_search(section, m,
                                  std::regex(R"re("schema": (\d+))re")));
    EXPECT_EQ(std::stoi(m[1]), kQueryTraceSchemaVersion);
    ASSERT_TRUE(std::regex_search(
        section, m, std::regex(R"(this table documents version (\d+))")));
    EXPECT_EQ(std::stoi(m[1]), kQueryTraceSchemaVersion);
}

TEST(TraceSchemaDoc, Section9HasARowForEveryTopLevelKey) {
    const std::string section = section9();
    std::set<std::string> documented;
    const std::regex row(R"(\n\| `([a-z_]+)` \|)");
    for (auto it = std::sregex_iterator(section.begin(), section.end(), row);
         it != std::sregex_iterator(); ++it)
        documented.insert((*it)[1]);

    const json::Value v = toJson(fullTrace());
    for (const char* optional :
         {"trace_id", "verdict_detail", "stop_reason", "warm_start",
          "portfolio", "error", "simplify", "spans", "spans_truncated"})
        EXPECT_TRUE(v.asObject().contains(optional))
            << "fullTrace() no longer populates " << optional;
    for (const auto& [key, value] : v.asObject().entries())
        EXPECT_TRUE(documented.count(key) == 1)
            << "DESIGN.md §9 has no row for \"" << key << "\"";
}

void collectSpanNames(const obs::SpanNode& node, std::set<std::string>& names) {
    names.insert(node.name);
    for (const auto& child : node.children) collectSpanNames(*child, names);
}

TEST(TraceSchemaDoc, Section9NamesEverySpanOfTheQueryPath) {
    // A fingerprint's first two CDCL sessions prepare their solver, later
    // ones clone its image, and inprocessing-off (like Z3 and portfolio)
    // sessions replay the encoding.
    const kb::KnowledgeBase kb = catalog::buildKnowledgeBase();
    const auto compilation =
        std::make_shared<const Compilation>(makeDefaultProblem(kb));
    QueryOptions replay;
    replay.simplify = false;
    std::set<std::string> names;
    for (const QueryOptions& options : {QueryOptions{}, QueryOptions{},
                                        QueryOptions{}, replay}) {
        obs::Trace trace;
        {
            const obs::ScopedTrace scoped(trace);
            (void)Engine(compilation, options).run(QueryKind::Optimize);
        }
        ASSERT_NE(trace.root(), nullptr);
        collectSpanNames(*trace.root(), names);
    }
    for (const char* expected : {"solve", "prepare", "clone", "encode", "optimize"})
        EXPECT_EQ(names.count(expected), 1u) << "no span named " << expected;
    const std::string section = section9();
    for (const std::string& name : names)
        EXPECT_NE(section.find("`" + name + "`"), std::string::npos)
            << "DESIGN.md §9 does not name the span \"" << name << "\"";
}

TEST(TraceSchemaDoc, ReadmeNamesTheEmittedVersion) {
    // README.md refers to the trace schema as "schema-vN `QueryTrace`".
    const std::string readme = util::readFile(LAR_README_MD);
    const std::regex mention(R"(schema-v(\d+) `QueryTrace`)");
    int mentions = 0;
    for (auto it = std::sregex_iterator(readme.begin(), readme.end(), mention);
         it != std::sregex_iterator(); ++it, ++mentions)
        EXPECT_EQ(std::stoi((*it)[1]), kQueryTraceSchemaVersion)
            << "README.md: " << (*it)[0];
    EXPECT_GE(mentions, 1) << "README.md no longer names the trace schema";
}

TEST(BenchDoc, EveryNamedBenchIsBuilt) {
    // Each bench_* name in the docs needs a lar_add_bench line in
    // bench/CMakeLists.txt. The leading context excludes names such as
    // perfbench_driver and .bench_build/, which are not benches.
    const std::string cmake = util::readFile(LAR_BENCH_CMAKELISTS);
    const std::regex name(R"((?:^|[^A-Za-z0-9_.])(bench_[a-z0-9_]+))");
    for (const char* path : {LAR_README_MD, LAR_DESIGN_MD, LAR_EXPERIMENTS_MD,
                             LAR_VERIFY_SKILL_MD}) {
        const std::string doc = util::readFile(path);
        for (auto it = std::sregex_iterator(doc.begin(), doc.end(), name);
             it != std::sregex_iterator(); ++it)
            EXPECT_NE(cmake.find("lar_add_bench(" + (*it)[1].str() + " "),
                      std::string::npos)
                << path << " names " << (*it)[1]
                << ", which bench/CMakeLists.txt does not build";
    }
}

} // namespace
} // namespace lar::reason
