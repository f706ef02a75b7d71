#include "reason/engine.hpp"

#include <algorithm>
#include <set>

#include "obs/span.hpp"
#include "util/error.hpp"

namespace lar::reason {

Engine::Engine(const Problem& problem, const QueryOptions& options)
    : compilation_(std::make_shared<const Compilation>(problem)),
      options_(options) {}

Engine::Engine(std::shared_ptr<const Compilation> compilation,
               const QueryOptions& options)
    : compilation_(std::move(compilation)), options_(options) {
    expects(compilation_ != nullptr, "Engine: null compilation");
}

namespace {

FeasibilityReport toReport(Answer answer) {
    return {answer.verdict == Verdict::Sat, gaveUp(answer.verdict),
            std::move(answer.conflictingRules)};
}

} // namespace

Answer Engine::run(QueryKind kind, int maxDesigns) {
    return execute(kind, maxDesigns, /*optimizeFirst=*/true);
}

Answer Engine::execute(QueryKind kind, int maxDesigns, bool optimizeFirst) {
    const obs::Span span("solve");
    SolverSession session(compilation_, options_);
    Answer answer = session.run(kind, maxDesigns, {}, optimizeFirst);
    if (options_.captureSnapshot) {
        sat::SolverSnapshot snap = session.exportSnapshot();
        if (!snap.empty())
            answer.snapshot =
                std::make_shared<const sat::SolverSnapshot>(std::move(snap));
    }
    lastVerdict_ = answer.verdict;
    return answer;
}

FeasibilityReport Engine::checkFeasible() {
    return toReport(run(QueryKind::Feasibility));
}

FeasibilityReport Engine::explainMinimalConflict() {
    return toReport(run(QueryKind::Explain));
}

std::optional<Design> Engine::synthesize() {
    return run(QueryKind::Synthesize).design;
}

std::optional<Design> Engine::optimize() {
    return run(QueryKind::Optimize).design;
}

std::vector<Design> Engine::enumerateDesigns(int maxDesigns, bool optimizeFirst) {
    return execute(QueryKind::Enumerate, maxDesigns, optimizeFirst).designs;
}

ScenarioComparison compareScenarios(const Problem& a, const Problem& b,
                                    const QueryOptions& options) {
    ScenarioComparison cmp;
    cmp.a = Engine(a, options).optimize();
    cmp.b = Engine(b, options).optimize();
    if (cmp.a.has_value() && cmp.b.has_value()) cmp.changes = cmp.a->diff(*cmp.b);
    return cmp;
}


RetentionReport analyzeRetention(const Problem& problem, const std::string& system,
                                 const QueryOptions& options) {
    RetentionReport report;
    Problem keeping = problem;
    keeping.pinnedSystems[system] = true;
    report.keeping = Engine(keeping, options).optimize();
    report.unpinned = Engine(problem, options).optimize();
    if (report.keeping.has_value() && report.unpinned.has_value()) {
        const auto& kc = report.keeping->objectiveCosts;
        const auto& fc = report.unpinned->objectiveCosts;
        for (std::size_t i = 0; i < kc.size() && i < fc.size(); ++i)
            report.extraCostPerObjective.push_back(kc[i] - fc[i]);
        report.extraHardwareCostUsd =
            report.keeping->hardwareCostUsd - report.unpinned->hardwareCostUsd;
    }
    return report;
}


bool RetentionReport::worthSwitching(std::int64_t threshold) const {
    if (!keeping.has_value()) return true; // cannot keep it at all
    if (!unpinned.has_value()) return false;
    for (const std::int64_t delta : extraCostPerObjective) {
        if (delta > threshold) return true; // keeping costs too much here
        if (delta < 0) return false;        // keeping actually wins earlier level
    }
    return false;
}

std::vector<DisambiguationSuggestion> suggestDisambiguation(
    const Problem& problem, int sampleDesigns, const QueryOptions& options) {
    Engine engine(problem, options);
    const std::vector<Design> designs =
        engine.enumerateDesigns(sampleDesigns, /*optimizeFirst=*/true);
    std::vector<DisambiguationSuggestion> suggestions;
    if (designs.size() <= 1) return suggestions; // already unique (or infeasible)

    for (const kb::Category category : kb::kAllCategories) {
        std::set<std::string> choices;
        for (const Design& d : designs) {
            const auto it = d.chosen.find(category);
            choices.insert(it == d.chosen.end() ? "(none)" : it->second);
        }
        if (choices.size() <= 1) continue;
        DisambiguationSuggestion s;
        s.category = category;
        s.contenders.assign(choices.begin(), choices.end());
        std::string names;
        for (const std::string& c : s.contenders) {
            if (!names.empty()) names += ", ";
            names += c;
        }
        const std::string topObjective =
            problem.objectivePriority.empty() ? "your top objective"
                                              : problem.objectivePriority.front();
        s.suggestion = "the " + toString(category) +
                       " choice is not pinned down (" + names +
                       " tie at the optimum); encode an ordering among them on "
                       "'" + topObjective + "' or pin one to make the design "
                       "unique";
        suggestions.push_back(std::move(s));
    }
    return suggestions;
}


std::vector<RefinementHint> suggestRefinements(const Problem& problem,
                                               const Design& design) {
    expects(problem.kb != nullptr, "suggestRefinements: problem has no KB");
    const kb::KnowledgeBase& kb = *problem.kb;
    std::vector<RefinementHint> hints;
    for (const auto& [category, name] : design.chosen) {
        const kb::System& s = kb.system(name);
        RefinementHint hint;
        hint.system = name;
        if (s.constraints.isTrivial())
            hint.gaps.push_back("no deployment requirements encoded");
        if (s.demands.empty())
            hint.gaps.push_back("no resource demands encoded");
        const bool compared = std::any_of(
            kb.orderings().begin(), kb.orderings().end(),
            [&name = name](const kb::Ordering& o) {
                return o.better == name || o.worse == name;
            });
        if (!compared)
            hint.gaps.push_back("no orderings compare it with alternatives");
        if (!hint.gaps.empty()) hints.push_back(std::move(hint));
    }
    return hints;
}

InformationValue valueOfInformation(const Problem& problem,
                                    const std::string& objective,
                                    const std::string& systemA,
                                    const std::string& systemB,
                                    const QueryOptions& options) {
    expects(problem.kb != nullptr, "valueOfInformation: problem has no KB");
    InformationValue result;

    kb::KnowledgeBase kbA = *problem.kb; // deep copy
    kbA.addOrdering({systemA, systemB, objective, kb::Requirement::alwaysTrue(),
                     "hypothetical measurement", {}});
    Problem pa = problem;
    pa.kb = &kbA;
    result.ifABetter = Engine(pa, options).optimize();

    kb::KnowledgeBase kbB = *problem.kb;
    kbB.addOrdering({systemB, systemA, objective, kb::Requirement::alwaysTrue(),
                     "hypothetical measurement", {}});
    Problem pb = problem;
    pb.kb = &kbB;
    result.ifBBetter = Engine(pb, options).optimize();

    if (result.ifABetter.has_value() != result.ifBBetter.has_value()) {
        result.changesDesign = true;
    } else if (result.ifABetter.has_value() && result.ifBBetter.has_value()) {
        result.changesDesign = !result.ifABetter->diff(*result.ifBBetter).empty();
    }
    return result;
}


} // namespace lar::reason
