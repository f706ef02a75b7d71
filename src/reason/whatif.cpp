#include "reason/whatif.hpp"

namespace lar::reason {

WhatIfSession::WhatIfSession(const Problem& problem, const QueryOptions& options)
    : WhatIfSession(std::make_shared<const Compilation>(problem), options) {}

WhatIfSession::WhatIfSession(std::shared_ptr<const Compilation> compilation,
                             const QueryOptions& options)
    : options_(options), session_(std::move(compilation), options) {
    options_.warmStart.reset(); // imported by the session; don't pin it
}

Answer WhatIfSession::ask(const Variation& variation) {
    ++queries_;
    const Compilation& compilation = session_.compilation();
    smt::FormulaStore& store = session_.store();
    std::vector<smt::NodeId> assumptions;
    Answer answer;

    // Unknown names are a structured error, not an exception and not a
    // silent no-op: an assumption that maps to nothing would make the ask
    // vacuously feasible, which is the worst possible answer to a typo.
    for (const auto& [name, include] : variation.systems) {
        const smt::NodeId var = compilation.systemVar(name);
        if (var == smt::kInvalidNode) {
            answer.unknownNames.push_back("system/" + name);
            continue;
        }
        assumptions.push_back(include ? var : store.mkNot(var));
    }
    for (const auto& [cls, model] : variation.hardwareModels) {
        const smt::NodeId var = compilation.hardwareVar(cls, model);
        if (var == smt::kInvalidNode) {
            answer.unknownNames.push_back("hardware/" + toString(cls) + "/" +
                                          model);
            continue;
        }
        assumptions.push_back(var);
    }
    for (const auto& [name, enabled] : variation.options) {
        const smt::NodeId var = compilation.optionVar(name);
        if (var == smt::kInvalidNode) {
            answer.unknownNames.push_back("option/" + name);
            continue;
        }
        assumptions.push_back(enabled ? var : store.mkNot(var));
    }
    smt::Backend& backend = session_.backend();
    if (!answer.unknownNames.empty()) {
        answer.verdict = Verdict::Error;
    } else {
        backend.restartDeadline(); // timeoutMs bounds each ask
        const smt::CheckStatus status = backend.check(assumptions);
        answer.verdict = verdictOf(status, backend.lastStopReason(), options_);
        if (status == smt::CheckStatus::Sat)
            answer.design = session_.extractDesign();
        else if (status == smt::CheckStatus::Unsat)
            answer.conflictingRules =
                compilation.describeTracks(backend.unsatCore().tracks);
        else
            answer.stopReason = backend.lastStopReason();
    }
    answer.stats = backend.stats();
    answer.warmStartImported = session_.warmStartImported();
    return answer;
}

} // namespace lar::reason
