// Incremental what-if sessions.
//
// An architect's exploration (§5.1) is a burst of small variations on one
// problem: pin this system, forbid that one, freeze a hardware model, try
// again. Engine answers each by recompiling; a WhatIfSession compiles once
// (or binds a cached Compilation) and answers every variation through
// solver assumptions, exploiting the CDCL backend's incrementality (learned
// clauses persist across queries).
//
// Only pin-style variations are expressible this way — anything that
// changes rules (new workloads, different budgets) needs a fresh Engine.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "reason/answer.hpp"
#include "reason/compile.hpp"
#include "reason/design.hpp"
#include "reason/problem.hpp"
#include "reason/query_options.hpp"

namespace lar::reason {

/// One what-if variation: pins applied on top of the base problem.
struct Variation {
    /// System name → must be deployed (true) / must not (false).
    std::map<std::string, bool> systems;
    /// Hardware class → the model that must be used.
    std::map<kb::HardwareClass, std::string> hardwareModels;
    /// Option name → forced value.
    std::map<std::string, bool> options;
};

class WhatIfSession {
public:
    explicit WhatIfSession(const Problem& problem,
                           const QueryOptions& options = {});

    /// Binds the session to an already-compiled (possibly cached) problem.
    explicit WhatIfSession(std::shared_ptr<const Compilation> compilation,
                           const QueryOptions& options = {});


    /// Answers a variation without recompiling. Repeated calls are
    /// independent: assumptions do not accumulate. Sat carries a witness
    /// design, Unsat the conflicting rules; a gave-up verdict carries the
    /// stop reason. A variation naming unknown systems/models/options
    /// returns Verdict::Error with the offending names listed — it never
    /// reaches the solver (an unknown name would otherwise map to no
    /// assumption and the ask would succeed vacuously). The answer's stats
    /// are the session's cumulative counters.
    [[nodiscard]] Answer ask(const Variation& variation);

    /// Number of variations answered so far (for reporting).
    [[nodiscard]] int queriesAnswered() const { return queries_; }

    [[nodiscard]] const Compilation& compilation() const {
        return session_.compilation();
    }

    /// True when the session started from an accepted warm-start snapshot.
    [[nodiscard]] bool warmStarted() const { return session_.warmStarted(); }
    /// Clauses integrated from the warm-start snapshot (0 = cold).
    [[nodiscard]] std::size_t warmStartImported() const {
        return session_.warmStartImported();
    }
    /// Exports the solver's learnt heuristic state for a later session over
    /// the same compilation fingerprint (empty when nothing exportable —
    /// asks only add assumptions, never clauses, so this normally succeeds).
    [[nodiscard]] sat::SolverSnapshot exportSnapshot() const {
        return session_.exportSnapshot();
    }

private:
    QueryOptions options_;
    SolverSession session_;
    int queries_ = 0;
};

} // namespace lar::reason
