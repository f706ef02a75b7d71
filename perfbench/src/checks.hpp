// Correctness of every answer the end-to-end run received.
//
// Each exchange is checked three ways, and any mismatch counts as a
// failure in success_ratio:
//  * reference: the verdict (and, for optimize, the whole objective_costs
//    vector) must equal what the in-process Z3 backend — a solver that
//    shares no search code with the CDCL stack — answers for the same
//    request. Z3 solves a seeded sample of each workload's distinct
//    requests, outside every timed window;
//  * validation: every returned design is rebuilt from its JSON and run
//    through reason::validateDesign against the problem it answers;
//  * self-checks: the workload still exercises the layer it exists for
//    (feasible_hot hits the compilation cache on every request,
//    optimize_cold never does, session_ask answers every ask on the one
//    solver the session holds).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "client.hpp"
#include "kb/kb.hpp"
#include "reason/design.hpp"
#include "reason/problem.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One timed request and what came back.
struct Exchange {
    Request request;
    double latencyMs = 0.0;
    HttpReply reply;
    int daemon = 0; ///< which of the run's daemons answered it
};

/// The part of an answer the traced run must reproduce.
struct Answer {
    std::string verdict;
    std::vector<std::int64_t> costs; ///< optimize: the objective_costs vector
    [[nodiscard]] bool operator==(const Answer&) const = default;
};

struct CheckReport {
    std::size_t failed = 0;            ///< exchanges with any mismatch
    std::vector<std::string> problems; ///< the first few, for the log
    std::map<std::string, Answer> answers; ///< by request id
    std::size_t referenceChecked = 0;  ///< exchanges compared against Z3
    std::size_t referenceSolved = 0;   ///< distinct requests Z3 solved
    std::size_t designsValidated = 0;  ///< distinct designs validated
    std::size_t crossChecked = 0;      ///< traced answers compared by id
};

/// The problem a request asks about: the query's problem, or for an ask
/// the session's problem with the ask's system pinned on.
[[nodiscard]] lar::reason::Problem problemFor(const Request& request,
                                         const RequestStream& stream,
                                         const lar::kb::KnowledgeBase& kb);

/// Rebuilds a Design from the JSON reason::toJson(Design) writes.
[[nodiscard]] lar::reason::Design designFromJson(const lar::json::Value& v);

/// Checks every exchange (see the file comment). `seed` picks the
/// reference sample.
[[nodiscard]] CheckReport checkExchanges(const std::vector<Exchange>& exchanges,
                                         const RequestStream& stream,
                                         const lar::kb::KnowledgeBase& kb,
                                         std::uint64_t seed);

/// Records a failure message (keeping only the first few).
void noteProblem(CheckReport& report, std::string message);

} // namespace perfbench
