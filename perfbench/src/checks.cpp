#include "checks.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "json/parse.hpp"
#include "json/write.hpp"
#include "reason/engine.hpp"
#include "reason/problem_io.hpp"
#include "reason/service_io.hpp"
#include "reason/validate.hpp"

using namespace lar;

namespace perfbench {

namespace {

/// Distinct requests the Z3 reference solves per run (feasible_hot has only
/// 8, so all of them).
std::size_t referenceSampleSize(WorkloadKind kind) {
    switch (kind) {
        case WorkloadKind::FeasibleHot: return 8;
        case WorkloadKind::OptimizeCold: return 4;
        case WorkloadKind::SessionAsk: return 12;
    }
    return 0;
}

kb::Category categoryFromName(const std::string& name) {
    for (const kb::Category c : kb::kAllCategories)
        if (kb::toString(c) == name) return c;
    throw std::runtime_error("unknown category '" + name + "' in design");
}

kb::HardwareClass hardwareClassFromName(const std::string& name) {
    for (const kb::HardwareClass c :
         {kb::HardwareClass::Switch, kb::HardwareClass::Nic,
          kb::HardwareClass::Server})
        if (kb::toString(c) == name) return c;
    throw std::runtime_error("unknown hardware class '" + name + "' in design");
}

Answer referenceAnswer(const Request& request, const RequestStream& stream,
                       const kb::KnowledgeBase& kb) {
    reason::QueryOptions options;
    options.backend = smt::BackendKind::Z3;
    reason::Engine engine(problemFor(request, stream, kb), options);
    Answer answer;
    if (stream.kind() == WorkloadKind::OptimizeCold) {
        const std::optional<reason::Design> design = engine.optimize();
        answer.verdict = design.has_value() ? "sat" : "unsat";
        if (design.has_value()) answer.costs = design->objectiveCosts;
    } else {
        answer.verdict = engine.checkFeasible().feasible ? "sat" : "unsat";
    }
    if (engine.lastQueryUnknown())
        throw std::runtime_error("Z3 reference gave up on " + request.key);
    return answer;
}

} // namespace

void noteProblem(CheckReport& report, std::string message) {
    if (report.problems.size() < 8) report.problems.push_back(std::move(message));
}

reason::Problem problemFor(const Request& request, const RequestStream& stream,
                           const kb::KnowledgeBase& kb) {
    if (stream.kind() == WorkloadKind::SessionAsk) {
        reason::Problem problem = reason::problemFromJson(
            json::parse(stream.sessionCreateBody()).at("problem"), kb);
        problem.pinnedSystems[request.system] = true;
        return problem;
    }
    return reason::queryRequestFromJson(json::parse(request.body), kb,
                                        reason::QueryOptions{}, 0)
        .problem;
}

reason::Design designFromJson(const json::Value& v) {
    reason::Design design;
    for (const auto& [category, name] : v.at("systems").asObject().entries())
        design.chosen[categoryFromName(category)] = name.asString();
    for (const auto& [cls, model] : v.at("hardware").asObject().entries())
        design.hardwareModel[hardwareClassFromName(cls)] = model.asString();
    for (const json::Value& o : v.at("options").asArray())
        design.enabledOptions.insert(o.asString());
    for (const json::Value& f : v.at("facts").asArray())
        design.activeFacts.insert(f.asString());
    design.hardwareCostUsd = v.at("hardware_cost_usd").asDouble();
    design.powerW = v.at("power_w").asDouble();
    for (const json::Value& c : v.at("objective_costs").asArray())
        design.objectiveCosts.push_back(c.asInt());
    return design;
}

CheckReport checkExchanges(const std::vector<Exchange>& exchanges,
                           const RequestStream& stream,
                           const kb::KnowledgeBase& kb, std::uint64_t seed) {
    const WorkloadKind kind = stream.kind();
    CheckReport report;

    // The reference sample: a seeded choice among the distinct requests
    // that were actually sent.
    std::vector<std::string> keys;
    std::map<std::string, const Request*> requestByKey;
    for (const Exchange& e : exchanges) {
        if (requestByKey.emplace(e.request.key, &e.request).second)
            keys.push_back(e.request.key);
    }
    std::uint64_t state = seed ^ 0x5eed5eedULL;
    for (std::size_t i = keys.size(); i > 1; --i)
        std::swap(keys[i - 1], keys[splitmix64(state) % i]);
    keys.resize(std::min(keys.size(), referenceSampleSize(kind)));
    std::map<std::string, Answer> reference;
    for (const std::string& key : keys)
        reference[key] = referenceAnswer(*requestByKey.at(key), stream, kb);
    report.referenceSolved = reference.size();

    std::map<std::string, reason::Problem> problems; // by key, for validation
    std::set<std::pair<std::string, std::string>> validated; // (key, design)
    std::int64_t lastSolves = -1;
    int lastDaemon = -1;
    for (const Exchange& e : exchanges) {
        const Request& r = e.request;
        if (e.daemon != lastDaemon) lastSolves = -1; // a new session
        lastDaemon = e.daemon;
        std::vector<std::string> wrong;
        try {
            if (e.reply.status != 200)
                throw std::runtime_error("HTTP " + std::to_string(e.reply.status));
            const json::Value body = json::parse(e.reply.body);
            Answer answer;
            answer.verdict = body.at("verdict").asString();
            if (kind != WorkloadKind::SessionAsk &&
                body.at("id").asString() != r.id)
                wrong.push_back("answer carries id " + body.at("id").asString());
            if (answer.verdict != "sat" && answer.verdict != "unsat")
                wrong.push_back("verdict " + answer.verdict);

            const bool hasDesign = body.asObject().contains("design");
            const bool wantsDesign =
                kind != WorkloadKind::FeasibleHot && answer.verdict == "sat";
            if (hasDesign != wantsDesign)
                wrong.push_back(hasDesign ? "unexpected design" : "no design");
            if (hasDesign && wantsDesign) {
                const json::Value& designJson = body.at("design");
                if (kind == WorkloadKind::OptimizeCold) {
                    for (const json::Value& c :
                         designJson.at("objective_costs").asArray())
                        answer.costs.push_back(c.asInt());
                }
                if (validated.emplace(r.key, json::write(designJson)).second) {
                    auto it = problems.find(r.key);
                    if (it == problems.end())
                        it = problems.emplace(r.key, problemFor(r, stream, kb))
                                 .first;
                    const std::vector<std::string> violations =
                        reason::validateDesign(it->second,
                                               designFromJson(designJson));
                    ++report.designsValidated;
                    if (!violations.empty())
                        wrong.push_back("design violates: " + violations.front());
                }
            }

            if (const auto ref = reference.find(r.key); ref != reference.end()) {
                ++report.referenceChecked;
                if (!(ref->second == answer))
                    wrong.push_back("Z3 reference disagrees (" +
                                    ref->second.verdict + " vs " +
                                    answer.verdict + ")");
            }

            // Self-checks: the workload exercises the layer it exists for.
            const json::Value& trace = body.at("trace");
            if (kind == WorkloadKind::FeasibleHot && !trace.at("cache_hit").asBool())
                wrong.push_back("self-check: feasible_hot missed the compile cache");
            if (kind == WorkloadKind::OptimizeCold && trace.at("cache_hit").asBool())
                wrong.push_back("self-check: optimize_cold hit the compile cache");
            if (kind == WorkloadKind::SessionAsk) {
                // The session's solver statistics are cumulative: they only
                // keep growing while every ask runs on the one held solver.
                const std::int64_t solves = trace.at("stats").at("solves").asInt();
                if (solves <= lastSolves)
                    wrong.push_back("self-check: session solver was rebuilt");
                lastSolves = solves;
            }
            report.answers[r.id] = std::move(answer);
        } catch (const std::exception& ex) {
            wrong.push_back(ex.what());
        }
        if (!wrong.empty()) {
            ++report.failed;
            noteProblem(report, r.id + " (" + r.key + "): " + wrong.front());
        }
    }
    return report;
}

} // namespace perfbench
