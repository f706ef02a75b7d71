#include "serve/session_io.hpp"

#include <string>

#include "util/error.hpp"

namespace lar::serve {

namespace {

kb::HardwareClass hardwareClassFromName(const std::string& name) {
    if (name == "switch") return kb::HardwareClass::Switch;
    if (name == "nic") return kb::HardwareClass::Nic;
    if (name == "server") return kb::HardwareClass::Server;
    throw ParseError("unknown hardware class '" + name +
                     "' (expected switch, nic, or server)");
}

void fillBoolMap(const json::Value& v, const char* field,
                 std::map<std::string, bool>& out) {
    if (!v.isObject()) {
        throw ParseError(std::string(field) + " must be an object of booleans");
    }
    for (const auto& [name, value] : v.asObject().entries()) {
        if (!value.isBool()) {
            throw ParseError(std::string(field) + "." + name +
                             " must be a boolean");
        }
        out[name] = value.asBool();
    }
}

} // namespace

reason::Variation variationFromJson(const json::Value& v) {
    reason::Variation variation;
    if (v.isNull()) return variation; // empty body: ask the base problem
    if (!v.isObject()) throw ParseError("variation must be a JSON object");
    for (const auto& [key, value] : v.asObject().entries()) {
        if (key == "api") continue; // checked by rejectApiMismatch
        if (key == "systems") {
            fillBoolMap(value, "systems", variation.systems);
        } else if (key == "options") {
            fillBoolMap(value, "options", variation.options);
        } else if (key == "hardware") {
            if (!value.isObject()) {
                throw ParseError("hardware must be an object of model names");
            }
            for (const auto& [cls, model] : value.asObject().entries()) {
                if (!model.isString()) {
                    throw ParseError("hardware." + cls +
                                     " must be a model name string");
                }
                variation.hardwareModels[hardwareClassFromName(cls)] =
                    model.asString();
            }
        } else {
            throw ParseError("unknown variation field '" + key + "'");
        }
    }
    return variation;
}

json::Value answerToJson(const reason::Answer& answer,
                         const reason::QueryTrace* trace) {
    json::Value v;
    v["verdict"] = std::string(reason::verdictName(answer.verdict));
    v["feasible"] = answer.verdict == reason::Verdict::Sat;
    v["timed_out"] = reason::gaveUp(answer.verdict);
    if (answer.stopReason != sat::StopReason::None) {
        v["stop_reason"] = std::string(sat::toString(answer.stopReason));
    }
    if (answer.design.has_value()) v["design"] = toJson(*answer.design);
    if (!answer.conflictingRules.empty()) {
        json::Array rules;
        for (const std::string& rule : answer.conflictingRules) {
            rules.emplace_back(rule);
        }
        v["conflicting_rules"] = json::Value(std::move(rules));
    }
    if (!answer.unknownNames.empty()) {
        json::Array names;
        for (const std::string& name : answer.unknownNames) {
            names.emplace_back(name);
        }
        v["unknown_names"] = json::Value(std::move(names));
    }
    if (trace != nullptr) v["trace"] = toJson(*trace);
    return v;
}

} // namespace lar::serve
