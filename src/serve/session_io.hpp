// JSON wire schema of the what-if session endpoints.
//
// A variation (request body of POST /v1/session/{id}/ask):
//   {"api": 1,
//    "systems":  {"<system name>": true|false, ...},
//    "hardware": {"switch"|"nic"|"server": "<model name>", ...},
//    "options":  {"<option name>": true|false, ...}}
// All three maps are optional; an empty body asks the base problem.
//
// An answer mirrors reason::Answer, unified on the Verdict enum:
//   {"api": 1, "verdict": "sat"|..., "feasible": bool, "timed_out": bool,
//    "stop_reason": "...",            // only when a budget/deadline stopped it
//    "design": {...},                 // only when verdict == sat
//    "conflicting_rules": [...],      // only when verdict == unsat
//    "unknown_names": [...],          // only when verdict == error
//    "trace": {...}}                  // QueryTrace (schema v7)
#pragma once

#include "json/value.hpp"
#include "reason/compile.hpp"

namespace lar::serve {

/// Parses a variation body. Throws ParseError on unknown keys, a hardware
/// class that is not switch/nic/server, or non-bool / non-string values.
/// (Unknown *names* inside the maps are the session's job to reject — it
/// answers Verdict::Error with the offending names listed.)
[[nodiscard]] reason::Variation variationFromJson(const json::Value& v);

/// Serializes one answer (without the "api" stamp — apiResponse adds it).
/// `trace` is included under "trace" when non-null.
[[nodiscard]] json::Value answerToJson(const reason::Answer& answer,
                                       const reason::QueryTrace* trace);

} // namespace lar::serve
