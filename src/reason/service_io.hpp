// JSON wire schema of the query service.
//
// One place defines how queries go in and results come out, shared by every
// front end: `larctl batch` (file in, stdout out) and `larserved`'s
// `POST /v1/query` / `POST /v1/batch` (HTTP in/out) speak byte-identical
// JSON because they call these functions. Keep additions backward
// compatible — the schema is what remote clients pin.
//
// Batch document: either a bare JSON array of query objects, or
//   {"options": {...defaults...}, "service": {...}, "queries": [...]}
// A query object:
//   {"id": "q1", "kind": "optimize", "problem": {...problem spec...},
//    "max_designs": 4, "backend": "cdcl", "seed": 7, "timeout_ms": 0,
//    "conflict_budget": -1, "propagation_budget": -1, "memory_budget_mb": -1,
//    "trace": true, "progress_every_conflicts": 256, "portfolio_workers": 1}
// A result object mirrors QueryResult: verdict + derived booleans, design
// payloads, the error object, and (per request) a QueryTrace v7.
#pragma once

#include <vector>

#include "json/value.hpp"
#include "kb/kb.hpp"
#include "reason/service.hpp"

namespace lar::reason {

/// Applies the option fields of one JSON object on top of `defaults`.
/// Throws ParseError on an unknown backend name; type mismatches surface as
/// LogicError from the JSON accessors.
[[nodiscard]] QueryOptions queryOptionsFromJson(const json::Value& v,
                                                QueryOptions defaults);

/// Builds one QueryRequest from a query object. A missing "id" becomes the
/// position `index`; a missing "kind" defaults to optimize. Throws
/// ParseError / EncodingError on malformed specs.
[[nodiscard]] QueryRequest queryRequestFromJson(const json::Value& v,
                                                const kb::KnowledgeBase& kb,
                                                const QueryOptions& defaults,
                                                std::size_t index);

/// Parses a whole batch document into requests. When `serviceOptions` is
/// non-null, a "service" block (max_queue_depth, shed_policy, max_attempts)
/// is applied to it; when null — the larserved case, where the Service is
/// long-lived and shared — a "service" block throws ParseError instead of
/// being silently ignored.
[[nodiscard]] std::vector<QueryRequest> batchRequestsFromJson(
    const json::Value& doc, const kb::KnowledgeBase& kb,
    ServiceOptions* serviceOptions);

/// Serializes one result to the batch entry schema. `includeTrace` should be
/// the request's QueryOptions::collectTrace.
[[nodiscard]] json::Value resultToJson(const QueryResult& result,
                                       bool includeTrace);

/// The full batch report: {"results": [...], "cache": {hits,misses,entries},
/// "workers": N}. `requests` supplies per-query trace inclusion; it must be
/// parallel to `results`.
[[nodiscard]] json::Value batchReportToJson(
    const std::vector<QueryResult>& results,
    const std::vector<QueryRequest>& requests, const Service& service);

/// The exit-code / HTTP-status policy both front ends share: true when any
/// query failed (error) or was proven infeasible — shed, cancelled, and
/// timed-out queries do not count, the caller opted into those outcomes.
[[nodiscard]] bool anyFailedOrInfeasible(const std::vector<QueryResult>& results);

} // namespace lar::reason
