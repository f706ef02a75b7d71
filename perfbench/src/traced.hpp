// The in-process traced run: per-layer attribution from outside.
//
// Replays the end-to-end run's seeded request sequence (same warm-up, same
// requests, same order) inside the benchmark process, against a Service
// and SessionManager configured like larserved's defaults, and times each
// layer's public function around the call:
//
//   serve.decode_ms     json::parse + queryRequestFromJson / variationFromJson
//   reason.service_ms   Service::run / SessionManager::ask
//   serve.write_ms      resultToJson / answerToJson + json::write
//
// and, on a second ("shadow") Service that sees the same sequence, the
// steps Service::run takes one at a time:
//
//   reason.compile_ms   Service::compilationFor (and its cacheHit flag)
//   smt.encode_ms       SolverSession construction (store copy + replay)
//   smt.solve_ms        Backend::check() / Backend::optimize()
//   sat.*               Backend::stats() of that solve
//   reason.extract_ms   Compilation::extractDesign
//
// Nothing inside src/ is instrumented. Every replayed answer must match the
// end-to-end answer with the same request id, and the workload
// self-checks must hold; a mismatch counts as a failure.
#pragma once

#include <cstdint>
#include <vector>

#include "checks.hpp"
#include "kb/kb.hpp"
#include "metric.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Replays `exchanges` (with `stream`'s warm-up first; `stream` must be
/// fresh) and returns the per-layer metrics. `rttMs` are the /healthz round
/// trips measured between the end-to-end requests. Cross-check and
/// self-check failures are added to `report`.
[[nodiscard]] std::vector<Metric> runTraced(
    RequestStream& stream, const std::vector<Exchange>& exchanges,
    const std::vector<double>& rttMs, const lar::kb::KnowledgeBase& kb,
    CheckReport& report);

} // namespace perfbench
