// The three workloads and the seeded request streams that drive them.
//
// Every workload is one query kind, so its latency has a single mode:
//
//   feasible_hot   POST /v1/query kind "feasible", round-robin (seeded
//                  order) over 8 case-study variants that differ only in
//                  server/NIC count; warm-up sends each once, so every timed
//                  request hits the compilation cache.
//   optimize_cold  POST /v1/query kind "optimize", every request a
//                  fingerprint not sent before in the run (seeded
//                  server/NIC/switch counts drawn without repeats), so no
//                  per-fingerprint cache ever hits.
//   session_ask    one POST /v1/session on the case-study problem, then
//                  POST /v1/session/{id}/ask pinning one catalog system at a
//                  time, cycling over all systems in seeded order; warm-up
//                  asks one full cycle.
//
// A stream is a pure function of (workload, seed): the end-to-end run and
// the in-process traced run build their own and see identical requests.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace perfbench {

enum class WorkloadKind { FeasibleHot, OptimizeCold, SessionAsk };

inline constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::FeasibleHot, WorkloadKind::OptimizeCold,
    WorkloadKind::SessionAsk};

[[nodiscard]] const char* workloadName(WorkloadKind kind);
/// splitmix64: the benchmark's one source of randomness, with a fixed
/// output for a seed on every platform. Advances `state`.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);
[[nodiscard]] std::optional<WorkloadKind> workloadFromName(std::string_view name);

struct Request {
    std::string id;   ///< "q<n>" (echoed by /v1/query) or "a<n>" for asks
    std::string body; ///< the JSON request body
    /// What makes this request distinct from others in the stream: the
    /// variant / fingerprint for queries, the pinned system for asks.
    std::string key;
    std::string system; ///< session_ask: the system the ask pins
};

class RequestStream {
public:
    /// `systems` is the catalog's system list (session_ask cycles over it).
    RequestStream(WorkloadKind kind, std::uint64_t seed,
                  std::vector<std::string> systems);

    [[nodiscard]] WorkloadKind kind() const { return kind_; }
    /// Requests sent during set-up before timing starts (they are the first
    /// warmupCount() results of next()).
    [[nodiscard]] std::size_t warmupCount() const;
    /// session_ask: the POST /v1/session body (the case-study problem).
    [[nodiscard]] std::string sessionCreateBody() const;
    /// The next request of the stream.
    [[nodiscard]] Request next();

private:
    WorkloadKind kind_;
    std::uint64_t state_;
    std::vector<std::string> systems_;  ///< session_ask, in asking order
    std::vector<int> variantOrder_;     ///< feasible_hot, seeded order
    std::set<std::tuple<int, int, int>> sentFingerprints_; ///< optimize_cold
    std::size_t next_ = 0;
};

} // namespace perfbench
