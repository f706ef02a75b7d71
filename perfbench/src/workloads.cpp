#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace perfbench {

namespace {

// The §2.3 / §5.1 case study: the ML inference workload of Listing 3 with
// a queue-length monitoring requirement (the same problem as
// data/inference_problem.json).
constexpr std::string_view kInferenceWorkload =
    R"({"name":"inference_app",)"
    R"("properties":["dc_flows","short_flows","high_priority","latency_sensitive"],)"
    R"("deployed_at":[0,1,2],"peak_cores":2800,"peak_bandwidth_gbps":30.0,)"
    R"("num_flows":50000,"performance_bounds":)"
    R"([{"objective":"load_balancing","better_than":"PacketSpray"}]})";

constexpr std::string_view kCaseStudyObjectives =
    R"(["latency","hardware_cost","monitoring"])";
constexpr std::string_view kOptimizeObjectives = R"(["latency","hardware_cost"])";

constexpr int kCaseStudyServers = 60;
constexpr int kCaseStudySwitches = 8;

// feasible_hot: server (= NIC) counts of the 8 variants; all satisfiable.
constexpr std::array<int, 8> kFeasibleServerCounts = {40, 48, 56, 60,
                                                      64, 72, 80, 96};

// optimize_cold: the box fingerprints are drawn from (all satisfiable).
constexpr int kMinServers = 40, kMaxServers = 100;
constexpr int kMinSwitches = 6, kMaxSwitches = 12;

std::string problemJson(int servers, int nics, int switches,
                        std::string_view objectives) {
    std::string out = R"({"hardware":{"server":{"count":)";
    out += std::to_string(servers);
    out += R"(},"switch":{"count":)";
    out += std::to_string(switches);
    out += R"(},"nic":{"count":)";
    out += std::to_string(nics);
    out += R"(}},"workloads":[)";
    out += kInferenceWorkload;
    out += R"(],"objective_priority":)";
    out += objectives;
    out += R"(,"required_capabilities":["detect_queue_length"]})";
    return out;
}

std::string queryBody(const std::string& id, std::string_view kind,
                      const std::string& problem) {
    return R"({"api":1,"id":")" + id + R"(","kind":")" + std::string(kind) +
           R"(","problem":)" + problem + "}";
}

} // namespace

const char* workloadName(WorkloadKind kind) {
    switch (kind) {
        case WorkloadKind::FeasibleHot: return "feasible_hot";
        case WorkloadKind::OptimizeCold: return "optimize_cold";
        case WorkloadKind::SessionAsk: return "session_ask";
    }
    return "?";
}

std::optional<WorkloadKind> workloadFromName(std::string_view name) {
    for (const WorkloadKind kind : kAllWorkloads)
        if (name == workloadName(kind)) return kind;
    return std::nullopt;
}

RequestStream::RequestStream(WorkloadKind kind, std::uint64_t seed,
                             std::vector<std::string> systems)
    : kind_(kind), state_(seed), systems_(std::move(systems)) {
    // Seeded Fisher-Yates shuffles: the order changes with the seed, the
    // set of requests per cycle does not.
    for (std::size_t i = systems_.size(); i > 1; --i)
        std::swap(systems_[i - 1], systems_[splitmix64(state_) % i]);
    for (int i = 0; i < static_cast<int>(kFeasibleServerCounts.size()); ++i)
        variantOrder_.push_back(i);
    for (std::size_t i = variantOrder_.size(); i > 1; --i)
        std::swap(variantOrder_[i - 1], variantOrder_[splitmix64(state_) % i]);
}

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t RequestStream::warmupCount() const {
    switch (kind_) {
        case WorkloadKind::FeasibleHot: return kFeasibleServerCounts.size();
        case WorkloadKind::OptimizeCold: return 2;
        case WorkloadKind::SessionAsk: return systems_.size();
    }
    return 0;
}

std::string RequestStream::sessionCreateBody() const {
    return R"({"api":1,"problem":)" +
           problemJson(kCaseStudyServers, kCaseStudyServers,
                       kCaseStudySwitches, kCaseStudyObjectives) +
           "}";
}

Request RequestStream::next() {
    const std::size_t n = next_++;
    Request r;
    switch (kind_) {
        case WorkloadKind::FeasibleHot: {
            const int servers =
                kFeasibleServerCounts[variantOrder_[n % variantOrder_.size()]];
            r.id = "q" + std::to_string(n);
            r.key = "servers=" + std::to_string(servers);
            r.body = queryBody(r.id, "feasible",
                               problemJson(servers, servers, kCaseStudySwitches,
                                           kCaseStudyObjectives));
            break;
        }
        case WorkloadKind::OptimizeCold: {
            std::tuple<int, int, int> fp;
            do {
                const int span = kMaxServers - kMinServers + 1;
                fp = {kMinServers + static_cast<int>(splitmix64(state_) % span),
                      kMinServers + static_cast<int>(splitmix64(state_) % span),
                      kMinSwitches + static_cast<int>(
                                         splitmix64(state_) % (kMaxSwitches - kMinSwitches + 1))};
            } while (!sentFingerprints_.insert(fp).second);
            const auto [servers, nics, switches] = fp;
            r.id = "q" + std::to_string(n);
            r.key = "servers=" + std::to_string(servers) +
                    ",nics=" + std::to_string(nics) +
                    ",switches=" + std::to_string(switches);
            r.body = queryBody(r.id, "optimize",
                               problemJson(servers, nics, switches,
                                           kOptimizeObjectives));
            break;
        }
        case WorkloadKind::SessionAsk: {
            r.id = "a" + std::to_string(n);
            r.system = systems_[n % systems_.size()];
            r.key = r.system;
            r.body = R"({"api":1,"systems":{")" + r.system + R"(":true}})";
            break;
        }
    }
    return r;
}

} // namespace perfbench
