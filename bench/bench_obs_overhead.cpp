// OBS1 — observability overhead on the §5.1-style mixed burst.
//
// The whole point of the obs layer is to be on in production, so it must be
// close to free. This bench runs the service-throughput burst twice per
// thread count — instrumentation disabled (obs::setEnabled(false), no trace
// collection) vs fully on (metrics, spans, per-conflict-batch progress
// probes, trace collection) — and gates on <5% wall-clock overhead at 1 and
// 8 worker threads. Each configuration runs several passes and keeps the
// fastest, which filters allocator and scheduler noise.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchutil.hpp"
#include "catalog/catalog.hpp"
#include "obs/metrics.hpp"
#include "reason/service.hpp"
#include "util/stopwatch.hpp"

using namespace lar;
using reason::QueryKind;

namespace {

/// Same shape as the SVC1 burst in perf_gates_test: 6 distinct problems × 6
/// repeats, cycling optimize/feasibility/synthesize.
std::vector<reason::QueryRequest> makeBurst(const kb::KnowledgeBase& kb,
                                            bool instrumented) {
    constexpr int kDistinctProblems = 6;
    constexpr int kRepeats = 6;
    const QueryKind kinds[] = {QueryKind::Optimize, QueryKind::Feasibility,
                               QueryKind::Synthesize};
    std::vector<reason::QueryRequest> burst;
    for (int rep = 0; rep < kRepeats; ++rep) {
        for (int v = 0; v < kDistinctProblems; ++v) {
            reason::QueryRequest q;
            q.problem = reason::makeDefaultProblem(kb);
            q.problem.hardware[kb::HardwareClass::Server].count = 40 + 8 * v;
            q.problem.hardware[kb::HardwareClass::Switch].count = 8;
            q.problem.hardware[kb::HardwareClass::Nic].count = 40 + 8 * v;
            q.problem.workloads = {catalog::makeInferenceWorkload()};
            q.problem.requiredCapabilities = {catalog::kCapDetectQueueLength};
            q.kind = kinds[(rep * kDistinctProblems + v) % 3];
            q.id = std::to_string(rep) + "/" + std::to_string(v);
            q.options.collectTrace = instrumented;
            q.options.progressEveryConflicts = instrumented ? 256 : 0;
            burst.push_back(std::move(q));
        }
    }
    return burst;
}

/// Fastest of `passes` runs of the burst on a fresh service (fresh cache).
double bestMillis(const kb::KnowledgeBase& kb, unsigned workers,
                  bool instrumented, int passes) {
    const std::vector<reason::QueryRequest> burst = makeBurst(kb, instrumented);
    double best = 1e300;
    for (int pass = 0; pass < passes; ++pass) {
        reason::ServiceOptions options;
        options.workers = workers;
        reason::Service service(options);
        util::Stopwatch timer;
        const std::vector<reason::QueryResult> results = service.runBatch(burst);
        best = std::min(best, timer.millis());
        if (results.size() != burst.size()) return -1.0;
    }
    return best;
}

} // namespace

int main() {
    const kb::KnowledgeBase kb = catalog::buildKnowledgeBase();
    constexpr int kPasses = 5;
    constexpr double kGatePct = 5.0;

    bench::printHeader("observability overhead (mixed burst, best of 5)");
    bench::printRow({"threads", "obs off", "obs on", "overhead", "gate"});
    bench::printRule();

    bool ok = true;
    for (const unsigned threads : {1u, 8u}) {
        obs::setEnabled(false);
        const double offMs = bestMillis(kb, threads, /*instrumented=*/false,
                                        kPasses);
        obs::setEnabled(true);
        const double onMs = bestMillis(kb, threads, /*instrumented=*/true,
                                       kPasses);
        if (offMs <= 0.0 || onMs <= 0.0) {
            std::printf("OBS1: FAILED (batch did not complete)\n");
            return EXIT_FAILURE;
        }
        const double overheadPct = (onMs - offMs) / offMs * 100.0;
        const bool pass = overheadPct < kGatePct;
        ok = ok && pass;
        char overhead[32];
        std::snprintf(overhead, sizeof overhead, "%+.2f%%", overheadPct);
        bench::printRow({std::to_string(threads), bench::ms(offMs),
                         bench::ms(onMs), overhead,
                         pass ? "<5% ok" : ">=5% FAIL"});
    }

    std::printf("\nOBS1: %s\n",
                ok ? "instrumentation costs <5% at 1 and 8 threads"
                   : "FAILED (overhead gate exceeded)");
    return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
