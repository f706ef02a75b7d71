// ABL3 — encoding ablation (google-benchmark): flat vs exclusivity-grouped
// generalized totalizers for weighted sums (the structure that keeps the
// budget and hardware-cost encodings linear; see DESIGN.md §6).
#include <benchmark/benchmark.h>

#include "encode/pb.hpp"
#include "util/rng.hpp"

using namespace lar;

namespace {

std::vector<sat::Lit> freshLits(encode::CnfBuilder& b, int n) {
    std::vector<sat::Lit> lits;
    lits.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) lits.push_back(b.newLit());
    return lits;
}

void BM_PbSum_FlatVsGrouped(benchmark::State& state) {
    // 3 selector classes × `modelsPerClass` models with exactly-one per
    // class: exactly the hardware-cost structure.
    const bool grouped = state.range(0) == 1;
    const int modelsPerClass = static_cast<int>(state.range(1));
    std::size_t clauses = 0;
    for (auto _ : state) {
        util::Rng rng(42);
        sat::Solver solver;
        encode::CnfBuilder builder(solver);
        std::vector<std::vector<encode::PbTerm>> groups;
        std::vector<encode::PbTerm> flat;
        for (int cls = 0; cls < 3; ++cls) {
            std::vector<sat::Lit> sel = freshLits(builder, modelsPerClass);
            builder.addClause(sel); // at least one model per class ...
            std::vector<encode::PbTerm> group;
            std::vector<encode::PbTerm> unit;
            for (const sat::Lit l : sel) {
                const auto w = static_cast<std::int64_t>(20 + rng.below(300));
                group.push_back({w, l});
                flat.push_back({w, l});
                unit.push_back({1, l});
            }
            encode::addPbAtMost(builder, unit, 1); // ... and at most one
            groups.push_back(std::move(group));
        }
        const std::int64_t clamp = 800;
        if (grouped) {
            const encode::PbSum sum(
                builder, std::span<const std::vector<encode::PbTerm>>(groups),
                clamp);
            benchmark::DoNotOptimize(sum.maxSum());
        } else {
            const encode::PbSum sum(builder, flat, clamp);
            benchmark::DoNotOptimize(sum.maxSum());
        }
        clauses = solver.numClauses();
    }
    state.SetLabel(grouped ? "grouped" : "flat");
    state.counters["clauses"] = static_cast<double>(clauses);
}

} // namespace

BENCHMARK(BM_PbSum_FlatVsGrouped)
    ->ArgsProduct({{0, 1}, {4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

BENCHMARK_MAIN();
