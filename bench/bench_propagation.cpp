// PROP1 — propagation throughput of the production sat::Solver.
//
// Each instance plants a satisfying assignment; the decision schedule is
// exactly the planted literals, handed to Solver::solve() as assumptions
// (inprocessing off). Unit propagation can then only derive planted-true
// literals, so every solve() is conflict-free and assigns each variable
// once. props/sec covers the real watch-list/binary-graph hot loop plus the
// fixed per-solve() cost the service pays on every call.
//
// Gates:
//   * every round propagates exactly numVars literals with 0 conflicts;
//   * median props/sec across the instances >= kFloorPropsPerSec.
//
// Writes machine-readable results to BENCH_propagation.json (override the
// path with argv[1]).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchutil.hpp"
#include "json/value.hpp"
#include "json/write.hpp"
#include "sat/solver.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace lar;
using sat::Lit;
using sat::mkLit;
using sat::Var;

namespace {

/// Set from ten runs of this binary on a 4-vCPU x86-64 box (medians
/// 6.74-9.10 M/s): below the lowest median by more than the spread.
constexpr double kFloorPropsPerSec = 4.0e6;
constexpr int kRounds = 24;           // full assignment passes per instance
constexpr double kBinaryFraction = 0.45;
constexpr int kClausesPerVar = 12;    // dense: well above the 3-SAT threshold

/// Adds a dense instance with a planted satisfying assignment to `solver`
/// and returns a shuffled decision schedule of exactly the planted
/// literals, so any literal forced by unit propagation is planted-true too.
std::vector<Lit> plantInstance(util::Rng& rng, int numVars,
                               sat::Solver& solver) {
    std::vector<bool> planted(static_cast<std::size_t>(numVars));
    for (auto&& b : planted) b = rng.chance(0.5);
    for (int v = 0; v < numVars; ++v) (void)solver.newVar();

    std::vector<Var> vars;
    for (int c = 0; c < numVars * kClausesPerVar; ++c) {
        const std::size_t len =
            rng.chance(kBinaryFraction) ? 2 : 3 + rng.below(7); // 2 or 3..9
        vars.clear();
        while (vars.size() < len) {
            const Var v = static_cast<Var>(rng.below(
                static_cast<std::uint64_t>(numVars)));
            if (std::find(vars.begin(), vars.end(), v) == vars.end())
                vars.push_back(v);
        }
        std::vector<Lit> clause;
        clause.reserve(len);
        for (const Var v : vars)
            clause.push_back(mkLit(v, rng.chance(0.5)));
        // Force one literal to agree with the planted assignment so the
        // clause is satisfied by it.
        const std::size_t pick = rng.below(len);
        const Var pv = clause[pick].var();
        clause[pick] = mkLit(pv, !planted[static_cast<std::size_t>(pv)]);
        solver.addClause(std::move(clause));
    }

    std::vector<Lit> schedule;
    for (Var v = 0; v < numVars; ++v)
        schedule.push_back(mkLit(v, !planted[static_cast<std::size_t>(v)]));
    for (std::size_t i = schedule.size(); i > 1; --i)
        std::swap(schedule[i - 1], schedule[rng.below(i)]);
    return schedule;
}

} // namespace

int main(int argc, char** argv) {
    const std::string outPath =
        argc > 1 ? argv[1] : "BENCH_propagation.json";
    bench::printHeader("PROP1: sat::Solver propagation throughput");
    std::printf("planted dense instances, %d clauses/var, %.0f%% binary, "
                "%d solve() rounds each, inprocessing off\n",
                kClausesPerVar, kBinaryFraction * 100.0, kRounds);
    bench::printRow({"vars", "props/round", "conflicts", "props/sec"});
    bench::printRule();

    util::Rng rng(20260808);
    json::Array rows;
    std::vector<double> rates;
    bool exact = true;
    for (const int numVars : {400, 800, 1600, 3200, 6400}) {
        sat::SolverOptions options;
        options.simplify.enable = false;
        sat::Solver solver(options);
        const std::vector<Lit> schedule = plantInstance(rng, numVars, solver);

        // One untimed warmup solve, then kRounds timed ones; each must be
        // Sat and propagate exactly numVars literals.
        bool ok = solver.solve(schedule) == sat::SolveResult::Sat;
        const std::uint64_t start = solver.stats().propagations;
        const util::Stopwatch timer;
        for (int round = 0; round < kRounds; ++round) {
            const std::uint64_t before = solver.stats().propagations;
            ok = solver.solve(schedule) == sat::SolveResult::Sat &&
                 solver.stats().propagations - before ==
                     static_cast<std::uint64_t>(numVars) &&
                 ok;
        }
        const double seconds = timer.millis() / 1000.0;
        const std::uint64_t props = solver.stats().propagations - start;
        const std::uint64_t conflicts = solver.stats().conflicts;
        ok = ok && conflicts == 0;
        exact = exact && ok;
        const double rate = static_cast<double>(props) / seconds;
        rates.push_back(rate);

        char mps[24];
        std::snprintf(mps, sizeof mps, "%.2fM", rate / 1e6);
        bench::printRow({std::to_string(numVars) + (ok ? "" : "  NOT EXACT"),
                         bench::num(static_cast<long long>(props / kRounds)),
                         bench::num(static_cast<long long>(conflicts)), mps});
        json::Value row;
        row["vars"] = static_cast<std::int64_t>(numVars);
        row["conflicts"] = static_cast<std::int64_t>(conflicts);
        row["props_per_sec"] = rate;
        row["exact"] = ok;
        rows.push_back(std::move(row));
    }
    bench::printRule();

    std::sort(rates.begin(), rates.end());
    const double median = rates[rates.size() / 2];
    const bool pass = exact && median >= kFloorPropsPerSec;
    std::printf("gate: numVars props per round, 0 conflicts ... %s\n",
                exact ? "yes" : "NO");
    std::printf("gate: median %.2fM >= %.2fM props/sec ....... %s\n",
                median / 1e6, kFloorPropsPerSec / 1e6,
                median >= kFloorPropsPerSec ? "yes" : "NO");

    json::Value report;
    report["instances"] = json::Value(std::move(rows));
    report["median_props_per_sec"] = median;
    report["floor_props_per_sec"] = kFloorPropsPerSec;
    report["pass"] = pass;
    util::writeFile(outPath, json::write(report) + "\n");
    std::printf("wrote %s\n%s\n", outPath.c_str(), pass ? "PASS" : "FAIL");
    return pass ? EXIT_SUCCESS : EXIT_FAILURE;
}
