#include "calibration.hpp"

#include "workloads.hpp"

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {
/// Where the loop's result goes, so that the compiler keeps the loop.
volatile std::uint32_t sink = 0;
} // namespace

double calibrationLoopMs() {
    constexpr std::uint32_t kTableMask = (1u << 17) - 1; // 512 KiB of entries
    constexpr int kSteps = 40000;
    constexpr int kChains = 8;
    static std::vector<std::uint32_t> table(kTableMask + 1);
    // The same starting table every time, so every run does the same
    // work. Its entries are random, so the branch below is taken at random
    // and mispredicts about half the time, as the solver's branches on
    // clause contents do.
    std::uint64_t state = 1;
    for (std::uint32_t& entry : table)
        entry = static_cast<std::uint32_t>(splitmix64(state));

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t chain[kChains] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint32_t acc = 0;
    for (int step = 0; step < kSteps; ++step) {
        for (std::uint64_t& x : chain) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            acc += table[(x >> 40) & kTableMask];
            if (acc & 1) table[(x >> 20) & kTableMask] ^= acc;
        }
    }
    sink = acc;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace perfbench
