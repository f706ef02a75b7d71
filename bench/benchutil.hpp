// Shared table/report helpers for the timing benches.
//
// Benches print their measurement tables on stdout. Keep formatting plain
// (fixed-width columns) so outputs diff cleanly across runs.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace lar::bench {

inline void printHeader(const std::string& title) {
    std::printf("\n==== %s ====\n", title.c_str());
}

inline void printRule() {
    std::printf("%s\n", std::string(72, '-').c_str());
}

/// Prints one row of fixed-width cells (first column 34 chars, rest 12).
inline void printRow(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i)
        std::printf(i == 0 ? "%-34s" : "%12s", cells[i].c_str());
    std::printf("\n");
}

inline std::string ms(double millis) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.2fms", millis);
    return buf;
}

inline std::string num(long long v) { return std::to_string(v); }

} // namespace lar::bench
