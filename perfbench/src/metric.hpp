// A reported figure, and the order statistics the benchmark reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0; ///< observations the value summarizes
};

/// Nearest-rank percentile (q in (0, 1]); 0 for no samples.
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Median (mean of the two middle values for an even count).
[[nodiscard]] inline double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

} // namespace perfbench
