// A fixed amount of CPU work, timed, to tell how fast the machine is
// running at the moment.
//
// The machine this benchmark was tuned on switches between speed regimes
// (see README.md, "The measuring machine"): the same request takes up to
// 1.6x longer, in CPU time as well as wall time, for stretches of seconds
// to minutes. This loop slows with it (over 4-second windows its time and
// the workloads' p75 latency correlated at 0.85-0.99 while the latency
// moved 60%; a dependent multiply chain and an L3-sized pointer chase did
// not move), so the end-to-end times are reported scaled to the speed at
// which it takes kCalibrationNominalMs. It is the benchmark's own code,
// compiled with the benchmark's flags, so no change under src/ can change
// it.
#pragma once

namespace perfbench {

/// The loop's duration, in ms, that end-to-end times are scaled to: its
/// median over runs on the machine the bounds were set on.
inline constexpr double kCalibrationNominalMs = 4.0;

/// Runs the calibration loop once; returns the wall time of its timed part
/// in ms. Eight independent 64-bit LCG chains, each step a load from and a
/// store to random places in a 512 KiB table behind a branch that
/// mispredicts about half the time: throughput-bound work on the core and
/// its caches, with the solver's kind of unpredictable branches.
[[nodiscard]] double calibrationLoopMs();

} // namespace perfbench
