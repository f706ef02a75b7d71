// Lock-free learnt-clause exchange between portfolio solver workers.
//
// One bounded single-producer broadcast ring per worker: worker `i` alone
// publishes into ring `i`; every other worker reads all rings it does not
// own, each with its own private cursor per ring. Slots use the atomic-
// payload seqlock recipe (version word goes odd while a write is in flight,
// payload literals live in std::atomic words stored with release and
// loaded with acquire, in place of fences), so readers never
// block writers, torn reads are impossible, and the whole structure is
// clean under ThreadSanitizer. A slow reader that gets lapped clamps its
// cursor forward and counts the overwritten clauses as `lost` — sharing is
// best-effort by design; dropping a clause only costs pruning power, never
// soundness.
//
// Soundness contract (enforced by the callers, see smt::PortfolioBackend):
// published clauses must be learnt from the identical clause database the
// importing solver holds, because learnt clauses are implied by the clause
// set alone. Literal codes are exchanged verbatim, so all workers must also
// share one variable numbering.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sat/solver.hpp"
#include "sat/types.hpp"

namespace lar::sat {

class ClauseExchange {
public:
    /// Clauses longer than this are never exchanged (they prune little and
    /// would bloat the fixed-size slots).
    static constexpr std::size_t kMaxLits = 12;

    /// `workers` rings of `slotsPerWorker` clause slots each.
    explicit ClauseExchange(int workers, std::size_t slotsPerWorker = 256);

    [[nodiscard]] int workers() const { return static_cast<int>(rings_.size()); }

    /// Publishes a clause into `worker`'s ring. Must only be called from the
    /// thread currently running that worker (single producer per ring).
    /// Over-long or empty clauses are counted and dropped.
    void publish(int worker, std::span<const Lit> lits, int lbd);

    /// Appends every clause published by the *other* workers since `worker`'s
    /// previous collect() call. Must only be called from the thread currently
    /// running `worker` (the per-ring cursors are unsynchronized).
    void collect(int worker, std::vector<ImportedClause>& out);

    struct Stats {
        std::uint64_t published = 0; ///< clauses accepted into a ring
        std::uint64_t rejected = 0;  ///< too long / empty, never published
        std::uint64_t collected = 0; ///< clause copies handed to readers
        std::uint64_t lost = 0;      ///< overwritten before a reader caught up
    };
    [[nodiscard]] Stats stats() const;

private:
    struct Slot {
        /// Seqlock word: odd while the producer is writing; after the write
        /// of generation g (0-based) it equals 2·(g / slots + 1).
        std::atomic<std::uint32_t> version{0};
        std::atomic<std::uint32_t> meta{0}; ///< size | (lbd << 8)
        std::array<std::atomic<std::int32_t>, kMaxLits> lits{};
    };
    struct Ring {
        std::atomic<std::uint64_t> head{0}; ///< generations published so far
        std::vector<Slot> slots;
    };

    std::vector<Ring> rings_;
    /// cursors_[reader][producer] = next generation to read; only ever
    /// touched by the reader's own thread.
    std::vector<std::vector<std::uint64_t>> cursors_;

    std::atomic<std::uint64_t> published_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> collected_{0};
    std::atomic<std::uint64_t> lost_{0};
};

} // namespace lar::sat
