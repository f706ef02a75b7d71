#include "sat/clause_exchange.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lar::sat {

ClauseExchange::ClauseExchange(int workers, std::size_t slotsPerWorker)
    : rings_(static_cast<std::size_t>(std::max(workers, 1))),
      cursors_(rings_.size(), std::vector<std::uint64_t>(rings_.size(), 0)) {
    expects(slotsPerWorker > 0, "ClauseExchange: need at least one slot");
    for (Ring& ring : rings_) ring.slots = std::vector<Slot>(slotsPerWorker);
}

void ClauseExchange::publish(int worker, std::span<const Lit> lits, int lbd) {
    expects(worker >= 0 && worker < workers(), "publish: bad worker index");
    if (lits.empty() || lits.size() > kMaxLits) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Ring& ring = rings_[static_cast<std::size_t>(worker)];
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    Slot& slot = ring.slots[head % ring.slots.size()];

    // Atomic-payload seqlock write: version goes odd, then the payload, then
    // version lands on the next even value. Each payload word is a release
    // store, so a reader that acquires any new word also sees the odd
    // version and rejects the slot (no fences: ThreadSanitizer does not
    // model them).
    const std::uint32_t v = slot.version.load(std::memory_order_relaxed);
    slot.version.store(v + 1, std::memory_order_relaxed);
    const int clampedLbd = std::clamp(lbd, 0, 255);
    slot.meta.store(static_cast<std::uint32_t>(lits.size()) |
                        (static_cast<std::uint32_t>(clampedLbd) << 8),
                    std::memory_order_release);
    for (std::size_t i = 0; i < lits.size(); ++i)
        slot.lits[i].store(lits[i].index(), std::memory_order_release);
    slot.version.store(v + 2, std::memory_order_release);

    ring.head.store(head + 1, std::memory_order_release);
    published_.fetch_add(1, std::memory_order_relaxed);
}

void ClauseExchange::collect(int worker, std::vector<ImportedClause>& out) {
    expects(worker >= 0 && worker < workers(), "collect: bad worker index");
    auto& cursors = cursors_[static_cast<std::size_t>(worker)];
    for (std::size_t producer = 0; producer < rings_.size(); ++producer) {
        if (producer == static_cast<std::size_t>(worker)) continue;
        const Ring& ring = rings_[producer];
        const std::size_t slots = ring.slots.size();
        const std::uint64_t head = ring.head.load(std::memory_order_acquire);
        std::uint64_t cursor = cursors[producer];
        if (head > slots && cursor < head - slots) {
            // Lapped: everything below head - slots is already overwritten.
            lost_.fetch_add(head - slots - cursor, std::memory_order_relaxed);
            cursor = head - slots;
        }
        for (; cursor < head; ++cursor) {
            const Slot& slot = ring.slots[cursor % slots];
            // The slot holds generation `cursor` iff its version matches the
            // write count for that generation exactly; anything else means
            // the producer lapped us mid-read — count the clause as lost
            // (a newer generation will be read at its own cursor position).
            const std::uint32_t expected =
                static_cast<std::uint32_t>(cursor / slots + 1) * 2;
            const std::uint32_t v1 = slot.version.load(std::memory_order_acquire);
            if (v1 != expected) {
                lost_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            // Acquire loads: seeing any word of a newer write makes its odd
            // version visible to the re-check below.
            const std::uint32_t meta = slot.meta.load(std::memory_order_acquire);
            const std::size_t size = meta & 0xff;
            std::array<std::int32_t, kMaxLits> codes{};
            for (std::size_t i = 0; i < size && i < kMaxLits; ++i)
                codes[i] = slot.lits[i].load(std::memory_order_acquire);
            const std::uint32_t v2 = slot.version.load(std::memory_order_relaxed);
            if (v2 != expected || size == 0 || size > kMaxLits) {
                lost_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            ImportedClause clause;
            clause.lbd = static_cast<int>((meta >> 8) & 0xff);
            clause.lits.reserve(size);
            for (std::size_t i = 0; i < size; ++i)
                clause.lits.push_back(Lit::fromIndex(codes[i]));
            out.push_back(std::move(clause));
            collected_.fetch_add(1, std::memory_order_relaxed);
        }
        cursors[producer] = cursor;
    }
}

ClauseExchange::Stats ClauseExchange::stats() const {
    Stats s;
    s.published = published_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.collected = collected_.load(std::memory_order_relaxed);
    s.lost = lost_.load(std::memory_order_relaxed);
    return s;
}

} // namespace lar::sat
