// Pseudo-Boolean (weighted) sums via the Generalized Totalizer Encoding
// (Joshi, Martins, Manquinho 2015).
//
// A PbSum builds a merge tree whose root carries one output literal per
// attainable weighted sum; input literals imply the outputs, and ladder
// clauses make the outputs monotone so a single negated output enforces an
// upper bound. Sums above a clamp threshold can be collapsed into one
// overflow output to keep the encoding small when only bounded queries are
// needed. Used for resource-capacity constraints and as the MaxSAT
// objective counter.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "encode/cnf_builder.hpp"

namespace lar::encode {

/// One weighted term of a pseudo-Boolean sum; weight must be positive.
struct PbTerm {
    std::int64_t weight = 1;
    sat::Lit lit;
};

/// Unbounded clamp sentinel.
inline constexpr std::int64_t kNoClamp = -1;

class PbSum {
public:
    /// Builds the counter. When `clampAt` >= 0, all sums ≥ clampAt are
    /// merged into a single output (sufficient to enforce bounds < clampAt).
    PbSum(CnfBuilder& builder, std::span<const PbTerm> terms,
          std::int64_t clampAt = kNoClamp);

    /// Builds the counter from groups of *mutually exclusive* terms (at most
    /// one literal per group is ever true). Each group becomes a single
    /// merge-tree leaf with one output per distinct weight, which keeps the
    /// encoding linear for selector-style inputs (e.g. "exactly one hardware
    /// model per class") where the flat construction would enumerate subset
    /// sums. The exclusivity is an invariant the caller must guarantee.
    PbSum(CnfBuilder& builder, std::span<const std::vector<PbTerm>> exclusiveGroups,
          std::int64_t clampAt = kNoClamp);

    /// Attainable sums in ascending order (clamped representative last).
    [[nodiscard]] const std::vector<std::int64_t>& sums() const { return sums_; }

    /// Root output literals, parallel to sums(): outputs()[i] is forced true
    /// whenever the weighted sum is ≥ sums()[i].
    [[nodiscard]] const std::vector<sat::Lit>& outputs() const { return outputs_; }

    /// Largest attainable (possibly clamped) sum; 0 when there are no terms.
    [[nodiscard]] std::int64_t maxSum() const {
        return sums_.empty() ? 0 : sums_.back();
    }

    /// Literal that is forced true whenever the weighted sum is ≥ `s`.
    /// For s ≤ 0 returns trueLit; for s > maxSum() returns falseLit.
    [[nodiscard]] sat::Lit geqLit(CnfBuilder& builder, std::int64_t s) const;

    /// Literal whose assertion enforces (weighted sum) ≤ `bound`.
    [[nodiscard]] sat::Lit atMostLit(CnfBuilder& builder, std::int64_t bound) const;

    /// Hard-asserts (weighted sum) ≤ `bound`. With a clamp, `bound` must be
    /// below the clamp threshold to be meaningful.
    void assertAtMost(CnfBuilder& builder, std::int64_t bound) const;

private:
    std::vector<std::int64_t> sums_;
    std::vector<sat::Lit> outputs_; ///< parallel to sums_
};

/// Convenience: asserts Σ weight_i · lit_i ≤ bound.
void addPbAtMost(CnfBuilder& builder, std::span<const PbTerm> terms,
                 std::int64_t bound);

/// Evaluates Σ weight_i · [lit_i true in model] against the solver's model.
[[nodiscard]] std::int64_t evalPb(const sat::Solver& solver,
                                  std::span<const PbTerm> terms);

} // namespace lar::encode
