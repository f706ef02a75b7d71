// Backend over the native Z3 C++ API (the paper's solver substrate).
// Compiled only when the build finds libz3; see smt/backend.hpp::haveZ3().
#pragma once

#include "smt/backend.hpp"

#if defined(LAR_HAVE_Z3)

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>

#include <z3++.h>

namespace lar::smt {

class Z3Backend final : public Backend {
public:
    explicit Z3Backend(const FormulaStore& store, const BackendConfig& config = {});

    void addHard(NodeId formula, int track = -1) override;
    CheckStatus check(std::span<const NodeId> assumptions = {}) override;
    CheckStatus checkWithTracks(std::span<const int> activeTracks,
                                std::span<const NodeId> assumptions = {}) override;
    [[nodiscard]] bool modelValue(NodeId var) const override;
    [[nodiscard]] CoreResult unsatCore() const override { return lastCore_; }
    OptimizeResult optimize(std::span<const ObjectiveSpec> objectives,
                            std::span<const NodeId> assumptions = {}) override;
    [[nodiscard]] std::string name() const override { return "z3"; }
    [[nodiscard]] sat::SolverStats stats() const override { return collected_; }
    void restartDeadline() override;

private:
    /// Coarse cancellation: checked at check/optimize entry only (Z3 offers
    /// no safe mid-search poll through the params API we rely on).
    [[nodiscard]] bool cancelled() const {
        return config_.cancelFlag != nullptr &&
               config_.cancelFlag->load(std::memory_order_relaxed);
    }

    /// Milliseconds left before the deadline, for Z3's "timeout" param
    /// (0 = no deadline; at least 1 while one is set — a spent deadline is
    /// caught by deadlinePassed() before Z3 runs).
    [[nodiscard]] unsigned timeoutLeftMs() const;
    [[nodiscard]] bool deadlinePassed() const {
        return deadline_.has_value() && std::chrono::steady_clock::now() >= *deadline_;
    }
    /// Sets the solver's "timeout" param to the time left.
    void armTimeout();

    z3::expr toExpr(NodeId id);
    z3::expr varExpr(NodeId id);
    void captureCore(const z3::expr_vector& core,
                     std::span<const NodeId> assumptions);
    /// Folds a z3::stats dump into collected_ (conflicts/decisions/...).
    void collectStats(const z3::stats& st);

    const FormulaStore* store_;
    BackendConfig config_;
    sat::SolverStats collected_;
    z3::context ctx_;
    z3::solver solver_;
    std::unordered_map<NodeId, unsigned> exprIndex_; ///< NodeId -> exprs_ slot
    std::vector<z3::expr> exprs_;
    std::vector<std::pair<int, z3::expr>> selectors_;
    std::vector<std::pair<NodeId, int>> hardForOptimize_; ///< (formula, track)
    std::unique_ptr<z3::model> model_;
    CoreResult lastCore_;
    std::optional<std::chrono::steady_clock::time_point> deadline_;
};

} // namespace lar::smt

#endif // LAR_HAVE_Z3
