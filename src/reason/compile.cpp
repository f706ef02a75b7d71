#include "reason/compile.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "kb/objectives.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "smt/cdcl_backend.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace lar::reason {

namespace {

/// Capacity semantics for the built-in resources: which hardware class
/// provides them, from which attribute, and whether the capacity multiplies
/// by the unit count (pooled) or is per-unit (every unit runs everything).
struct ResourceRule {
    const char* resource;
    kb::HardwareClass cls;
    const char* attr;
    bool pooled; ///< capacity = count × attr (else capacity = attr)
};

constexpr ResourceRule kResourceRules[] = {
    {kb::kResCores, kb::HardwareClass::Server, kb::kAttrCores, true},
    {kb::kResP4Stages, kb::HardwareClass::Switch, kb::kAttrP4Stages, false},
    {kb::kResQosClasses, kb::HardwareClass::Switch, kb::kAttrQosClasses, false},
    {kb::kResSmartNicCores, kb::HardwareClass::Nic, kb::kAttrNicCores, false},
    {kb::kResFpgaGatesK, kb::HardwareClass::Nic, kb::kAttrFpgaGatesK, false},
    {kb::kResSwitchMemoryGb, kb::HardwareClass::Switch, kb::kAttrMemoryGb, false},
};

const ResourceRule* findResourceRule(const std::string& resource) {
    for (const ResourceRule& r : kResourceRules)
        if (resource == r.resource) return &r;
    return nullptr;
}

/// Objectives whose quality partially depends on a category being filled.
struct ObjectiveCategoryHint {
    const char* objective;
    kb::Category category;
    std::int64_t presenceWeight;
};

constexpr ObjectiveCategoryHint kObjectiveHints[] = {
    {kb::kObjMonitoring, kb::Category::Monitoring, 5},
    {kb::kObjLoadBalancing, kb::Category::LoadBalancer, 5},
    {kb::kObjSecurity, kb::Category::Firewall, 5},
};

} // namespace

Compilation::Compilation(const Problem& problem) : problem_(problem) {
    const obs::Span span("compile");
    expects(problem_.kb != nullptr, "Compilation: problem has no knowledge base");
    collectFactsAndOptions();
    buildHardwareVars();
    buildSystemVars();
    defineFacts();
    buildCategoryRules();
    buildSystemRules();
    buildCapabilityRules();
    buildResourceRules();
    buildBandwidthRules();
    buildPerformanceBounds();
    buildPins();
    buildBudgets();
    buildExtraConstraint();
    buildObjectives();
}

int Compilation::track(std::string description) {
    ruleDescriptions_.push_back(std::move(description));
    return static_cast<int>(ruleDescriptions_.size() - 1);
}

void Compilation::assertTracked(smt::NodeId formula, std::string description) {
    hards_.push_back({formula, track(std::move(description))});
}

void Compilation::assertUntracked(smt::NodeId formula) {
    hards_.push_back({formula, -1});
}

std::vector<std::string> Compilation::describeTracks(
    const std::vector<int>& tracks) const {
    std::vector<std::string> out;
    out.reserve(tracks.size());
    for (const int t : tracks)
        if (t >= 0 && static_cast<std::size_t>(t) < ruleDescriptions_.size())
            out.push_back(ruleDescriptions_[static_cast<std::size_t>(t)]);
    return out;
}

// ---------------------------------------------------------------------------
// Variables
// ---------------------------------------------------------------------------

void Compilation::collectFactsAndOptions() {
    const kb::KnowledgeBase& kb = *problem_.kb;
    std::set<std::string> facts;
    std::set<std::string> options;
    for (const kb::System& s : kb.systems()) {
        for (const std::string& f : s.provides) facts.insert(f);
        std::vector<std::string> refs;
        s.constraints.collectFactRefs(refs);
        facts.insert(refs.begin(), refs.end());
        refs.clear();
        s.constraints.collectOptionRefs(refs);
        options.insert(refs.begin(), refs.end());
    }
    for (const kb::Ordering& o : kb.orderings()) {
        std::vector<std::string> refs;
        o.condition.collectFactRefs(refs);
        facts.insert(refs.begin(), refs.end());
        refs.clear();
        o.condition.collectOptionRefs(refs);
        options.insert(refs.begin(), refs.end());
    }
    for (const auto& [name, value] : problem_.pinnedFacts) facts.insert(name);
    for (const auto& [name, value] : problem_.pinnedOptions) options.insert(name);
    {
        std::vector<std::string> refs;
        problem_.extraConstraint.collectFactRefs(refs);
        facts.insert(refs.begin(), refs.end());
        refs.clear();
        problem_.extraConstraint.collectOptionRefs(refs);
        options.insert(refs.begin(), refs.end());
    }
    for (const std::string& f : facts) factVars_.emplace(f, store_.var("fact/" + f));
    for (const std::string& o : options)
        optionVars_.emplace(o, store_.var("opt/" + o));
}

void Compilation::buildHardwareVars() {
    const kb::KnowledgeBase& kb = *problem_.kb;
    for (const auto& [cls, choice] : problem_.hardware) {
        std::vector<std::string> candidates = choice.candidateModels;
        if (candidates.empty())
            for (const kb::HardwareSpec* h : kb.byClass(cls))
                candidates.push_back(h->model);
        expects(!candidates.empty(),
                "Compilation: no candidate hardware for class " + toString(cls));
        std::vector<smt::NodeId> vars;
        for (const std::string& model : candidates) {
            expects(kb.findHardware(model) != nullptr,
                    "Compilation: unknown hardware model " + model);
            const smt::NodeId v = store_.var("hw/" + toString(cls) + "/" + model);
            hardwareVars_[cls][model] = v;
            vars.push_back(v);
        }
        assertTracked(store_.mkExactly(vars, 1),
                      "inventory: exactly one " + toString(cls) +
                          " model must be deployed");
        if (choice.pinnedModel.has_value()) {
            const smt::NodeId v = hardwareVar(cls, *choice.pinnedModel);
            expects(v != smt::kInvalidNode,
                    "Compilation: pinned model not among candidates: " +
                        *choice.pinnedModel);
            assertTracked(v, "pinned hardware: " + toString(cls) + " stays " +
                                 *choice.pinnedModel);
        }
    }
}

void Compilation::buildSystemVars() {
    for (const kb::System& s : problem_.kb->systems())
        systemVars_.emplace(s.name, store_.var("sys/" + s.name));
}

void Compilation::defineFacts() {
    const kb::KnowledgeBase& kb = *problem_.kb;
    for (const auto& [fact, var] : factVars_) {
        std::vector<smt::NodeId> providers;
        for (const kb::System& s : kb.systems())
            if (s.providesFact(fact)) providers.push_back(systemVars_.at(s.name));
        const auto pin = problem_.pinnedFacts.find(fact);
        if (pin != problem_.pinnedFacts.end() && pin->second)
            providers.push_back(store_.constant(true));
        // fact ⇔ OR(providers): definitional, untracked.
        assertUntracked(store_.mkIff(var, store_.mkOr(std::move(providers))));
        if (pin != problem_.pinnedFacts.end() && !pin->second)
            assertTracked(store_.mkNot(var), "pinned fact: " + fact + " must not hold");
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void Compilation::buildCategoryRules() {
    const kb::KnowledgeBase& kb = *problem_.kb;
    for (const kb::Category category : kb::kAllCategories) {
        std::vector<smt::NodeId> vars;
        for (const kb::System* s : kb.byCategory(category))
            vars.push_back(systemVars_.at(s->name));
        const bool required = problem_.requiredCategories.count(category) > 0 &&
                              problem_.commonSenseRules;
        const bool allowed = problem_.requiredCategories.count(category) > 0 ||
                             problem_.optionalCategories.count(category) > 0;
        if (vars.empty()) continue;
        if (!allowed) {
            for (const smt::NodeId v : vars)
                assertUntracked(store_.mkNot(v)); // untracked exclusion
            continue;
        }
        assertTracked(store_.mkAtMost(vars, 1),
                      "common-sense: at most one " + toString(category) +
                          " system can be deployed");
        if (required)
            assertTracked(store_.mkAtLeast(vars, 1),
                          "common-sense: every deployment needs a " +
                              toString(category) + " system");
    }
}

smt::NodeId Compilation::compileRequirement(const kb::Requirement& r) {
    using Kind = kb::Requirement::Kind;
    switch (r.kind()) {
        case Kind::True: return store_.constant(true);
        case Kind::False: return store_.constant(false);
        case Kind::And: {
            std::vector<smt::NodeId> kids;
            for (const kb::Requirement& c : r.children())
                kids.push_back(compileRequirement(c));
            return store_.mkAnd(std::move(kids));
        }
        case Kind::Or: {
            std::vector<smt::NodeId> kids;
            for (const kb::Requirement& c : r.children())
                kids.push_back(compileRequirement(c));
            return store_.mkOr(std::move(kids));
        }
        case Kind::Not: return store_.mkNot(compileRequirement(r.children()[0]));
        case Kind::HardwareHas:
        case Kind::HardwareCmp: {
            const auto clsIt = hardwareVars_.find(r.hwClass());
            if (clsIt == hardwareVars_.end()) return store_.constant(false);
            std::vector<smt::NodeId> satisfying;
            for (const auto& [model, var] : clsIt->second) {
                const kb::HardwareSpec& spec = problem_.kb->hardware(model);
                bool ok = false;
                if (r.kind() == Kind::HardwareHas) {
                    ok = spec.boolAttr(r.key()).value_or(false);
                } else {
                    const auto num = spec.numAttr(r.key());
                    ok = num.has_value() && kb::applyCmp(r.op(), *num, r.value());
                }
                if (ok) satisfying.push_back(var);
            }
            return store_.mkOr(std::move(satisfying));
        }
        case Kind::SystemPresent: {
            const auto it = systemVars_.find(r.key());
            if (it == systemVars_.end()) return store_.constant(false);
            return it->second;
        }
        case Kind::FactTrue: {
            const auto it = factVars_.find(r.key());
            if (it == factVars_.end()) return store_.constant(false);
            return it->second;
        }
        case Kind::OptionTrue: {
            const auto it = optionVars_.find(r.key());
            if (it == optionVars_.end()) return store_.constant(false);
            return it->second;
        }
        case Kind::WorkloadHas: {
            const bool has = std::any_of(
                problem_.workloads.begin(), problem_.workloads.end(),
                [&r](const kb::Workload& w) { return w.hasProperty(r.key()); });
            return store_.constant(has);
        }
    }
    return store_.constant(false);
}

void Compilation::buildSystemRules() {
    for (const kb::System& s : problem_.kb->systems()) {
        const smt::NodeId sysVar = systemVars_.at(s.name);
        if (!s.constraints.isTrivial()) {
            assertTracked(
                store_.mkImplies(sysVar, compileRequirement(s.constraints)),
                "requirement of " + s.name + ": " + s.constraints.toString());
        }
        for (const std::string& conflict : s.conflicts) {
            const auto other = systemVars_.find(conflict);
            if (other == systemVars_.end()) continue;
            // Only emit once per unordered pair.
            if (conflict < s.name &&
                problem_.kb->system(conflict).conflicts.end() !=
                    std::find(problem_.kb->system(conflict).conflicts.begin(),
                              problem_.kb->system(conflict).conflicts.end(),
                              s.name))
                continue;
            assertTracked(
                store_.mkOr(store_.mkNot(sysVar), store_.mkNot(other->second)),
                "conflict: " + s.name + " cannot coexist with " + conflict);
        }
        if (problem_.forbidResearchGrade && s.researchGrade) {
            assertTracked(store_.mkNot(sysVar),
                          "deadline rule: research prototype " + s.name +
                              " is not deployable");
        }
    }
}

void Compilation::buildCapabilityRules() {
    for (const std::string& capability : problem_.requiredCapabilities) {
        std::vector<smt::NodeId> providers;
        for (const kb::System* s : problem_.kb->solving(capability))
            providers.push_back(systemVars_.at(s->name));
        assertTracked(store_.mkOr(std::move(providers)),
                      "goal: some chosen system must solve '" + capability + "'");
    }
}

void Compilation::buildResourceRules() {
    const kb::KnowledgeBase& kb = *problem_.kb;
    const WorkloadAggregates agg = aggregateWorkloads(problem_.workloads);

    // Which resources does any system demand?
    std::set<std::string> resources;
    for (const kb::System& s : kb.systems())
        for (const kb::ResourceDemand& d : s.demands) resources.insert(d.resource);
    // Workloads demand cores even when no system does.
    if (agg.totalPeakCores > 0) resources.insert(kb::kResCores);

    for (const std::string& resource : resources) {
        const ResourceRule* rule = findResourceRule(resource);
        if (rule == nullptr) {
            util::logAt(util::LogLevel::Warn,
                        "unknown resource '", resource, "' — demands ignored");
            continue;
        }
        const auto clsIt = hardwareVars_.find(rule->cls);
        if (clsIt == hardwareVars_.end()) continue;

        // Demand terms: one per system demanding this resource. Systems in
        // one category are at-most-one, so they share an exclusivity group.
        std::vector<smt::LinTerm> terms;
        for (const kb::System& s : kb.systems()) {
            std::int64_t amount = 0;
            for (const kb::ResourceDemand& d : s.demands)
                if (d.resource == resource)
                    amount += d.amountFor(agg.totalKiloFlows, agg.totalGbps);
            if (amount > 0)
                terms.push_back({amount, systemVars_.at(s.name), false,
                                 static_cast<int>(s.category)});
        }
        const std::int64_t workloadDemand =
            resource == kb::kResCores ? agg.totalPeakCores : 0;
        if (terms.empty() && workloadDemand == 0) continue;

        const auto hwChoice = problem_.hardware.find(rule->cls);
        const int count = hwChoice == problem_.hardware.end()
                              ? 1
                              : hwChoice->second.count;
        for (const auto& [model, hwVar] : clsIt->second) {
            const kb::HardwareSpec& spec = kb.hardware(model);
            const double attr = spec.numAttr(rule->attr).value_or(0.0);
            const std::int64_t capacity = static_cast<std::int64_t>(
                rule->pooled ? attr * count : attr);
            const std::int64_t bound = capacity - workloadDemand;
            const std::string description =
                "resource '" + resource + "': demands must fit " + model +
                " (capacity " + std::to_string(capacity) +
                (workloadDemand > 0
                     ? ", workloads use " + std::to_string(workloadDemand)
                     : "") +
                ")";
            if (bound < 0) {
                assertTracked(store_.mkNot(hwVar), description);
                continue;
            }
            if (terms.empty()) continue;
            assertTracked(
                store_.mkImplies(hwVar, store_.mkLinLeq(terms, bound)),
                description);
        }
    }
}

smt::NodeId Compilation::betterFormula(const std::string& objective,
                                       const std::string& from,
                                       const std::string& to) {
    // Enumerate simple paths from→to over the objective's orderings; the
    // per-category graphs are tiny (≤ ~12 nodes), so exhaustive DFS is fine.
    const kb::KnowledgeBase& kb = *problem_.kb;
    std::vector<const kb::Ordering*> edges = kb.orderingsFor(objective);

    std::vector<smt::NodeId> pathFormulas;
    std::vector<const kb::Ordering*> pathEdges;
    std::set<std::string> visited;

    const std::function<void(const std::string&)> dfs =
        [&](const std::string& node) {
            if (node == to) {
                std::vector<smt::NodeId> conds;
                for (const kb::Ordering* e : pathEdges)
                    conds.push_back(compileRequirement(e->condition));
                pathFormulas.push_back(store_.mkAnd(std::move(conds)));
                return;
            }
            visited.insert(node);
            for (const kb::Ordering* e : edges) {
                if (e->better != node || visited.count(e->worse) > 0) continue;
                pathEdges.push_back(e);
                dfs(e->worse);
                pathEdges.pop_back();
            }
            visited.erase(node);
        };
    dfs(from);
    return store_.mkOr(std::move(pathFormulas));
}

void Compilation::buildBandwidthRules() {
    if (!problem_.commonSenseRules) return;
    const kb::KnowledgeBase& kb = *problem_.kb;
    const WorkloadAggregates agg = aggregateWorkloads(problem_.workloads);

    // Aggregate NIC bandwidth must cover the workloads' peak bandwidth.
    const auto nicIt = hardwareVars_.find(kb::HardwareClass::Nic);
    if (nicIt != hardwareVars_.end() && agg.totalGbps > 0) {
        const auto hwChoice = problem_.hardware.find(kb::HardwareClass::Nic);
        const int count =
            hwChoice == problem_.hardware.end() ? 1 : hwChoice->second.count;
        for (const auto& [model, var] : nicIt->second) {
            const double bw =
                kb.hardware(model).numAttr(kb::kAttrPortBandwidthGbps).value_or(0);
            if (bw * count < agg.totalGbps)
                assertTracked(store_.mkNot(var),
                              "common-sense: " + std::to_string(count) + "x " +
                                  model + " cannot carry the workloads' " +
                                  std::to_string(static_cast<long long>(
                                      agg.totalGbps)) +
                                  " Gbps peak");
        }
    }

    // Switch ports must be at least as fast as the NICs they face.
    const auto swIt = hardwareVars_.find(kb::HardwareClass::Switch);
    if (nicIt != hardwareVars_.end() && swIt != hardwareVars_.end()) {
        for (const auto& [nicModel, nicVar] : nicIt->second) {
            const double nicBw = kb.hardware(nicModel)
                                     .numAttr(kb::kAttrPortBandwidthGbps)
                                     .value_or(0);
            std::vector<smt::NodeId> fastEnough;
            for (const auto& [swModel, swVar] : swIt->second) {
                const double swBw = kb.hardware(swModel)
                                        .numAttr(kb::kAttrPortBandwidthGbps)
                                        .value_or(0);
                if (swBw >= nicBw) fastEnough.push_back(swVar);
            }
            assertTracked(
                store_.mkImplies(nicVar, store_.mkOr(std::move(fastEnough))),
                "common-sense: switch ports must be at least as fast as " +
                    nicModel);
        }
    }
}

void Compilation::buildPerformanceBounds() {
    const kb::KnowledgeBase& kb = *problem_.kb;
    for (const kb::Workload& w : problem_.workloads) {
        for (const kb::PerformanceBound& bound : w.bounds) {
            const kb::System* baseline = kb.findSystem(bound.betterThanSystem);
            if (baseline == nullptr) {
                util::logAt(util::LogLevel::Warn, "performance bound for '",
                            w.name, "' references unknown system '",
                            bound.betterThanSystem, "'");
                continue;
            }
            const kb::Category category = baseline->category;
            std::vector<smt::NodeId> categoryVars;
            for (const kb::System* s : kb.byCategory(category)) {
                const smt::NodeId sysVar = systemVars_.at(s->name);
                categoryVars.push_back(sysVar);
                if (s->name == baseline->name) {
                    assertTracked(store_.mkNot(sysVar),
                                  "performance bound (" + w.name + "): " +
                                      s->name + " itself is not better than " +
                                      baseline->name + " on " + bound.objective);
                    continue;
                }
                const smt::NodeId better =
                    betterFormula(bound.objective, s->name, baseline->name);
                const smt::NodeId worse =
                    betterFormula(bound.objective, baseline->name, s->name);
                assertTracked(
                    store_.mkImplies(sysVar,
                                     store_.mkAnd(better, store_.mkNot(worse))),
                    "performance bound (" + w.name + "): " + s->name +
                        " must beat " + baseline->name + " on " + bound.objective);
            }
            assertTracked(store_.mkOr(std::move(categoryVars)),
                          "performance bound (" + w.name + "): a " +
                              toString(category) + " system is required to beat " +
                              baseline->name + " on " + bound.objective);
        }
    }
}

void Compilation::buildPins() {
    for (const auto& [name, include] : problem_.pinnedSystems) {
        const auto it = systemVars_.find(name);
        expects(it != systemVars_.end(), "Compilation: pinned unknown system " + name);
        if (include)
            assertTracked(it->second, "pinned: " + name + " is already deployed");
        else
            assertTracked(store_.mkNot(it->second),
                          "pinned: " + name + " must not be deployed");
    }
    for (const auto& [name, enabled] : problem_.pinnedOptions) {
        const smt::NodeId v = optionVars_.at(name);
        assertTracked(enabled ? v : store_.mkNot(v),
                      std::string("pinned option: ") + name + " = " +
                          (enabled ? "on" : "off"));
    }
}

void Compilation::buildBudgets() {
    const kb::KnowledgeBase& kb = *problem_.kb;
    const auto addBudget = [&](double limit, bool isCost) {
        // Models within a class are exactly-one: tag terms with the class as
        // their exclusivity group so the counting encoding stays linear.
        std::vector<smt::LinTerm> terms;
        for (const auto& [cls, models] : hardwareVars_) {
            const auto hwChoice = problem_.hardware.find(cls);
            const int count =
                hwChoice == problem_.hardware.end() ? 1 : hwChoice->second.count;
            for (const auto& [model, var] : models) {
                const kb::HardwareSpec& spec = kb.hardware(model);
                const double per = isCost ? spec.unitCostUsd : spec.maxPowerW;
                const auto amount =
                    static_cast<std::int64_t>(std::llround(per * count));
                if (amount > 0)
                    terms.push_back({amount, var, false, static_cast<int>(cls)});
            }
        }
        const auto bound = static_cast<std::int64_t>(std::llround(limit));
        assertTracked(store_.mkLinLeq(std::move(terms), bound),
                      std::string("budget: total hardware ") +
                          (isCost ? "cost" : "power") + " must not exceed " +
                          std::to_string(bound) + (isCost ? " USD" : " W"));
    };
    if (problem_.maxHardwareCostUsd.has_value())
        addBudget(*problem_.maxHardwareCostUsd, /*isCost=*/true);
    if (problem_.maxPowerW.has_value()) addBudget(*problem_.maxPowerW, false);
}

void Compilation::buildExtraConstraint() {
    if (problem_.extraConstraint.isTrivial()) return;
    assertTracked(compileRequirement(problem_.extraConstraint),
                  "architect rule: " + problem_.extraConstraint.toString());
}

void Compilation::buildObjectives() {
    const kb::KnowledgeBase& kb = *problem_.kb;
    for (const std::string& objective : problem_.objectivePriority) {
        smt::ObjectiveSpec spec;
        spec.name = objective;

        if (objective == kb::kObjHardwareCost) {
            // Prefer cheaper hardware: pay (total cost in $100 units) for the
            // chosen model of each class. Models within a class are mutually
            // exclusive (exactly-one), so the penalties share a group and the
            // objective counter stays linear in the model count.
            for (const auto& [cls, models] : hardwareVars_) {
                const auto hwChoice = problem_.hardware.find(cls);
                const int count = hwChoice == problem_.hardware.end()
                                      ? 1
                                      : hwChoice->second.count;
                for (const auto& [model, var] : models) {
                    const auto weight = static_cast<std::int64_t>(std::llround(
                        kb.hardware(model).unitCostUsd * count / 100.0));
                    if (weight > 0)
                        spec.softs.push_back({store_.mkNot(var), weight,
                                              static_cast<int>(cls)});
                }
            }
            objectives_.push_back(std::move(spec));
            continue;
        }

        // Ordering-derived softs: avoid deploying a system while an active
        // edge says something beats it ("don't pick a dominated system").
        for (const kb::Ordering* e : kb.orderingsFor(objective)) {
            const auto worseIt = systemVars_.find(e->worse);
            if (worseIt == systemVars_.end()) continue;
            const smt::NodeId cond = compileRequirement(e->condition);
            spec.softs.push_back(
                {store_.mkNot(store_.mkAnd(worseIt->second, cond)), 1});
        }
        // Category-presence hints (e.g. the monitoring objective wants some
        // monitoring system deployed at all).
        for (const ObjectiveCategoryHint& hint : kObjectiveHints) {
            if (objective != hint.objective) continue;
            std::vector<smt::NodeId> vars;
            for (const kb::System* s : kb.byCategory(hint.category))
                vars.push_back(systemVars_.at(s->name));
            if (!vars.empty())
                spec.softs.push_back(
                    {store_.mkOr(std::move(vars)), hint.presenceWeight});
        }
        // Capability hints: systems whose `solves` names the objective
        // directly improve it; prefer having one.
        std::vector<smt::NodeId> solvers;
        for (const kb::System* s : kb.solving(objective))
            solvers.push_back(systemVars_.at(s->name));
        if (!solvers.empty())
            spec.softs.push_back({store_.mkOr(std::move(solvers)), 3});

        objectives_.push_back(std::move(spec));
    }

    if (problem_.preferMinimalDesign) {
        // Implicit lowest-priority level: pay 1 per deployed system, so a
        // system only appears when a higher objective or a hard rule wants
        // it. Systems within a category are exactly-one-exclusive.
        smt::ObjectiveSpec spec;
        spec.name = "parsimony";
        for (const kb::System& s : kb.systems())
            spec.softs.push_back({store_.mkNot(systemVars_.at(s.name)), 1,
                                  1000 + static_cast<int>(s.category)});
        objectives_.push_back(std::move(spec));
    }
}

// ---------------------------------------------------------------------------
// Lookups and extraction
// ---------------------------------------------------------------------------

Compilation::~Compilation() = default;

void Compilation::prepare(smt::CdclBackend& backend) const {
    // The second prepared session keeps the image every later one clones;
    // a fingerprint seen once never pays for one.
    const int earlier = prepares_.fetch_add(1);
    if (!backend.prepare() || earlier < 1) return;
    std::call_once(imageOnce_, [&] {
        imageOwner_ = backend.image();
        image_.store(imageOwner_.get(), std::memory_order_release);
    });
}

std::size_t Compilation::preparedBytes() const {
    const smt::CdclImage* image = preparedImage();
    return image == nullptr ? 0 : image->bytes();
}

smt::NodeId Compilation::systemVar(const std::string& name) const {
    const auto it = systemVars_.find(name);
    return it == systemVars_.end() ? smt::kInvalidNode : it->second;
}

smt::NodeId Compilation::hardwareVar(kb::HardwareClass cls,
                                     const std::string& model) const {
    const auto clsIt = hardwareVars_.find(cls);
    if (clsIt == hardwareVars_.end()) return smt::kInvalidNode;
    const auto it = clsIt->second.find(model);
    return it == clsIt->second.end() ? smt::kInvalidNode : it->second;
}

smt::NodeId Compilation::optionVar(const std::string& name) const {
    const auto it = optionVars_.find(name);
    return it == optionVars_.end() ? smt::kInvalidNode : it->second;
}

Compilation::Assumptions Compilation::assumptionsFor(
    const Variation& variation, smt::FormulaStore& store) const {
    Assumptions out;
    const auto pin = [&](smt::NodeId var, bool value, std::string name) {
        if (var == smt::kInvalidNode)
            out.unknownNames.push_back(std::move(name));
        else
            out.literals.push_back(value ? var : store.mkNot(var));
    };
    for (const auto& [name, include] : variation.systems)
        pin(systemVar(name), include, "system/" + name);
    for (const auto& [cls, model] : variation.hardwareModels)
        pin(hardwareVar(cls, model), true,
            "hardware/" + toString(cls) + "/" + model);
    for (const auto& [name, enabled] : variation.options)
        pin(optionVar(name), enabled, "option/" + name);
    return out;
}

Design Compilation::extractDesign(const smt::Backend& backend) const {
    const kb::KnowledgeBase& kb = *problem_.kb;
    Design design;
    for (const kb::System& s : kb.systems())
        if (backend.modelValue(systemVars_.at(s.name)))
            design.chosen[s.category] = s.name;
    for (const auto& [cls, models] : hardwareVars_) {
        for (const auto& [model, var] : models) {
            if (!backend.modelValue(var)) continue;
            design.hardwareModel[cls] = model;
            const auto hwChoice = problem_.hardware.find(cls);
            const int count =
                hwChoice == problem_.hardware.end() ? 1 : hwChoice->second.count;
            const kb::HardwareSpec& spec = kb.hardware(model);
            design.hardwareCostUsd += spec.unitCostUsd * count;
            design.powerW += spec.maxPowerW * count;
        }
    }
    for (const auto& [name, var] : optionVars_)
        if (backend.modelValue(var)) design.enabledOptions.insert(name);
    for (const auto& [name, var] : factVars_)
        if (backend.modelValue(var)) design.activeFacts.insert(name);

    // Resource accounting.
    const WorkloadAggregates agg = aggregateWorkloads(problem_.workloads);
    for (const kb::System& s : kb.systems()) {
        if (!design.uses(s.name)) continue;
        for (const kb::ResourceDemand& d : s.demands)
            design.resourceUsage[d.resource] +=
                d.amountFor(agg.totalKiloFlows, agg.totalGbps);
    }
    if (agg.totalPeakCores > 0)
        design.resourceUsage[kb::kResCores] += agg.totalPeakCores;
    for (const ResourceRule& rule : kResourceRules) {
        const auto modelIt = design.hardwareModel.find(rule.cls);
        if (modelIt == design.hardwareModel.end()) continue;
        const auto hwChoice = problem_.hardware.find(rule.cls);
        const int count =
            hwChoice == problem_.hardware.end() ? 1 : hwChoice->second.count;
        const double attr =
            kb.hardware(modelIt->second).numAttr(rule.attr).value_or(0.0);
        design.resourceCapacity[rule.resource] =
            static_cast<std::int64_t>(rule.pooled ? attr * count : attr);
    }
    return design;
}

smt::NodeId Compilation::blockingClause(const smt::Backend& backend,
                                        smt::FormulaStore& store) const {
    // Negate the projection of the current model onto systems + hardware.
    std::vector<smt::NodeId> flips;
    for (const auto& [name, var] : systemVars_)
        flips.push_back(backend.modelValue(var) ? store.mkNot(var) : var);
    for (const auto& [cls, models] : hardwareVars_)
        for (const auto& [model, var] : models)
            flips.push_back(backend.modelValue(var) ? store.mkNot(var) : var);
    return store.mkOr(std::move(flips));
}

// ---------------------------------------------------------------------------
// SolverSession
// ---------------------------------------------------------------------------

namespace {

/// Feeds one CDCL progress probe into the active obs span (a timestamped
/// sample under the backend's "check"/"optimize" span) and the global solver
/// histograms. Runs on the solving thread every progressEveryConflicts
/// conflicts, so it must stay allocation-light.
void recordSolverProgress(const sat::SolverProgress& p) {
    obs::sample("solver_progress",
                {{"conflicts", static_cast<double>(p.conflicts)},
                 {"propagations_per_sec", p.propagationsPerSec},
                 {"decision_level", static_cast<double>(p.decisionLevel)},
                 {"learnt_clauses", static_cast<double>(p.learntClauses)},
                 {"restarts", static_cast<double>(p.restarts)},
                 {"elapsed_ms", p.elapsedMs}});
    obs::Registry& reg = obs::Registry::global();
    static obs::Histogram& propRate = reg.histogram(
        "lar_solver_propagations_per_sec",
        "CDCL propagation rate sampled at progress probes",
        {1e4, 1e5, 1e6, 3e6, 1e7, 3e7, 1e8});
    static obs::Histogram& level = reg.histogram(
        "lar_solver_decision_level",
        "Decision level at progress probes",
        {5, 10, 20, 50, 100, 200, 500});
    static obs::Histogram& learnt = reg.histogram(
        "lar_solver_learnt_clauses",
        "Learnt-clause DB size at progress probes",
        {100, 300, 1000, 3000, 10000, 30000, 100000});
    propRate.observe(p.propagationsPerSec);
    level.observe(static_cast<double>(p.decisionLevel));
    learnt.observe(static_cast<double>(p.learntClauses));
}

/// Deletion-based core minimization: drop one rule at a time; keep the drop
/// whenever the remainder is still unsatisfiable (adopting the possibly even
/// smaller core the solver returns).
std::vector<int> minimizeCore(smt::Backend& backend, std::vector<int> core,
                              std::span<const smt::NodeId> assumptions) {
    std::size_t i = 0;
    while (i < core.size()) {
        std::vector<int> candidate = core;
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
        if (backend.checkWithTracks(candidate, assumptions) ==
            smt::CheckStatus::Unsat) {
            std::vector<int> shrunk = backend.unsatCore().tracks;
            core = shrunk.empty() ? candidate : std::move(shrunk);
            i = 0; // restart scan over the smaller core
        } else {
            ++i;
        }
    }
    return core;
}

smt::CheckStatus statusOf(const smt::OptimizeResult& result) {
    if (result.feasible) return smt::CheckStatus::Sat;
    return result.unknown ? smt::CheckStatus::Unknown : smt::CheckStatus::Unsat;
}

} // namespace

SolverSession::SolverSession(std::shared_ptr<const Compilation> compilation,
                             const QueryOptions& options)
    : compilation_(std::move(compilation)),
      options_(options),
      store_(compilation_->store()) {
    expects(compilation_ != nullptr, "SolverSession: null compilation");
    smt::BackendConfig config = options.backendConfig();
    if (config.progressEveryConflicts > 0) config.progressFn = &recordSolverProgress;
    const bool preparable = options.backend == smt::BackendKind::Cdcl &&
                            config.portfolioWorkers <= 1 && config.simplify;
    const smt::CdclImage* image = preparable ? compilation_->preparedImage() : nullptr;
    const obs::Span span(image != nullptr ? "clone" : preparable ? "prepare" : "encode");
    backend_ = smt::makeBackend(options.backend, store_, config, image);
    if (image == nullptr) {
        for (const Compilation::HardAssertion& hard : compilation_->hardAssertions())
            backend_->addHard(hard.formula, hard.track);
        if (preparable) compilation_->prepare(static_cast<smt::CdclBackend&>(*backend_));
    }
    // The prepared (or replayed) hard assertions are the snapshot baseline:
    // state exported now is sound in any other session over the same
    // compilation, since every session reaches the identical state.
    backend_->markSnapshotBaseline();
    if (options.warmStart != nullptr && !options.warmStart->empty()) {
        warmStartImported_ = backend_->importSnapshot(*options.warmStart);
        warmStarted_ = warmStartImported_ > 0;
    }
    options_.warmStart.reset(); // imported; a held session must not pin it
}

void SolverSession::blockCurrentDesign() {
    backend_->addHard(compilation_->blockingClause(*backend_, store_));
}

Answer SolverSession::run(QueryKind kind, int maxDesigns,
                          std::span<const smt::NodeId> assumptions,
                          bool optimizeFirst) {
    smt::Backend& backend = *backend_;
    Answer answer;
    smt::CheckStatus status = smt::CheckStatus::Sat;
    switch (kind) {
        case QueryKind::Feasibility:
        case QueryKind::Explain: {
            status = backend.check(assumptions);
            if (status != smt::CheckStatus::Unsat) break;
            std::vector<int> core = backend.unsatCore().tracks;
            if (kind == QueryKind::Explain)
                core = minimizeCore(backend, std::move(core), assumptions);
            answer.conflictingRules = compilation_->describeTracks(core);
            break;
        }
        case QueryKind::Synthesize:
            status = backend.check(assumptions);
            if (status == smt::CheckStatus::Sat) answer.design = extractDesign();
            break;
        case QueryKind::Optimize: {
            // An interrupted optimize that still found a model answers with
            // that best-effort design.
            const smt::OptimizeResult result =
                backend.optimize(compilation_->objectives(), assumptions);
            status = statusOf(result);
            if (result.feasible) {
                answer.design = extractDesign();
                answer.design->objectiveCosts = result.costs;
            }
            break;
        }
        case QueryKind::Enumerate:
            // Lock in the optimal objective costs, then enumerate within them.
            if (optimizeFirst)
                status = statusOf(
                    backend.optimize(compilation_->objectives(), assumptions));
            while (status == smt::CheckStatus::Sat &&
                   static_cast<int>(answer.designs.size()) < maxDesigns) {
                status = backend.check(assumptions);
                if (status != smt::CheckStatus::Sat) break;
                answer.designs.push_back(extractDesign());
                blockCurrentDesign();
            }
            // A partial enumeration is still an answer; an empty one is
            // Unsat unless the solver gave up before the first design.
            if (!answer.designs.empty()) status = smt::CheckStatus::Sat;
            else if (status == smt::CheckStatus::Sat)
                status = smt::CheckStatus::Unsat;
            break;
    }
    answer.verdict = verdictOf(status, backend.lastStopReason(), options_);
    answer.stopReason = backend.lastStopReason();
    answer.stats = backend.stats();
    answer.portfolio = backend.portfolioStats();
    answer.warmStartImported = warmStartImported_;
    return answer;
}

} // namespace lar::reason
