#include "core/astra.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "autodiff/recompute.h"
#include "obs/obs.h"
#include "runtime/native.h"
#include "runtime/wired.h"
#include "support/logging.h"

namespace astra {

int64_t
graph_tensor_bytes(const Graph& graph)
{
    int64_t total = 0;
    for (const Node& n : graph.nodes())
        total += static_cast<int64_t>(n.desc.bytes()) + 256;
    return total;
}

AstraSession::AstraSession(const Graph& graph, AstraOptions opts)
    : graph_(&graph), opts_(std::move(opts))
{
    try {
        init();
    } catch (const MemoryError&) {
        // Last rung of the OOM ladder: rewrite the graph to recompute
        // interior activations (paper §3.4) and restart the ladder on
        // the value-equivalent, smaller-footprint graph.
        if (opts_.grads == nullptr)
            throw;
        recompute_ = std::make_unique<RecomputePlan>(
            apply_recompute(graph, *opts_.grads));
        graph_ = &recompute_->graph();
        obs::counter("session.oom_recompute").add();
        init();
    }
}

void
AstraSession::init()
{
    space_ = SearchSpace();
    scheduler_.reset();
    maps_.clear();
    memories_.clear();
    plan_modes_.clear();

    graph_->validate();
    space_ = enumerate_search_space(*graph_);
    scheduler_ =
        std::make_unique<Scheduler>(*graph_, space_, opts_.sched);

    const int64_t bytes = opts_.hbm_bytes > 0
                              ? opts_.hbm_bytes
                              : graph_tensor_bytes(*graph_) + (1 << 20);
    for (size_t sid = 0; sid < space_.strategies.size(); ++sid) {
        const AllocStrategy& strat = space_.strategies[sid];
        memories_.push_back(std::make_unique<SimMemory>(
            bytes, opts_.gpu.execute_kernels));
        SimMemory& mem = *memories_.back();
        if (opts_.gpu.faults.has(FaultKind::Alloc))
            mem.arm_faults(&opts_.gpu.faults,
                           static_cast<uint64_t>(sid) + 1);
        try {
            maps_.push_back(std::make_unique<TensorMap>(
                *graph_, mem, strat.runs, MemoryPlanMode::Bump));
            plan_modes_.push_back(MemoryPlanMode::Bump);
        } catch (const MemoryError&) {
            // Degrade to liveness-based buffer reuse instead of
            // crashing. reset() rewinds the allocator but not the
            // injector's draw sequence, so a one-shot injected fault
            // does not re-fire on the retry.
            mem.reset();
            obs::counter("session.oom_degraded_reuse").add();
            maps_.push_back(std::make_unique<TensorMap>(
                *graph_, mem, strat.runs, MemoryPlanMode::Reuse));
            plan_modes_.push_back(MemoryPlanMode::Reuse);
        }
    }
}

AstraSession::~AstraSession() = default;

const TensorMap&
AstraSession::tensor_map(int strategy) const
{
    ASTRA_ASSERT(strategy >= 0 &&
                 strategy < static_cast<int>(maps_.size()));
    return *maps_[static_cast<size_t>(strategy)];
}

MemoryPlanMode
AstraSession::plan_mode(int strategy) const
{
    ASTRA_ASSERT(strategy >= 0 &&
                 strategy < static_cast<int>(plan_modes_.size()));
    return plan_modes_[static_cast<size_t>(strategy)];
}

bool
AstraSession::config_fits(const ScheduleConfig& config,
                          std::string* why) const
{
    if (config.strategy < 0 ||
        config.strategy >=
            static_cast<int>(space_.strategies.size())) {
        *why = "strategy out of range";
        return false;
    }
    if (config.group_chunk.size() != space_.groups.size() ||
        config.group_lib.size() != space_.groups.size()) {
        *why = "group count mismatch";
        return false;
    }
    const AllocStrategy& strat =
        space_.strategies[static_cast<size_t>(config.strategy)];
    for (const FusionGroup& g : space_.groups) {
        const int chunk =
            config.group_chunk[static_cast<size_t>(g.id)];
        if (chunk == 1 ||
            !strat.group_enabled[static_cast<size_t>(g.id)])
            continue;  // unfused is always schedulable
        if (std::find(g.chunk_options.begin(), g.chunk_options.end(),
                      chunk) == g.chunk_options.end()) {
            *why = "chunk " + std::to_string(chunk) +
                   " not offered by group " + g.key;
            return false;
        }
    }
    if (config.use_streams) {
        if (config.num_streams < 1) {
            *why = "num_streams " + std::to_string(config.num_streams) +
                   " below 1";
            return false;
        }
        const StreamSpace ss = scheduler_->stream_space(config);
        std::map<std::pair<int, int>, size_t> options;
        for (const EpochInfo& e : ss.epochs)
            options[{e.super_epoch, e.level}] = e.options.size();
        for (const auto& [key, choice] : config.epoch_choice) {
            const auto it = options.find(key);
            if (it == options.end() || choice < 0 ||
                choice >= static_cast<int>(it->second)) {
                *why = "epoch choice (" + std::to_string(key.first) +
                       "," + std::to_string(key.second) +
                       ") invalid in current stream space";
                return false;
            }
        }
    }
    return true;
}

WirerResult
AstraSession::optimize(const BindFn& bind)
{
    if (opts_.plan_store.empty())
        return explore({}, bind);

    PlanStore store(opts_.plan_store);
    const PlanStoreKey key = make_plan_store_key(*graph_, opts_.gpu);
    StoreLookup hit = store.lookup(key);
    bool demoted = false;
    bool verify_faulted = false;
    double verified_ns = -1.0;

    if (hit.tier == StoreTier::L1) {
        std::string why;
        if (config_fits(hit.entry.config, &why)) {
            // Exact knowledge: skip wiring. One measured mini-batch
            // verifies the plan still dispatches.
            if (bind)
                bind(tensor_map(hit.entry.config.strategy), 0);
            DispatchResult res = dispatch_plan(
                scheduler_->build(hit.entry.config), *graph_,
                tensor_map(hit.entry.config.strategy), opts_.gpu);
            if (opts_.normalize_clock)
                res.total_ns *= res.clock_multiplier;
            const bool drifted =
                hit.entry.best_ns > 0.0 &&
                std::abs(res.total_ns - hit.entry.best_ns) >
                    kStoreDriftRel * hit.entry.best_ns;
            if (!res.faulted && !drifted) {
                WirerResult out;
                out.best_config = hit.entry.config;
                out.best_ns = res.total_ns;
                out.minibatches = 1;
                out.strategy_ns.assign(space_.strategies.size(), -1.0);
                out.strategy_ns[static_cast<size_t>(
                    out.best_config.strategy)] = res.total_ns;
                out.convergence.best_ns = res.total_ns;
                out.convergence.minibatches = 1;
                out.convergence.termination =
                    wirer_termination_name(out.termination);
                out.convergence.store_tier =
                    store_tier_name(StoreTier::L1);
                out.convergence.store_errors = std::move(hit.errors);
                obs::counter("session.store_l1_hits").add();
                return out;
            }
            // The verification mini-batch faulted (its timing and
            // values are suspect, so it verified nothing) or disagrees
            // with the stored timing beyond kStoreDriftRel (the entry
            // is stale for this device: different clocks, changed
            // timing model, contended host). Adopting it
            // outright would pin a possibly-wrong plan for the whole
            // job; demote to a warm start so the wirer re-measures
            // with the stored config as a seed, and write the
            // refreshed winner back.
            const std::string reason =
                res.faulted
                    ? std::string("verification mini-batch faulted")
                    : "verification drift " + std::to_string(res.total_ns) +
                          " ns vs stored " +
                          std::to_string(hit.entry.best_ns) +
                          " ns exceeds margin " +
                          std::to_string(kStoreDriftRel);
            warn("plan store: ", reason,
                 " — demoting to warm start re-wiring");
            hit.errors.push_back(PlanStore::entry_filename(key) + ": " +
                                 reason + "; demoted to warm start");
            hit.tier = StoreTier::L2;
            demoted = true;
            verify_faulted = res.faulted;
            // A clean verification measured the stored configuration
            // on this device: the warm start reuses it rather than
            // dispatching the same configuration again.
            if (!res.faulted)
                verified_ns = res.total_ns;
        } else {
            // The exact entry no longer fits (scheduler knowledge
            // drifted under it): degrade to a warm start, which
            // re-validates every transferred index against the live
            // space.
            hit.errors.push_back(
                PlanStore::entry_filename(key) + ": " + why);
            hit.tier = StoreTier::L2;
        }
    }

    WirerWarmStart ws;
    if (hit.tier == StoreTier::L2) {
        ws.has_config = true;
        ws.config = std::move(hit.entry.config);
        ws.measured_ns = verified_ns;
    }
    WirerResult out = explore(ws, bind);
    out.convergence.store_tier = store_tier_name(hit.tier);
    out.convergence.store_errors = std::move(hit.errors);
    if (demoted) {
        // Account the spent L1 verification mini-batch and make the
        // demotion visible to fleet/CI consumers of the report.
        out.minibatches += 1;
        out.convergence.minibatches += 1;
        out.convergence.store_drift_demotions += 1;
        if (verify_faulted)
            out.convergence.faults.faulted_minibatches += 1;
        obs::counter("session.store_drift_demotions").add();
    }

    // Write-through: the winner is the next process's L1 hit — but
    // only a winner that measured clean. One whose every final run
    // faulted carries kUnmeasuredNs, a time no later verification can
    // match and no neighbor should inherit.
    if (out.best_ns == kUnmeasuredNs) {
        out.convergence.store_errors.push_back(
            PlanStore::entry_filename(key) +
            ": not written: no final run of the winner measured clean");
        return out;
    }
    const PlanStoreEntry entry{
        .key = key, .config = out.best_config, .best_ns = out.best_ns};
    std::string put_error;
    if (!store.put(entry, &put_error)) {
        warn("plan store: cannot persist entry: ", put_error);
        out.convergence.store_errors.push_back(put_error);
    }
    return out;
}

DispatchResult
AstraSession::run(const ScheduleConfig& config) const
{
    // Steady state: lower once (cached by config), then replay the
    // preresolved command array.
    return replay_wired(*scheduler_->wire_cached(
                            config, tensor_map(config.strategy), opts_.gpu),
                        opts_.gpu);
}

DispatchResult
AstraSession::run_native() const
{
    return dispatch_plan(native_plan(*graph_), *graph_,
                         tensor_map(0), opts_.gpu);
}

}  // namespace astra
