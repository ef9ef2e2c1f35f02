#include "core/wirer.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string_view>
#include <utility>

#include "core/adaptive.h"
#include "core/astra.h"
#include "obs/obs.h"
#include "runtime/wired.h"
#include "support/logging.h"
#include "support/parallel_for.h"

namespace astra {

AstraFeatures
features_f()
{
    AstraFeatures f;
    f.kernel_choice = false;
    f.streams = false;
    f.alloc = false;
    return f;
}

AstraFeatures
features_fk()
{
    AstraFeatures f;
    f.streams = false;
    f.alloc = false;
    return f;
}

AstraFeatures
features_fks()
{
    AstraFeatures f;
    f.alloc = false;
    return f;
}

AstraFeatures
features_all()
{
    return AstraFeatures{};
}

uint32_t
wirer_variable_id(WirerVariable kind, int index)
{
    ASTRA_ASSERT(index >= 0 && index <= (ProfileKey::kMaxVariable >> 2),
                 "wirer variable index ", index, " out of range");
    return static_cast<uint32_t>(index) << 2 |
           static_cast<uint32_t>(kind);
}

WirerVariable
wirer_variable_kind(uint32_t id)
{
    return static_cast<WirerVariable>(id & 3);
}

const char*
wirer_termination_name(WirerTermination t)
{
    switch (t) {
      case WirerTermination::Complete:
        return "complete";
      case WirerTermination::Budget:
        return "budget";
      case WirerTermination::FaultQuarantine:
        return "fault_quarantine";
    }
    return "?";
}

namespace {

/**
 * Re-measurements of a trial or best-of-strategy run whose every
 * dispatch came back faulted (transient faults that outlived the
 * dispatcher's own replays) before the wirer quarantines it.
 */
constexpr int kFaultBudget = 2;

/**
 * Saturating product, for exhaustive state-space sizes (Table 7).
 * The cap is far below INT64_MAX so that report consumers can sum
 * saturated sizes across epochs without overflowing.
 */
int64_t
sat_mul(int64_t a, int64_t b)
{
    constexpr int64_t kCap = 1000000000000000;  // 1e15
    if (a > 0 && b > kCap / a)
        return kCap;
    return a * b;
}

/**
 * One allocation strategy's private exploration state. Each strategy
 * owns a StrategyRun exclusively for the duration of the exploration: a
 * private ProfileIndex shard (its own ContextTable shard makes the key
 * sets disjoint), its own mini-batch accounting against a
 * pre-partitioned budget share, a ClockDomain whose boost draws depend
 * only on this strategy's measurement sequence, and the stage history
 * for the convergence report. Distinct strategies' runs share nothing
 * mutable, so the pipelines may execute concurrently and still merge
 * (in strategy order, after the join) into the exact serial result.
 * When its pipeline ends, the run reduces its shard to `profile`.
 */
struct StrategyRun
{
    StrategyRun(int sid_in, int64_t quota_in, bool normalize_clock,
                const GpuConfig& gpu)
        : sid(sid_in), contexts(static_cast<uint32_t>(sid_in)),
          quota(quota_in), index(normalize_clock),
          clock(gpu, static_cast<uint64_t>(sid_in) + 1)
    {
    }

    int sid;  ///< allocation-strategy index

    /** This strategy's contexts: shard `sid`, rooted at the strategy. */
    ContextTable contexts;

    /** This strategy's share of the mini-batch safety valve. */
    int64_t quota;

    /** Private profile shard (keys disjoint across strategies). */
    ProfileIndex index;

    /** `index` reduced when the pipeline ends. */
    ProfileSummary profile;

    /**
     * Private boost-draw sequence: the i-th mini-batch of this
     * strategy always runs at the i-th draw, regardless of which
     * thread dispatches it or what other strategies are doing.
     */
    ClockDomain clock;

    int64_t minibatches = 0;
    bool truncated = false;

    /** Best end-to-end mini-batch time seen in this strategy (ns). */
    double best_seen_ns = -1.0;

    /** Stage history with strategy-local best/totals (merged later). */
    std::vector<ConvergenceEpoch> epochs;

    /** The strategy's bound best configuration and its measured time. */
    ScheduleConfig best_config;
    double final_ns = 0.0;

    /**
     * Clean end-to-end times of the configurations without profile
     * keys this run has measured or was handed
     * (WirerWarmStart::measured_ns); measure() reuses them.
     */
    std::vector<std::pair<ScheduleConfig, double>> clean_runs;

    /**
     * Per-dispatch fault-salt sequence: the i-th dispatch of this
     * strategy always draws the i-th salt, so the faults it sees are a
     * function of the strategy's measurement history alone (the same
     * invariant the clock domain provides for boost draws).
     */
    uint64_t fault_seq = 0;

    /** Fault accounting, accumulated across this strategy's dispatches. */
    int64_t faults_seen = 0;
    int64_t fault_attempts = 0;
    int64_t straggler_events = 0;
    int64_t faulted_minibatches = 0;
    int64_t wirer_retries = 0;
    double backoff_ns = 0.0;

    /** A trial exhausted its fault budget (kFaultBudget). */
    bool fault_exhausted = false;

    /** Variables pre-bound from a transferred L2 configuration. */
    int64_t transferred = 0;

    /** Armed what-if evaluator (§5.13), or null when off or ineligible. */
    std::unique_ptr<WhatIfEngine> whatif;

    /** Host replays performed (exploration trials). */
    int64_t whatif_evals = 0;
};

/**
 * Dispatch one mini-batch of a configuration on the run's tensor map
 * and record its result (profile, best-seen, counters) in the run. No
 * budget logic here: callers reserve first.
 *
 * @return the dispatch result, normalized to base clock under
 *         AstraOptions::normalize_clock.
 */
DispatchResult
dispatch(const AstraSession& session, StrategyRun& run,
         const ScheduleConfig& config, const BindFn& bind)
{
    const AstraOptions& opts = session.options();
    const TensorMap& tmap = session.tensor_map(run.sid);
    // The clock and the fault salt a mini-batch sees come from the
    // strategy's own sequences: a function of its measurement history,
    // never of which thread runs it (|1 keeps the salt nonzero so the
    // dispatcher never substitutes its own process-wide counter).
    GpuConfig gpu = opts.gpu;
    const double forced = run.clock.draw();
    if (forced > 0.0)
        gpu.forced_clock_multiplier = forced;
    if (!opts.gpu.faults.empty())
        gpu.fault_salt =
            fault_mix(static_cast<uint64_t>(run.sid) + 1, ++run.fault_seq) |
            1;

    if (bind)
        bind(tmap, run.minibatches);
    // The trial binds over its strategy's kept skeleton: only its
    // command stream is compiled, and the descriptors the skeleton
    // keeps are launched by reference.
    DispatchResult result = dispatch_plan(
        [&] { return session.scheduler().bind(config, tmap, gpu); }, gpu);

    if (opts.normalize_clock) {
        // DVFS compensation: the device reports the clock it ran this
        // mini-batch at; scaling by it converts every measurement to
        // base-clock-equivalent time (§7, measured instead of pinned).
        result.total_ns *= result.clock_multiplier;
        for (auto& [key, ns] : result.profile_ns)
            ns *= result.clock_multiplier;
    }
    ++run.minibatches;
    run.faults_seen += result.faults_seen;
    run.fault_attempts += result.fault_attempts;
    run.straggler_events += result.straggler_events;
    run.backoff_ns += result.backoff_ns;
    static obs::Counter& trials = obs::counter("wire.minibatches");
    trials.add();
    obs::observe("wire.minibatch_ns", result.total_ns);
    if (result.faulted) {
        // The dispatcher's retry budget ran dry: timing and values are
        // suspect. Mark the keys (quarantine) instead of recording
        // samples, and leave best-seen untouched — a faulted
        // measurement must never win a binding.
        ++run.faulted_minibatches;
        for (const auto& [key, ns] : result.profile_ns)
            run.index.record_fault(key);
        return result;
    }
    if (run.best_seen_ns < 0.0 || result.total_ns < run.best_seen_ns)
        run.best_seen_ns = result.total_ns;
    // Every profile key carries its full context by construction, so
    // the result entries drop straight into the shard (§4.6).
    for (const auto& [key, ns] : result.profile_ns)
        run.index.record(key, ns);
    return result;
}

/**
 * Measure a configuration end-to-end: once, and again (fresh fault
 * salts) when the mini-batch faulted, up to kFaultBudget times. An
 * exploration trial (`final` false) first reserves from the run's
 * budget share and sets the run's truncated flag when it is spent; a
 * final run measures unconditionally, since the valve may overshoot so
 * that a truncated result is still dispatchable.
 *
 * One reuse rule covers every measurement: the clean time of each
 * configuration that carries no profile keys is kept, and a later
 * measurement of an equal configuration (trial, transfer or final)
 * returns it instead of dispatching again. A second dispatch would add
 * nothing to the profile index and only re-time the same plan.
 *
 * @return the clean end-to-end time; when no attempt measured clean,
 *         kUnmeasuredNs for a final run and -1 for a trial.
 */
double
measure(const AstraSession& session, StrategyRun& run,
        const ScheduleConfig& config, const BindFn& bind, bool final)
{
    const bool keyless = config.group_keys.empty() &&
                         config.single_keys.empty() &&
                         config.epoch_keys.empty();
    if (keyless)
        for (const auto& [measured, ns] : run.clean_runs)
            if (measured == config) {
                // A handed-over time counts like a measurement.
                if (run.best_seen_ns < 0.0 || ns < run.best_seen_ns)
                    run.best_seen_ns = ns;
                return ns;
            }
    for (int attempt = 0;; ++attempt) {
        if (!final && run.minibatches >= run.quota) {
            run.truncated = true;
            return -1.0;
        }
        const DispatchResult result = dispatch(session, run, config, bind);
        if (!result.faulted) {
            if (keyless)
                run.clean_runs.emplace_back(config, result.total_ns);
            return result.total_ns;
        }
        // Faulted even after the dispatcher's own replays: re-measure
        // (fresh fault salt) up to kFaultBudget times, then quarantine.
        // A trial's keys stay marked, sample-free, and can never be
        // bound; a final run gives its strategy a time no real
        // measurement can beat.
        if (attempt >= kFaultBudget) {
            run.fault_exhausted = true;
            return final ? kUnmeasuredNs : -1.0;
        }
        ++run.wirer_retries;
    }
}

/**
 * One *replayed* exploration trial (§5.13): evaluate the exact
 * co-varied configuration the walk is about to dispatch on the host
 * instead, and drop the replayed profile samples into the shard as if
 * they had been measured. Replay is bit-exact against a dispatch of the
 * same config at base clock (the arming predicate), so the profile
 * index — and with it every later freeze, bind and decision — evolves
 * identically to the exhaustive run while the mini-batch stays unspent.
 * Requires run.whatif armed.
 */
void
replay_trial(StrategyRun& run, const ScheduleConfig& config)
{
    const DispatchResult r = run.whatif->evaluate(config);
    ++run.whatif_evals;
    // Replayed samples drop into the shard exactly like dispatched
    // ones. Epoch-span metrics couple across super-epochs through
    // host launch pipelining, so a candidate must be evaluated at the
    // precise co-varied state the walk would have dispatched — which
    // is what `config` is — not in isolation; only then is the sample
    // (and every ranking downstream of it) bit-identical to the
    // measured run's.
    for (const auto& [key, ns] : r.profile_ns)
        run.index.record(key, ns);
}

/**
 * One strategy's full pipeline: stages A-C + best-of-strategy. `sole`:
 * the exploration runs no other pipeline.
 */
void
run_strategy(const AstraSession& session, const WirerWarmStart& warm,
             StrategyRun& run, const BindFn& bind, bool sole)
{
    const AstraOptions& opts = session.options();
    const SearchSpace& space = session.space();
    const int sid = run.sid;
    const AllocStrategy& strat = space.strategies[static_cast<size_t>(sid)];
    obs::ScopedSpan strategy_span(obs::Category::Wire,
                                  "wirer.strategy." + strat.key);
    const ContextId root = run.contexts.root();

    // ---- what-if arming (§5.13) -------------------------------------------
    // Arm only when host replay is provably exact against a dispatch:
    // fault injection perturbs timing beyond the model, and autoboost
    // is admissible only when measurements are normalized back to the
    // base clock the replay simulates at.
    if (opts.whatif.enabled && opts.gpu.faults.empty() &&
        (!opts.gpu.autoboost || opts.normalize_clock))
        run.whatif = std::make_unique<WhatIfEngine>(
            session.graph(), session.tensor_map(sid), session.scheduler(),
            opts.gpu);

    // One convergence epoch per update-tree stage: trials actually
    // dispatched vs the exhaustive size of the stage's subspace, with
    // the saving attributed to the stage's exploration mode (§4.5).
    // best_ns and minibatches_total are recorded strategy-local here;
    // explore() rewrites them into the global running values when it
    // merges the runs in strategy order.
    struct StageMark
    {
        int64_t trials = 0;
        int64_t whatif_evals = 0;
    };
    auto mark = [&]() {
        return StageMark{run.minibatches, run.whatif_evals};
    };
    auto record_epoch = [&](const char* stage, const char* mode,
                            const StageMark& before, int64_t exhaustive) {
        ConvergenceEpoch e;
        e.strategy = sid;
        e.stage = stage;
        e.mode = mode;
        e.trials = run.minibatches - before.trials;
        e.exhaustive = exhaustive;
        e.pruned = std::max<int64_t>(0, exhaustive - e.trials);
        e.best_ns = run.best_seen_ns;
        e.minibatches_total = run.minibatches;
        e.whatif_evals = run.whatif_evals - before.whatif_evals;
        run.epochs.push_back(std::move(e));
    };

    // ---- variables (plan-store warm start, AstraSession::optimize) -------
    // One binder makes every chunk and library variable, at the
    // transferred choice `warm_choice` when there is one (-1: none).
    // With what-if off, a transferred variable is pre-bound: kept out
    // of the stage trees (so stage exhaustive sizes count only the
    // residual space and pruning attribution stays honest) and never
    // given profile keys — §5.1's discipline: instrument only what is
    // being explored. While the what-if engine is armed, a transferred
    // choice stays *residual*: exploring it costs host replays, not
    // mini-batches, so the neighbor's plan is verified on this graph
    // instead of trusted.
    std::set<const AdaptiveVariable*> prebound;
    int64_t prebound_space = 1;
    auto make_variable = [&](WirerVariable kind, int index, int options,
                             int warm_choice,
                             std::vector<std::unique_ptr<UpdateNode>>& leaves,
                             int64_t& exhaustive) {
        auto v = std::make_shared<AdaptiveVariable>(
            wirer_variable_id(kind, index), options,
            warm_choice >= 0 ? warm_choice : 0);
        v->set_context(root);
        if (warm_choice >= 0 && !run.whatif) {
            prebound.insert(v.get());
            ++run.transferred;
            prebound_space = sat_mul(prebound_space, options);
        } else {
            leaves.push_back(UpdateNode::leaf(v));
            exhaustive = sat_mul(exhaustive, options);
        }
        return v;
    };

    // Chunk variables for groups fusable under this strategy. A
    // neighbor's chunk transfers when this graph offers the same value.
    std::vector<VarPtr> chunk_vars(space.groups.size());
    std::vector<std::unique_ptr<UpdateNode>> chunk_leaves;
    int64_t chunk_exhaustive = 1;
    for (const FusionGroup& g : space.groups) {
        const auto gi = static_cast<size_t>(g.id);
        if (!strat.group_enabled[gi] || g.chunk_options.size() < 2)
            continue;
        int warm_idx = -1;
        if (warm.has_config && gi < warm.config.group_chunk.size()) {
            const auto it =
                std::find(g.chunk_options.begin(), g.chunk_options.end(),
                          warm.config.group_chunk[gi]);
            if (it != g.chunk_options.end())
                warm_idx = static_cast<int>(it - g.chunk_options.begin());
        }
        chunk_vars[gi] = make_variable(
            WirerVariable::GroupChunk, g.id,
            static_cast<int>(g.chunk_options.size()), warm_idx,
            chunk_leaves, chunk_exhaustive);
    }

    // Library variables: one per owner of a GEMM (gemm_owners), the
    // variable the scheduler reads that GEMM's library and key from.
    // Every enabled group owns its members. A disabled group runs
    // unfused and owns the members no enabled group lists, if it is
    // the first group to list them; it owns nothing otherwise, and a
    // variable for it would only inflate the state space (Table 7).
    std::vector<VarPtr> lib_vars(space.groups.size());
    std::map<NodeId, VarPtr> single_vars;
    std::vector<std::unique_ptr<UpdateNode>> lib_leaves;
    int64_t lib_exhaustive = 1;
    if (opts.features.kernel_choice) {
        std::vector<char> owns(space.groups.size(), 0);
        for (int g : gemm_owners(space, strat, session.graph().size()))
            if (g >= 0)
                owns[static_cast<size_t>(g)] = 1;
        for (const FusionGroup& g : space.groups) {
            const auto gi = static_cast<size_t>(g.id);
            if (!owns[gi])
                continue;
            const int warm_lib =
                warm.has_config && gi < warm.config.group_lib.size()
                    ? static_cast<int>(warm.config.group_lib[gi])
                    : -1;
            lib_vars[gi] = make_variable(WirerVariable::GroupLib, g.id,
                                         kNumGemmLibs, warm_lib,
                                         lib_leaves, lib_exhaustive);
        }
        for (size_t i = 0; i < space.single_mms.size(); ++i) {
            const NodeId id = space.single_mms[i];
            int warm_lib = -1;
            if (warm.has_config) {
                const auto it = warm.config.single_lib.find(id);
                if (it != warm.config.single_lib.end())
                    warm_lib = static_cast<int>(it->second);
            }
            single_vars[id] = make_variable(
                WirerVariable::SingleLib, static_cast<int>(i),
                kNumGemmLibs, warm_lib, lib_leaves, lib_exhaustive);
        }
    }

    // ---- config assembly -------------------------------------------------
    auto current_config = [&](bool with_streams) {
        ScheduleConfig cfg;
        cfg.strategy = sid;
        cfg.group_chunk.assign(space.groups.size(), 1);
        cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
        for (const FusionGroup& g : space.groups) {
            const auto& cv = chunk_vars[static_cast<size_t>(g.id)];
            if (cv)
                cfg.group_chunk[static_cast<size_t>(g.id)] =
                    g.chunk_options[static_cast<size_t>(
                        cv->current())];
            const auto& lv = lib_vars[static_cast<size_t>(g.id)];
            if (lv)
                cfg.group_lib[static_cast<size_t>(g.id)] =
                    static_cast<GemmLib>(lv->current());
        }
        for (const auto& [id, v] : single_vars)
            cfg.single_lib[id] = static_cast<GemmLib>(v->current());
        cfg.use_streams = with_streams;
        cfg.num_streams = opts.num_streams;
        return cfg;
    };
    // A stage-A or stage-B trial: the current binding, keyed on the
    // explored (not pre-bound) variables of `group_vars`, indexed by
    // group id, and with `singles` on the standalone GEMMs' too.
    auto keyed_config = [&](const std::vector<VarPtr>& group_vars,
                            bool singles) {
        ScheduleConfig cfg = current_config(false);
        for (size_t gi = 0; gi < group_vars.size(); ++gi)
            if (group_vars[gi] && !prebound.count(group_vars[gi].get()))
                cfg.group_keys[static_cast<int>(gi)] =
                    group_vars[gi]->profile_key();
        if (singles)
            for (const auto& [id, v] : single_vars)
                if (!prebound.count(v.get()))
                    cfg.single_keys[id] = v->profile_key();
        return cfg;
    };

    // ---- transfer priming (plan store, L2) -------------------------------
    // Measure the transferred configuration once before exploring the
    // residual space: it seeds best-so-far (the neighbor's winner is
    // the bar every residual trial must beat) and records the
    // inherited plan's measurement as the report's "transfer" epoch. No
    // profile keys — the pre-bound variables are settled, not explored.
    // A caller that already measured exactly this configuration clean
    // hands its time over, which measure() then reuses.
    if (warm.measured_ns >= 0.0)
        run.clean_runs.emplace_back(warm.config, warm.measured_ns);
    if (warm.has_config) {
        const StageMark before = mark();
        measure(session, run, current_config(false), bind, false);
        record_epoch("transfer", "store", before,
                     prebound_space > 1 ? prebound_space : 0);
    }

    // ---- one stage of the update tree (§4.5) -----------------------------
    // Inside the stage's span, `setup` builds the stage (stage B's
    // contexts, stage C's stream space and Prefix nodes) and returns
    // its tree, trial configuration, exhaustive size and mode. The walk
    // then runs one trial per step until the tree finishes or the
    // budget share is spent, binds every variable to its measured best
    // and records the stage's convergence epoch. A stage the store
    // settled has no tree and only records its epoch.
    //
    // While the what-if engine is armed (§5.13), every trial is ranked
    // on the host: the walk advances over replayed samples that are
    // bit-identical to what a dispatch of the same co-varied config
    // would have measured, so freezes and binds land exactly where the
    // exhaustive sweep's would — without spending the mini-batches.
    // The device still gets the last word: each stage's bound winner
    // is dispatched once for real after bind_best, and the
    // best-of-strategy runs are always measured.
    struct Stage
    {
        std::unique_ptr<UpdateNode> tree;
        std::function<ScheduleConfig()> config;
        int64_t exhaustive = 1;
        const char* mode = "parallel";
    };
    auto walk = [&](std::string_view span_name, const char* name,
                    auto setup) {
        obs::ScopedSpan stage_span(obs::Category::Wire, span_name);
        const StageMark before = mark();
        const Stage stage = setup();
        if (stage.tree) {
            stage.tree->initialize();
            while (true) {
                if (run.whatif)
                    replay_trial(run, stage.config());
                else
                    measure(session, run, stage.config(), bind, false);
                if (run.truncated || stage.tree->finished())
                    break;
                stage.tree->advance(run.index);
            }
            stage.tree->bind_best(run.index);
            if (run.whatif)  // measure the stage's bound winner
                measure(session, run, stage.config(), bind, false);
        }
        record_epoch(name, stage.mode, before, stage.exhaustive);
    };
    auto parallel = [](std::vector<std::unique_ptr<UpdateNode>> children) {
        return UpdateNode::composite(UpdateNode::Mode::Parallel,
                                     std::move(children));
    };

    // ---- stage A: fusion chunks (Parallel, §4.5.1) -----------------------
    if (!chunk_leaves.empty())
        walk("wirer.stage.chunks", "chunks", [&] {
            return Stage{parallel(std::move(chunk_leaves)),
                         [&] { return keyed_config(chunk_vars, false); },
                         chunk_exhaustive};
        });

    // ---- stage B: kernel libraries (context = bound chunks, §4.6) -------
    if (!lib_leaves.empty())
        walk("wirer.stage.libs", "libs", [&] {
            for (const FusionGroup& g : space.groups) {
                const auto& lv = lib_vars[static_cast<size_t>(g.id)];
                if (!lv)
                    continue;
                const auto& cv = chunk_vars[static_cast<size_t>(g.id)];
                const int chunk =
                    cv ? g.chunk_options[static_cast<size_t>(
                             cv->current())]
                       : 1;
                // The group's bound chunk value, not its option index:
                // a group without a chunk variable (a disabled owner)
                // runs unfused.
                lv->set_context(run.contexts.extend(
                    root,
                    wirer_variable_id(WirerVariable::GroupChunk, g.id),
                    chunk));
            }
            return Stage{parallel(std::move(lib_leaves)),
                         [&] { return keyed_config(lib_vars, true); },
                         lib_exhaustive};
        });

    // ---- stage C: stream scheduling (§4.5.3-4.5.5) ------------------------
    std::map<std::pair<int, int>, VarPtr> epoch_vars;
    // Epoch variables frozen by their Prefix node. A frozen epoch's
    // binding extends later epochs' contexts, so it must never change
    // again — and its span is no longer profiled: post-freeze samples
    // are taken while *later* epochs vary and carry their cross-epoch
    // stream interference. Not instrumenting settled spans is the
    // paper's overhead discipline (§5.1: profile only what is being
    // explored).
    std::set<const AdaptiveVariable*> frozen;
    if (opts.features.streams)
        walk("wirer.stage.streams", "streams", [&]() -> Stage {
            // The binding every stage-C trial shares: its stream space
            // is built here once over the strategy's skeleton and
            // serves each trial's plan.
            const StreamSpace ss =
                session.scheduler().stream_space(current_config(true));

            // Parallel over super-epochs; Prefix over epochs within.
            std::map<int, std::vector<const EpochInfo*>> by_se;
            for (const EpochInfo& e : ss.epochs)
                by_se[e.super_epoch].push_back(&e);
            // An epoch's variable is numbered by its position in the
            // stream space, which every trial of this run shares.
            auto position = [&ss](const EpochInfo* e) {
                return static_cast<int>(e - ss.epochs.data());
            };

            // Warm stream transfer is all-or-nothing: a Prefix freeze
            // mangles later epochs' contexts, so a partially pre-bound
            // stream stage would explore its residual epochs under
            // contexts no measurement can ever share. Either every
            // epoch of this graph's stream space has a valid
            // transferred choice (pre-bind them all, even with what-if
            // armed, and skip the stage) or none does (explore the
            // full stage as residual). The neighbor choosing serial
            // (use_streams=false) transfers nothing: this graph may
            // still profit from streams.
            bool warm_streams = warm.has_config && warm.config.use_streams;
            if (warm_streams)
                for (const auto& [se, epochs] : by_se)
                    for (const EpochInfo* e : epochs) {
                        const auto it =
                            warm.config.epoch_choice.find({se, e->level});
                        if (it == warm.config.epoch_choice.end() ||
                            it->second < 0 ||
                            it->second >=
                                static_cast<int>(e->options.size()))
                            warm_streams = false;
                    }
            if (warm_streams) {
                int64_t stream_space = 1;
                for (const auto& [se, epochs] : by_se)
                    for (const EpochInfo* e : epochs) {
                        auto v = std::make_shared<AdaptiveVariable>(
                            wirer_variable_id(WirerVariable::EpochSplit,
                                              position(e)),
                            static_cast<int>(e->options.size()),
                            warm.config.epoch_choice.at({se, e->level}));
                        v->set_context(root);
                        epoch_vars[{se, e->level}] = v;
                        prebound.insert(v.get());
                        ++run.transferred;
                        stream_space = sat_mul(
                            stream_space,
                            static_cast<int64_t>(e->options.size()));
                    }
                return {nullptr, {}, stream_space, "store"};
            }

            int64_t stream_exhaustive = 1;
            std::vector<std::unique_ptr<UpdateNode>> se_nodes;
            for (const auto& [se, epochs] : by_se) {
                std::vector<std::unique_ptr<UpdateNode>> epoch_leaves;
                std::vector<VarPtr> se_vars;
                for (const EpochInfo* e : epochs)
                    se_vars.push_back(
                        epoch_vars[{se, e->level}] = make_variable(
                            WirerVariable::EpochSplit, position(e),
                            static_cast<int>(e->options.size()), -1,
                            epoch_leaves, stream_exhaustive));
                auto prefix = UpdateNode::composite(
                    UpdateNode::Mode::Prefix, std::move(epoch_leaves));
                // History-awareness: once an epoch is frozen, its
                // binding becomes part of later epochs' contexts.
                prefix->set_on_child_bound(
                    [se_vars, &frozen, &contexts = run.contexts](int idx) {
                        const AdaptiveVariable& bound =
                            *se_vars[static_cast<size_t>(idx)];
                        frozen.insert(&bound);
                        for (size_t j = static_cast<size_t>(idx) + 1;
                             j < se_vars.size(); ++j)
                            se_vars[j]->set_context(contexts.extend(
                                se_vars[j]->context(), bound.id(),
                                bound.current()));
                    });
                se_nodes.push_back(std::move(prefix));
            }
            // While armed, the walk replays the exhaustive walk's exact
            // trial sequence. An epoch span is a wall-clock
            // barrier-to-barrier duration, and host launch pipelining
            // couples it to the co-varied walk state of every *other*
            // super-epoch — skipping trials in one SE would shift its
            // partners' trial states and could flip their near-tie
            // freezes (§5.13). Replaying every trial keeps the index
            // bit-identical, so every freeze lands where the measured
            // sweep's would, and the mini-batches stay unspent.
            auto stream_cfg = [&] {
                ScheduleConfig cfg = current_config(true);
                for (const auto& [key, v] : epoch_vars) {
                    cfg.epoch_choice[key] = v->current();
                    if (!frozen.count(v.get()))
                        cfg.epoch_keys[key] = v->profile_key();
                }
                return cfg;
            };
            return {parallel(std::move(se_nodes)), stream_cfg,
                    stream_exhaustive, "prefix"};
        });

    // ---- best-of-strategy run ---------------------------------------------
    // Always measured, even when the safety valve already tripped:
    // the caller needs an end-to-end time for the bound best to be
    // usable (the valve may overshoot by these final runs). Stage C's
    // last trial, or its winner measurement under what-if, already
    // measured the streamed winner, so measure() reuses that time.
    const StageMark final_before = mark();
    ScheduleConfig best = current_config(opts.features.streams);
    for (const auto& [key, v] : epoch_vars)
        best.epoch_choice[key] = v->current();
    double final_ns = measure(session, run, best, bind, true);
    if (opts.features.streams) {
        // Streams are themselves an optimization choice: compare
        // the streamed winner against the same binding without
        // streams and keep whichever measures faster (dynamic
        // adaptation can turn any optimization off, §6.6).
        ScheduleConfig serial = best;
        serial.use_streams = false;
        serial.epoch_choice.clear();
        const double serial_ns = measure(session, run, serial, bind, true);
        if (serial_ns < final_ns) {
            best = serial;
            final_ns = serial_ns;
        }
    }
    run.best_config = std::move(best);
    run.final_ns = final_ns;
    const int64_t final_trials = run.minibatches - final_before.trials;
    record_epoch("final", "hierarchical", final_before, final_trials);

    // What only this pipeline read dies with it: the shard's hash table
    // and the strategy's plan skeleton (its units, stream space and
    // descriptors). The only pipeline's skeleton is the winner's: it
    // stays for the winner's lowering (Scheduler::wire_cached), which
    // releases it.
    if (!sole)
        session.scheduler().release_skeleton(sid);
    run.profile = std::move(run.index).summarize();
}

}  // namespace

WirerResult
AstraSession::explore(const WirerWarmStart& warm, const BindFn& bind) const
{
    obs::ScopedSpan explore_span(obs::Category::Wire, "wirer.explore");
    WirerResult out;

    const int num_strategies =
        opts_.features.alloc ? static_cast<int>(space_.strategies.size())
                             : 1;
    out.strategy_ns.assign(space_.strategies.size(), -1.0);

    // An L2 warm start transfers the neighbor's allocation-strategy
    // decision too: only that strategy's residual space is explored.
    std::vector<int> sids;
    if (warm.has_config && warm.config.strategy >= 0 &&
        warm.config.strategy < num_strategies)
        sids.push_back(warm.config.strategy);
    else
        for (int sid = 0; sid < num_strategies; ++sid)
            sids.push_back(sid);

    // Deterministic budget partition: each strategy owns its share of
    // the safety valve up front (see AstraOptions::max_minibatches), so
    // truncation decisions never depend on how concurrent pipelines
    // interleave.
    std::vector<StrategyRun> runs;
    runs.reserve(sids.size());
    const int64_t budget = std::max<int64_t>(0, opts_.max_minibatches);
    const int64_t num_runs = static_cast<int64_t>(sids.size());
    for (int64_t i = 0; i < num_runs; ++i) {
        const int sid = sids[static_cast<size_t>(i)];
        const int64_t quota =
            budget / num_runs + (i < budget % num_runs ? 1 : 0);
        runs.emplace_back(sid, quota, opts_.normalize_clock, opts_.gpu);
    }

    // Fan out one pipeline per strategy. At threads=1 parallel_for is
    // the serial loop — one code path for both regimes. It joins every
    // pipeline before rethrowing one's exception, so no other
    // strategy's work leaks past the unwind.
    parallel_for(opts_.wirer_threads, num_runs, [&](int64_t i) {
        run_strategy(*this, warm, runs[static_cast<size_t>(i)], bind,
                     num_runs == 1);
    });

    // ---- deterministic merge (strategy order) -----------------------------
    // Reproduces exactly what the serial wirer accumulated when it ran
    // the strategies one after another: epochs concatenate and profile
    // summaries fold in strategy order, local mini-batch totals
    // shift by the running offset, local best-so-far times fold into a
    // global running minimum, and the cross-strategy argmin breaks ties
    // toward the lowest strategy index (strict <).
    double best_ns = -1.0;
    double best_seen = -1.0;
    int64_t mb_offset = 0;
    bool fault_exhausted = false;
    for (StrategyRun& run : runs) {
        for (ConvergenceEpoch e : run.epochs) {
            if (e.best_ns >= 0.0)
                best_seen = best_seen < 0.0
                                ? e.best_ns
                                : std::min(best_seen, e.best_ns);
            e.best_ns = best_seen;
            e.minibatches_total += mb_offset;
            out.convergence.epochs.push_back(std::move(e));
        }
        mb_offset += run.minibatches;
        out.minibatches += run.minibatches;
        out.truncated = out.truncated || run.truncated;
        fault_exhausted = fault_exhausted || run.fault_exhausted;
        out.convergence.faults.injected_kernel_faults += run.faults_seen;
        out.convergence.faults.straggler_events += run.straggler_events;
        out.convergence.faults.faulted_minibatches +=
            run.faulted_minibatches;
        out.convergence.faults.dispatch_retries += run.fault_attempts;
        out.convergence.faults.wirer_retries += run.wirer_retries;
        out.convergence.faults.backoff_ns += run.backoff_ns;
        out.convergence.store_transferred_bindings += run.transferred;
        out.convergence.whatif_evals += run.whatif_evals;
        out.profile.fold(run.profile);
        out.strategy_ns[static_cast<size_t>(run.sid)] = run.final_ns;
        if (best_ns < 0.0 || run.final_ns < best_ns) {
            best_ns = run.final_ns;
            out.best_config = run.best_config;
        }
    }
    out.convergence.faults.quarantined_keys =
        static_cast<int64_t>(out.profile.quarantined.size());

    // Termination reason, in increasing priority.
    out.termination = WirerTermination::Complete;
    if (out.truncated)
        out.termination = WirerTermination::Budget;
    if (fault_exhausted)
        out.termination = WirerTermination::FaultQuarantine;
    out.convergence.termination = wirer_termination_name(out.termination);

    out.best_ns = best_ns;
    out.convergence.best_ns = best_ns;
    out.convergence.minibatches = out.minibatches;
    obs::counter("wire.explorations").add();
    if (out.truncated)
        obs::counter("wire.truncations").add();
    if (out.convergence.faults.faulted_minibatches > 0)
        obs::counter("wire.faulted_minibatches")
            .add(out.convergence.faults.faulted_minibatches);
    if (fault_exhausted)
        obs::counter("wire.fault_quarantines").add();
    return out;
}

}  // namespace astra
