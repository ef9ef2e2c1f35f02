/**
 * @file
 * Custom-wirer tests: online exploration converges, is work-conserving
 * (every trial is a dispatched mini-batch), never regresses below the
 * default configuration, respects feature subsets (F/FK/FKS/all), and
 * keeps the exploration state space at the paper's few-hundred-to-
 * few-thousand scale (Table 7).
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/astra.h"
#include "core/config_io.h"
#include "models/data.h"
#include "models/models.h"
#include "obs/obs.h"
#include "sim/faults.h"

namespace astra {
namespace {

BuiltModel
small_model(int64_t batch = 8)
{
    return build_model(ModelKind::SubLstm,
                       {.batch = batch, .seq_len = 4, .hidden = 32,
                        .embed_dim = 32, .vocab = 50});
}

AstraOptions
timing_only(AstraFeatures f)
{
    AstraOptions o;
    o.features = f;
    o.gpu.execute_kernels = false;
    // These tests assert exact convergence properties of the default
    // (raw-time) regime, which the paper only claims at base clock
    // (§4.1/§7) — pin it even under the CI noise job. The
    // clock-normalized regime is covered by test_profile_stats.
    o.gpu.autoboost = false;
    o.sched.super_epoch_ns = 150000.0;
    return o;
}

TEST(CustomWirer, BeatsNativeOnLaunchBoundModel)
{
    const BuiltModel m = small_model();
    AstraSession session(m.graph(), timing_only(features_all()));
    const double native = session.run_native().total_ns;
    const WirerResult r = session.optimize();
    EXPECT_LT(r.best_ns, native);
    EXPECT_GT(native / r.best_ns, 1.5);  // launch-bound: big headroom
}

TEST(CustomWirer, BestConfigReproducible)
{
    const BuiltModel m = small_model();
    AstraSession session(m.graph(), timing_only(features_all()));
    const WirerResult r = session.optimize();
    // The device is deterministic at base clock: re-running the best
    // config reproduces its measured time exactly (§4.1).
    EXPECT_DOUBLE_EQ(session.run(r.best_config).total_ns, r.best_ns);
}

TEST(CustomWirer, FeatureLadderMonotoneOnAverage)
{
    const BuiltModel m = small_model();
    double best_f, best_fk, best_fks, best_all;
    {
        AstraSession s(m.graph(), timing_only(features_f()));
        best_f = s.optimize().best_ns;
    }
    {
        AstraSession s(m.graph(), timing_only(features_fk()));
        best_fk = s.optimize().best_ns;
    }
    {
        AstraSession s(m.graph(), timing_only(features_fks()));
        best_fks = s.optimize().best_ns;
    }
    {
        AstraSession s(m.graph(), timing_only(features_all()));
        best_all = s.optimize().best_ns;
    }
    // More dimensions can only widen the explored space; the winner
    // can't get meaningfully slower (tiny profiling noise allowed).
    EXPECT_LE(best_fk, best_f * 1.02);
    EXPECT_LE(best_fks, best_fk * 1.02);
    EXPECT_LE(best_all, best_fks * 1.02);
}

TEST(CustomWirer, StateSpaceAtPaperScale)
{
    // Table 7: a few hundred to a few thousand configurations, each
    // explored in one mini-batch.
    const BuiltModel m = small_model();
    AstraSession fks(m.graph(), timing_only(features_fks()));
    const WirerResult r_fks = fks.optimize();
    AstraSession all(m.graph(), timing_only(features_all()));
    const WirerResult r_all = all.optimize();
    EXPECT_GT(r_fks.minibatches, 10);
    EXPECT_LT(r_fks.minibatches, 10000);
    // The alloc fork multiplies exploration (unless 1 strategy).
    EXPECT_GE(r_all.minibatches, r_fks.minibatches);
    EXPECT_EQ(r_all.strategy_ns.size(), all.space().strategies.size());
    for (double ns : r_all.strategy_ns)
        EXPECT_GT(ns, 0.0);
}

TEST(CustomWirer, WorkConservingBindCalledEveryTrial)
{
    const BuiltModel m = small_model();
    AstraSession session(m.graph(), timing_only(features_fk()));
    int64_t calls = 0;
    const WirerResult r = session.optimize(
        [&](const TensorMap&, int64_t mb) {
            EXPECT_EQ(mb, calls);
            ++calls;
        });
    EXPECT_EQ(calls, r.minibatches);
}

TEST(CustomWirer, ProfileIndexUsesContextPrefixes)
{
    // Every kernel span carries its step's profile key, so a traced
    // exploration shows the keys the index was built from.
    const BuiltModel m = small_model();
    AstraSession session(m.graph(), timing_only(features_all()));
    obs::reset();
    obs::set_enabled(true);
    const WirerResult r = session.optimize();
    obs::set_enabled(false);
    ASSERT_EQ(obs::dropped_kernel_spans(), 0);
    std::set<ProfileKey> keys;
    for (const TraceSpan& span : obs::kernel_spans())
        if (span.key.valid())
            keys.insert(span.key);
    obs::reset();
    const SearchSpace& space = session.space();
    EXPECT_GT(r.profile.keys, 0);
    EXPECT_EQ(r.profile.keys, static_cast<int64_t>(keys.size()));
    EXPECT_GE(r.profile.samples, r.profile.keys);
    // Keys under different strategies are distinct (alloc fork): each
    // strategy's contexts come from its own shard.
    std::set<uint32_t> shards;
    std::set<WirerVariable> kinds;
    for (ProfileKey key : keys) {
        shards.insert(ContextTable::shard_of(key.context()));
        kinds.insert(wirer_variable_kind(key.variable()));
        // A key's variable exists in this space and its choice is one
        // of the variable's options.
        const int index = static_cast<int>(key.variable() >> 2);
        switch (wirer_variable_kind(key.variable())) {
          case WirerVariable::GroupChunk:
            ASSERT_LT(index, static_cast<int>(space.groups.size()));
            EXPECT_LT(key.choice(),
                      static_cast<int>(space.groups[static_cast<size_t>(
                                                        index)]
                                           .chunk_options.size()));
            break;
          case WirerVariable::GroupLib:
            ASSERT_LT(index, static_cast<int>(space.groups.size()));
            EXPECT_LT(key.choice(), kNumGemmLibs);
            break;
          case WirerVariable::SingleLib:
            EXPECT_LT(index, static_cast<int>(space.single_mms.size()));
            EXPECT_LT(key.choice(), kNumGemmLibs);
            break;
          case WirerVariable::EpochSplit:
            break;
        }
    }
    std::set<uint32_t> want;
    for (size_t s = 0; s < space.strategies.size(); ++s)
        want.insert(static_cast<uint32_t>(s));
    EXPECT_EQ(shards, want);
    EXPECT_EQ(kinds.size(), space.single_mms.empty() ? 3u : 4u);
    // A library variable's context is its group's bound chunk: it
    // extends its strategy's root, never is the root itself.
    for (ProfileKey key : keys) {
        if (wirer_variable_kind(key.variable()) == WirerVariable::GroupLib) {
            EXPECT_NE(key.context(),
                      ContextTable(ContextTable::shard_of(key.context()))
                          .root());
        }
    }
}

TEST(CustomWirer, StageBTimesEveryGemmUnderALibraryVariable)
{
    // Stage B tunes each GEMM through the variable that decides it, its
    // owner (gemm_owners): a group or the standalone GEMM itself. So in
    // a stage-B trial, the one whose kernels carry library keys, every
    // GEMM kernel carries one, keys read as in
    // ProfileIndexUsesContextPrefixes. The bind callback marks where
    // each mini-batch's kernel spans begin. Hermetic, what-if off:
    // every trial is dispatched.
    const ModelConfig shape{.batch = 4, .seq_len = 2, .hidden = 16,
                            .embed_dim = 16, .vocab = 50};
    const auto is_lib_key = [](ProfileKey key) {
        const WirerVariable kind = wirer_variable_kind(key.variable());
        return key.valid() && (kind == WirerVariable::GroupLib ||
                               kind == WirerVariable::SingleLib);
    };
    const auto is_gemm = [](const std::string& name) {
        return name.starts_with("mm.") || name.starts_with("fmm.") ||
               name.starts_with("lmm.");
    };
    for (const bool all : {false, true})
        for (ModelKind kind :
             {ModelKind::Gnmt, ModelKind::StackedLstm, ModelKind::MiLstm,
              ModelKind::Scrnn, ModelKind::SubLstm}) {
            AstraOptions o = timing_only(all ? features_all() : features_fk());
            o.gpu.faults = FaultPlan{};
            o.plan_store.clear();
            o.whatif.enabled = false;
            const BuiltModel m = build_model(kind, shape);
            AstraSession session(m.graph(), o);
            std::vector<std::vector<TraceSpan>> minibatches;
            const auto take = [&] {
                minibatches.push_back(obs::kernel_spans());
                obs::reset();
            };
            obs::reset();
            obs::set_enabled(true);
            session.optimize([&](const TensorMap&, int64_t) { take(); });
            take();
            obs::set_enabled(false);
            obs::reset();
            int64_t trials = 0, gemms = 0, unkeyed = 0;
            std::string first_unkeyed;
            for (const std::vector<TraceSpan>& spans : minibatches) {
                if (std::none_of(spans.begin(), spans.end(),
                                 [&](const TraceSpan& s) {
                                     return is_lib_key(s.key);
                                 }))
                    continue;
                ++trials;
                for (const TraceSpan& s : spans) {
                    if (!is_gemm(s.name))
                        continue;
                    ++gemms;
                    if (!is_lib_key(s.key) && unkeyed++ == 0)
                        first_unkeyed = s.name;
                }
            }
            const std::string what = std::string(model_name(kind)) +
                                     (all ? ", features_all" : ", features_fk");
            EXPECT_GT(trials, 0) << what;
            EXPECT_GT(gemms, 0) << what;
            EXPECT_EQ(unkeyed, 0)
                << what << ": " << unkeyed << " of " << gemms
                << " GEMM kernels untimed, first " << first_unkeyed;
        }
}

TEST(CustomWirer, KernelSelectionPicksMeasuredBest)
{
    // A single standalone GEMM with a strongly shape-biased winner:
    // the wirer must bind the library that measures fastest.
    GraphBuilder b;
    const NodeId x = b.input({64, 4096});
    const NodeId w = b.param({4096, 1024});
    const NodeId mm = b.matmul(x, w);  // deep-K: cuBLAS split-K wins
    b.graph().mark_output(mm);
    AstraOptions o = timing_only(features_fk());
    AstraSession session(b.graph(), o);
    ASSERT_EQ(session.space().single_mms.size(), 1u);
    const WirerResult r = session.optimize();
    const GemmLib chosen = r.best_config.single_lib.at(mm);
    // Verify against ground truth by measuring all three.
    double best = 1e30;
    GemmLib truth = GemmLib::Cublas;
    for (int lib = 0; lib < kNumGemmLibs; ++lib) {
        ScheduleConfig cfg = r.best_config;
        cfg.single_lib[mm] = static_cast<GemmLib>(lib);
        const double t = session.run(cfg).total_ns;
        if (t < best) {
            best = t;
            truth = static_cast<GemmLib>(lib);
        }
    }
    EXPECT_EQ(chosen, truth);
}

TEST(CustomWirer, StrategyComparisonPicksFastest)
{
    const BuiltModel m = small_model();
    AstraSession session(m.graph(), timing_only(features_all()));
    const WirerResult r = session.optimize();
    double manual_best = 1e30;
    for (double ns : r.strategy_ns)
        manual_best = std::min(manual_best, ns);
    EXPECT_DOUBLE_EQ(r.best_ns, manual_best);
}

std::string
report_json(const ConvergenceReport& rep)
{
    std::ostringstream os;
    rep.write_json(os);
    return os.str();
}

/** Two results must be the same bits, not merely close. */
void
expect_identical_results(const WirerResult& a, const WirerResult& b)
{
    EXPECT_EQ(config_to_string(a.best_config),
              config_to_string(b.best_config));
    EXPECT_DOUBLE_EQ(a.best_ns, b.best_ns);
    EXPECT_EQ(a.minibatches, b.minibatches);
    EXPECT_EQ(a.truncated, b.truncated);
    ASSERT_EQ(a.strategy_ns.size(), b.strategy_ns.size());
    for (size_t i = 0; i < a.strategy_ns.size(); ++i)
        EXPECT_DOUBLE_EQ(a.strategy_ns[i], b.strategy_ns[i]);
    // The merged profile index: counts, quarantine list and the digest
    // of every entry, to the last bit.
    EXPECT_EQ(a.profile, b.profile);
    // Full convergence history.
    EXPECT_EQ(report_json(a.convergence), report_json(b.convergence));
}

TEST(CustomWirer, ParallelExplorationBitIdenticalToSerial)
{
    // The tentpole contract: exploration with worker threads must
    // reproduce the serial result exactly — winning configuration,
    // measured times, mini-batch accounting, profile index and the
    // whole convergence report.
    const BuiltModel m = build_model(
        ModelKind::StackedLstm, {.batch = 8, .seq_len = 4, .hidden = 32,
                                 .embed_dim = 32, .vocab = 50});
    AstraOptions serial_opts = timing_only(features_all());
    serial_opts.wirer_threads = 1;
    AstraSession serial_session(m.graph(), serial_opts);
    const WirerResult serial = serial_session.optimize();

    for (int threads : {4, 7}) {
        AstraOptions opts = timing_only(features_all());
        opts.wirer_threads = threads;
        AstraSession session(m.graph(), opts);
        const WirerResult parallel = session.optimize();
        expect_identical_results(serial, parallel);
    }
}

TEST(CustomWirer, ParallelExplorationIdenticalWithBind)
{
    // With a bind callback repeats stay sequential within a strategy,
    // but distinct strategies still fan out; per-strategy mini-batch
    // numbering keeps the callback sequence deterministic.
    const BuiltModel m = small_model();
    auto run_with = [&](int threads) {
        AstraOptions o = timing_only(features_all());
        o.wirer_threads = threads;
        AstraSession session(m.graph(), o);
        return session.optimize([](const TensorMap&, int64_t) {});
    };
    const WirerResult serial = run_with(1);
    const WirerResult parallel = run_with(4);
    expect_identical_results(serial, parallel);
}

TEST(CustomWirer, ParallelSafetyValveDeterministic)
{
    // Truncation decisions come from the per-strategy budget quotas,
    // so even a budget-bound exploration is interleaving-independent.
    const BuiltModel m = small_model();
    auto run_with = [&](int threads) {
        AstraOptions o = timing_only(features_all());
        o.max_minibatches = 7;
        o.wirer_threads = threads;
        AstraSession session(m.graph(), o);
        return session.optimize();
    };
    const WirerResult serial = run_with(1);
    EXPECT_TRUE(serial.truncated);
    const WirerResult parallel = run_with(4);
    expect_identical_results(serial, parallel);
}

TEST(CustomWirer, BudgetTerminationSurfacesInReport)
{
    const BuiltModel m = small_model();
    AstraOptions o = timing_only(features_all());
    o.max_minibatches = 7;
    AstraSession session(m.graph(), o);
    const WirerResult r = session.optimize();
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.termination, WirerTermination::Budget);
    EXPECT_EQ(r.convergence.termination, "budget");
}

TEST(CustomWirer, FaultInjectionDeterministicAcrossThreads)
{
    // Fault draws are a pure function of (plan seed, strategy id,
    // per-strategy dispatch sequence) — never of thread interleaving —
    // so exploration under an armed plan keeps the parallel wirer's
    // bit-identity contract, fault accounting included (the fault
    // report rides in the convergence JSON compared below).
    const BuiltModel m = small_model();
    auto run_with = [&](int threads) {
        AstraOptions o = timing_only(features_all());
        EXPECT_TRUE(FaultPlan::parse(
            "seed=7;retries=4;kernel:p=0.01;straggler:p=0.002,x=5",
            &o.gpu.faults));
        o.wirer_threads = threads;
        AstraSession session(m.graph(), o);
        return session.optimize();
    };
    const WirerResult serial = run_with(1);
    EXPECT_GT(serial.convergence.faults.injected_kernel_faults, 0);
    EXPECT_GT(serial.convergence.faults.dispatch_retries, 0);
    for (int threads : {4, 7})
        expect_identical_results(serial, run_with(threads));
}

TEST(CustomWirer, FaultySweepConvergesToFaultFreeConfig)
{
    // The acceptance smoke: a full sweep under transient kernel
    // faults, one injected allocation failure and a rare straggler
    // spike completes without aborting, degrades allocation one rung
    // (bump -> reuse), quarantines nothing, and binds the same
    // configuration the fault-free sweep binds.
    const BuiltModel m = build_model(
        ModelKind::StackedLstm, {.batch = 8, .seq_len = 4, .hidden = 32,
                                 .embed_dim = 32, .vocab = 50});
    AstraOptions clean_opts = timing_only(features_all());
    clean_opts.gpu.faults = FaultPlan();  // pin against ASTRA_FAULTS
    AstraSession clean_session(m.graph(), clean_opts);
    const WirerResult clean = clean_session.optimize();
    EXPECT_EQ(clean.termination, WirerTermination::Complete);

    AstraOptions o = timing_only(features_all());
    ASSERT_TRUE(FaultPlan::parse(
        "seed=11;kernel:p=0.0005;alloc:at=0;straggler:p=0.00002,x=6",
        &o.gpu.faults));
    AstraSession session(m.graph(), o);
    // The injected allocation fault kills the bump plan; liveness-based
    // reuse (the next rung) absorbs it on every strategy.
    for (size_t s = 0; s < session.space().strategies.size(); ++s)
        EXPECT_EQ(session.plan_mode(static_cast<int>(s)),
                  MemoryPlanMode::Reuse);
    EXPECT_FALSE(session.used_recompute());

    const WirerResult r = session.optimize();
    EXPECT_EQ(config_to_string(r.best_config),
              config_to_string(clean.best_config));
    EXPECT_EQ(r.termination, WirerTermination::Complete);
    const FaultReport& fr = r.convergence.faults;
    EXPECT_GT(fr.injected_kernel_faults, 0);
    EXPECT_GT(fr.straggler_events, 0);
    EXPECT_GT(fr.dispatch_retries, 0);
    EXPECT_GT(fr.backoff_ns, 0.0);
    EXPECT_EQ(fr.faulted_minibatches, 0);  // retries recovered them all
    EXPECT_EQ(fr.quarantined_keys, 0);
}

TEST(CustomWirer, QuarantineTargetsOnlyFaultingKernels)
{
    // A kernel library that faults deterministically (p=1, filtered by
    // name) exhausts the dispatcher's and the wirer's retry budgets;
    // its profile keys must end up quarantined — marked, sample-free,
    // never bound — while every other library measures clean and the
    // fault-free winner still wins.
    GraphBuilder b;
    const NodeId x = b.input({64, 4096});
    const NodeId w = b.param({4096, 1024});
    const NodeId mm = b.matmul(x, w);
    b.graph().mark_output(mm);
    AstraSession clean_session(b.graph(), timing_only(features_fk()));
    const WirerResult clean = clean_session.optimize();
    const GemmLib winner = clean.best_config.single_lib.at(mm);
    ASSERT_NE(winner, GemmLib::Oai1) << "test premise: fault a loser";

    AstraOptions o = timing_only(features_fk());
    ASSERT_TRUE(FaultPlan::parse("seed=3;retries=2;kernel:name=oai_1,p=1",
                                 &o.gpu.faults));
    AstraSession session(b.graph(), o);
    const WirerResult r = session.optimize();
    EXPECT_EQ(r.best_config.single_lib.at(mm), winner);
    EXPECT_EQ(r.termination, WirerTermination::FaultQuarantine);
    EXPECT_EQ(r.convergence.termination, "fault_quarantine");

    // A library variable's choice is the GemmLib value; only Oai1's
    // keys may appear on the quarantine list.
    const std::vector<ProfileKey>& quarantined = r.profile.quarantined;
    ASSERT_FALSE(quarantined.empty());
    for (ProfileKey key : quarantined) {
        EXPECT_EQ(wirer_variable_kind(key.variable()),
                  WirerVariable::SingleLib)
            << "clean config quarantined: " << key;
        EXPECT_EQ(key.choice(), static_cast<int>(GemmLib::Oai1))
            << "clean config quarantined: " << key;
    }
    const FaultReport& fr = r.convergence.faults;
    EXPECT_EQ(fr.quarantined_keys,
              static_cast<int64_t>(quarantined.size()));
    EXPECT_GT(fr.faulted_minibatches, 0);
    EXPECT_GT(fr.wirer_retries, 0);
}

TEST(CustomWirer, BindExceptionPropagatesAndSessionStaysUsable)
{
    // A BindFn that throws aborts the exploration: optimize() rethrows
    // once every strategy pipeline has stopped, and the session stays
    // usable — its next optimize() wires exactly as a fresh session
    // does. (Not the plan-cache tally: the aborted run warmed it.)
    const BuiltModel m = small_model();
    for (int threads : {1, 4}) {
        SCOPED_TRACE("wirer_threads " + std::to_string(threads));
        AstraOptions o = timing_only(features_all());
        o.wirer_threads = threads;
        AstraSession ref_session(m.graph(), o);
        const WirerResult ref = ref_session.optimize();

        AstraSession session(m.graph(), o);
        std::atomic<int64_t> calls = 0;  // strategies bind concurrently
        EXPECT_THROW(session.optimize([&](const TensorMap&, int64_t) {
            if (++calls > 10)
                throw std::runtime_error("killed mid-exploration");
        }),
                     std::runtime_error);
        const WirerResult r = session.optimize();
        EXPECT_EQ(config_to_string(r.best_config),
                  config_to_string(ref.best_config));
        EXPECT_EQ(r.best_ns, ref.best_ns);
        EXPECT_EQ(r.minibatches, ref.minibatches);
        EXPECT_EQ(r.strategy_ns, ref.strategy_ns);
    }
}

/**
 * One row of ExplorationReportsArePinned: the FNV-1a of the
 * exploration's convergence JSON, the FNV-1a of its winner's config
 * and its mini-batches.
 */
std::string
exploration_row(const WirerResult& r)
{
    std::ostringstream json;
    r.convergence.write_json(json);
    return hash_hex(fnv1a64(json.str())) + " " +
           hash_hex(fnv1a64(config_to_string(r.best_config))) + " " +
           std::to_string(r.minibatches);
}

TEST(CustomWirer, ExplorationReportsArePinned)
{
    // Whole explorations, stage by stage: the five paper models at a
    // small shape under features_all, what-if off and on, then an L2
    // warm start (SC-RNN's embed neighbour) each way. The JSON carries
    // every stage's trials, exhaustive size, best-so-far and running
    // total, so a row moves when any trial, stage or final run does.
    // Hermetic (timing-only, base clock, no faults, no store but the
    // warm start's own), so the rows hold under the CI noise and fault
    // jobs. Update a row only on purpose.
    const ModelConfig shape{.batch = 4, .seq_len = 2, .hidden = 16,
                            .embed_dim = 16, .vocab = 50};
    AstraOptions o = timing_only(features_all());
    o.gpu.faults = FaultPlan{};
    o.plan_store.clear();
    const std::pair<ModelKind, std::array<const char*, 2>> pinned[] = {
        {ModelKind::Gnmt,
         {"d574e84f1ace2a93 8f2e42d779171238 335",
          "09a2435429288079 8f2e42d779171238 16"}},
        {ModelKind::StackedLstm,
         {"51abd645782c6496 cc3fbeb4415a0bf0 313",
          "02b48957ae3bd98d cc3fbeb4415a0bf0 16"}},
        {ModelKind::MiLstm,
         {"1a612d16be45d292 0053c7503898db10 234",
          "7921f81fbe8b7c24 0053c7503898db10 12"}},
        {ModelKind::Scrnn,
         {"fe397621c93c5f6d d03bbc7ad893215c 186",
          "9622f3b15da808d8 d03bbc7ad893215c 12"}},
        {ModelKind::SubLstm,
         {"1b16094d6c617106 2b2b8f427273b352 201",
          "beccc3b6076a03c8 2b2b8f427273b352 12"}},
    };
    for (const auto& [kind, rows] : pinned)
        for (int whatif : {0, 1}) {
            o.whatif.enabled = whatif != 0;
            const BuiltModel m = build_model(kind, shape);
            AstraSession session(m.graph(), o);
            EXPECT_EQ(exploration_row(session.optimize()),
                      rows[static_cast<size_t>(whatif)])
                << model_name(kind) << ", what-if " << whatif;
        }

    // The cold pass (a miss) writes the store; the neighbour at embed
    // 24 transfers its winner at L2 and explores the residual space.
    const std::array<const char*, 2> warm_rows = {
        "miss 9feeb1694ebd34a6 d03bbc7ad893215c 186 | "
        "l2 41c6ddc1248a2a84 844933fe3730cb1f 64",
        "miss f1d1f8f915f64379 d03bbc7ad893215c 12 | "
        "l2 6fd675e962d67ecb c2e5e7fa0785c469 5"};
    for (int whatif : {0, 1}) {
        o.whatif.enabled = whatif != 0;
        const std::filesystem::path dir =
            std::filesystem::path(::testing::TempDir()) /
            ("wirer_pinned_warm_start_" + std::to_string(whatif));
        std::filesystem::remove_all(dir);
        o.plan_store = dir.string();
        std::string rows;
        for (int64_t embed : {16, 24}) {
            ModelConfig c = shape;
            c.embed_dim = embed;
            const BuiltModel m = build_model(ModelKind::Scrnn, c);
            AstraSession session(m.graph(), o);
            const WirerResult r = session.optimize();
            rows += (embed == 16 ? "" : " | ") +
                    r.convergence.store_tier + " " + exploration_row(r);
        }
        EXPECT_EQ(rows, warm_rows[static_cast<size_t>(whatif)])
            << "warm start, what-if " << whatif;
    }
}

}  // namespace
}  // namespace astra
