/**
 * @file
 * Scheduler tests: unit building (chunked fusion, elementwise chains,
 * coverage exactly-once, topological validity), super-epoch/epoch
 * partitioning, equivalence-class stream options, full streamed plans
 * that remain value-preserving, plan identity pinned on the paper
 * models, and the per-strategy plan skeleton (span counts, binding
 * keys, concurrent strategies, release when exploration ends).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/scheduler.h"
#include "models/data.h"
#include "models/models.h"
#include "obs/obs.h"
#include "runtime/wired.h"
#include "support/parallel_for.h"
#include "tests/util.h"

namespace astra {
namespace {

using testutil::default_config;
using testutil::pinned_configs;
using testutil::Runner;

/** Small LSTM-ish workload with real fusion opportunities. */
BuiltModel
small_model()
{
    return build_model(ModelKind::SubLstm,
                       {.batch = 8, .seq_len = 4, .hidden = 32,
                        .embed_dim = 32, .vocab = 50});
}

void
check_cover_and_order(const std::vector<PlanStep>& units, const Graph& g)
{
    std::vector<int> covered(static_cast<size_t>(g.size()), -1);
    for (size_t i = 0; i < units.size(); ++i)
        for (NodeId id : units[i].nodes) {
            ASSERT_EQ(covered[static_cast<size_t>(id)], -1)
                << "node %" << id << " covered twice";
            covered[static_cast<size_t>(id)] = static_cast<int>(i);
        }
    for (const Node& n : g.nodes()) {
        if (op_is_source(n.kind))
            continue;
        ASSERT_GE(covered[static_cast<size_t>(n.id)], 0)
            << "node %" << n.id << " (" << op_name(n.kind)
            << ") uncovered";
    }
    // Each step's external inputs must be produced by earlier steps.
    for (size_t i = 0; i < units.size(); ++i)
        for (NodeId id : units[i].nodes)
            for (NodeId in : g.node(id).inputs) {
                const int p = covered[static_cast<size_t>(in)];
                if (p >= 0 && static_cast<size_t>(p) != i) {
                    ASSERT_LT(p, static_cast<int>(i));
                }
            }
}

TEST(Scheduler, UnfusedUnitsCoverEachNodeOnce)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    ScheduleConfig cfg = default_config(space);
    cfg.elementwise_fusion = false;
    const auto units = sched.build_units(cfg);
    check_cover_and_order(units, m.graph());
    for (const PlanStep& u : units)
        EXPECT_EQ(u.kind, StepKind::Single);
}

TEST(Scheduler, MaxChunkUnitsCoverEachNodeOnce)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    for (size_t chunk_opt = 0; chunk_opt < 4; ++chunk_opt) {
        const auto units = sched.build_units(
            default_config(space, static_cast<int>(chunk_opt)));
        check_cover_and_order(units, m.graph());
    }
}

TEST(Scheduler, FusionReducesUnitCount)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    ScheduleConfig unfused = default_config(space, 0);
    unfused.elementwise_fusion = false;
    ScheduleConfig fused = default_config(space, 3);
    const size_t n_unfused = sched.build_units(unfused).size();
    const size_t n_fused = sched.build_units(fused).size();
    EXPECT_LT(n_fused, n_unfused * 0.6);
}

/**
 * Streamed siblings of one binding: `cfg` with use_streams on and each
 * of `choices` applied to every epoch (raw; build() clamps out-of-range
 * choices).
 */
std::vector<ScheduleConfig>
epoch_siblings(const Scheduler& sched, ScheduleConfig cfg,
               const std::vector<int>& choices)
{
    cfg.use_streams = true;
    const StreamSpace ss = sched.stream_space(cfg);
    std::vector<ScheduleConfig> out;
    for (int choice : choices) {
        ScheduleConfig sib = cfg;
        for (const EpochInfo& e : ss.epochs)
            sib.epoch_choice[{e.super_epoch, e.level}] = choice;
        out.push_back(std::move(sib));
    }
    return out;
}

/** Number of recorded host spans with the given name. */
int64_t
span_count(const std::vector<obs::Span>& spans, const std::string& name)
{
    return std::count_if(spans.begin(), spans.end(),
                         [&](const obs::Span& s) { return s.name == name; });
}

TEST(Scheduler, StreamedSiblingsShareOneSkeleton)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;  // several epochs to choose in
    const Scheduler sched(m.graph(), space, opts);

    // k trials of stage-C shape: one binding, the epoch choice varied.
    constexpr int k = 5;
    obs::reset();
    obs::set_enabled(true);
    const std::vector<ScheduleConfig> trials =
        epoch_siblings(sched, default_config(space, 2), {0, 1, 2, 3, 4});
    for (const ScheduleConfig& cfg : trials)
        (void)sched.build(cfg);
    obs::set_enabled(false);
    const std::vector<obs::Span> spans = obs::host_spans();
    obs::reset();

    // stream_space() and all k builds share one skeleton.
    EXPECT_EQ(span_count(spans, "scheduler.build_units"), 1);
    EXPECT_EQ(span_count(spans, "scheduler.stream_space"), 1);
    EXPECT_EQ(span_count(spans, "scheduler.build"), k);
}

TEST(Scheduler, ExplorationReleasesEachStrategySkeleton)
{
    // A strategy's skeleton lives only while its pipeline explores, and
    // build() keeps no skeleton it had to make: after optimize() every
    // build of the winner builds its units and stream space again, so a
    // lowered winner keeps only its binary. A trial (bind) keeps the
    // skeleton it built, with its stream space, for the next trial.
    const BuiltModel m = small_model();
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = false;
    opts.features = features_all();
    AstraSession session(m.graph(), opts);
    ASSERT_GT(session.space().strategies.size(), 1u);
    const WirerResult r = session.optimize();
    ScheduleConfig winner = r.best_config;
    winner.use_streams = true;

    const auto spans_of = [&](const auto& call) {
        obs::reset();
        obs::set_enabled(true);
        call();
        obs::set_enabled(false);
        const std::vector<obs::Span> spans = obs::host_spans();
        obs::reset();
        return std::pair{span_count(spans, "scheduler.build_units"),
                         span_count(spans, "scheduler.stream_space")};
    };
    const TensorMap& tmap = session.tensor_map(winner.strategy);
    for (int build = 0; build < 2; ++build)
        EXPECT_EQ(spans_of([&] { (void)session.scheduler().build(winner); }),
                  std::pair(int64_t{1}, int64_t{1}))
            << "build " << build;
    for (int trial = 0; trial < 2; ++trial)
        EXPECT_EQ(spans_of([&] {
                      (void)session.scheduler().bind(winner, tmap, opts.gpu);
                  }),
                  std::pair(int64_t{1 - trial}, int64_t{1 - trial}))
            << "trial " << trial;
}

TEST(Scheduler, SoleStrategyWinnerLowersFromItsKeptSkeleton)
{
    // An exploration that runs one strategy pipeline keeps its skeleton,
    // which is the winner's. The winner's first wire_cached then
    // assembles no units and builds no descriptor, lowers the binary a
    // cold lowering does, and releases the skeleton, so a build() after
    // it assembles the units again.
    const BuiltModel m = small_model();
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = false;
    opts.features = features_fk();
    AstraSession session(m.graph(), opts);
    const WirerResult r = session.optimize();
    const ScheduleConfig& winner = r.best_config;
    const TensorMap& tmap = session.tensor_map(winner.strategy);

    // (scheduler.build_units spans, descriptors built) during `call`.
    const auto counts = [](const auto& call) {
        obs::reset();
        obs::set_enabled(true);
        call();
        obs::set_enabled(false);
        const std::vector<obs::Span> spans = obs::host_spans();
        const auto counters = obs::counter_values();
        obs::reset();
        const auto built = counters.find("dispatch.descriptors_built");
        return std::pair{span_count(spans, "scheduler.build_units"),
                         built == counters.end() ? int64_t{0}
                                                 : built->second};
    };
    std::shared_ptr<const WiredBinary> bin;
    EXPECT_EQ(counts([&] {
                  bin = session.scheduler().wire_cached(winner, tmap, opts.gpu);
              }),
              std::pair(int64_t{0}, int64_t{0}));
    const Scheduler fresh(m.graph(), session.space());
    EXPECT_EQ(testutil::bound_dump(*bin),
              testutil::bound_dump(
                  lower_plan(fresh.build(winner), m.graph(), tmap, opts.gpu)));
    EXPECT_EQ(counts([&] { (void)session.scheduler().build(winner); }).first,
              1);

    // The binary owns copies of what it launches: a skeleton of another
    // shape bound after the release leaves its replay unchanged.
    GpuConfig replay_gpu = opts.gpu;
    replay_gpu.faults = FaultPlan();
    const DispatchResult first = replay_wired(*bin, replay_gpu);
    ScheduleConfig other = winner;
    for (int& chunk : other.group_chunk)
        chunk = 1;
    ASSERT_NE(other.group_chunk, winner.group_chunk);
    (void)session.scheduler().bind(other, tmap, opts.gpu);
    const DispatchResult again = replay_wired(*bin, replay_gpu);
    EXPECT_EQ(again.total_ns, first.total_ns);
    EXPECT_EQ(again.profile_ns, first.profile_ns);
}

TEST(Scheduler, BoundTrialOutlivesItsSkeleton)
{
    // A trial's binary launches its skeleton's descriptors, and its
    // owner keeps their table alive: held across the skeleton's release
    // and a bind of another shape in its slot, it still dispatches as
    // the configuration's plan does.
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    const Runner runner(m.graph(), space.strategies[0].runs);
    GpuConfig gpu;
    gpu.execute_kernels = false;
    gpu.autoboost = false;
    gpu.faults = FaultPlan();
    ScheduleConfig cfg = default_config(space, 3);
    cfg.use_streams = true;
    for (const FusionGroup& g : space.groups)
        cfg.group_keys[g.id] =
            testutil::wirer_key(WirerVariable::GroupChunk, g.id);
    const WiredBinary bound = sched.bind(cfg, runner.tmap(), gpu);
    sched.release_skeleton(cfg.strategy);
    const ScheduleConfig other = default_config(space, 1);
    ASSERT_NE(other.group_chunk, cfg.group_chunk);
    (void)sched.bind(other, runner.tmap(), gpu);
    const DispatchResult held = replay_wired(bound, gpu);
    const DispatchResult fresh =
        dispatch_plan(sched.build(cfg), m.graph(), runner.tmap(), gpu);
    EXPECT_EQ(held.total_ns, fresh.total_ns);
    EXPECT_EQ(held.profile_ns, fresh.profile_ns);
    EXPECT_FALSE(held.profile_ns.empty());
}

/** The serving fleet's largest bucket (perfbench serve_fleet). */
BuiltModel
bucket_model(int seq_len)
{
    return build_model(ModelKind::SubLstm,
                       {.batch = 8, .seq_len = seq_len, .hidden = 64,
                        .embed_dim = 64, .vocab = 1000});
}

TEST(Scheduler, TrialReuseCountsArePinned)
{
    // One optimize() of small_model() and of the fleet's bucket 32:
    // trials bound from a strategy's kept skeleton (hits) or from a
    // fresh one (misses), and every kernel descriptor built (one a new
    // skeleton inherits is not built). These counts are exact for a
    // tree; a change to one changes how much a wiring rebuilds.
    struct Pin
    {
        const char* name;
        BuiltModel (*model)();
        AstraFeatures features;
        int64_t hits, misses, descriptors;
    };
    const auto bucket32 = [] { return bucket_model(32); };
    for (const Pin& pin :
         {Pin{"fk", small_model, features_fk(), 4, 3, 369},
          Pin{"all", small_model, features_all(), 579, 12, 1472},
          Pin{"bucket 32 fk", bucket32, features_fk(), 4, 4, 2803}}) {
        const BuiltModel m = pin.model();
        AstraOptions opts;
        opts.gpu.execute_kernels = false;
        opts.gpu.autoboost = false;
        // A faulted dispatch is retried, binding again.
        opts.gpu.faults = FaultPlan();
        opts.features = pin.features;
        AstraSession session(m.graph(), opts);
        obs::reset();
        obs::set_enabled(true);
        (void)session.optimize();
        obs::set_enabled(false);
        const auto counters = obs::counter_values();
        obs::reset();
        const auto value = [&](const char* name) {
            const auto it = counters.find(name);
            return it == counters.end() ? int64_t{0} : it->second;
        };
        EXPECT_EQ(value("scheduler.plan_cache.hits"), pin.hits) << pin.name;
        EXPECT_EQ(value("scheduler.plan_cache.misses"), pin.misses)
            << pin.name;
        EXPECT_EQ(value("dispatch.descriptors_built"), pin.descriptors)
            << pin.name;
    }
}

TEST(Scheduler, SkeletonIsKeyedByEveryBindingField)
{
    // One scheduler binds streamed configs that each change one more
    // binding field, so each finds the previous one's skeleton, stream
    // space and descriptors kept. Every plan and bound plan must equal
    // a fresh scheduler's, so no field that shapes units, the stream
    // space or a descriptor may be missing from what keys them.
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    ASSERT_FALSE(space.single_mms.empty());
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;
    const Scheduler sched(m.graph(), space, opts);

    ScheduleConfig cfg = default_config(space, 3);
    cfg.use_streams = true;
    std::vector<ScheduleConfig> walk{cfg};
    cfg.group_chunk = default_config(space, 1).group_chunk;
    walk.push_back(cfg);
    // Libraries that differ between groups split equivalence classes,
    // so the stream space changes with them.
    for (const FusionGroup& g : space.groups)
        cfg.group_lib[static_cast<size_t>(g.id)] =
            static_cast<GemmLib>(g.id % kNumGemmLibs);
    walk.push_back(cfg);
    const auto options = [&](const ScheduleConfig& c) {
        std::vector<size_t> n;
        for (const EpochInfo& e :
             Scheduler(m.graph(), space, opts).stream_space(c).epochs)
            n.push_back(e.options.size());
        return n;
    };
    EXPECT_NE(options(walk[walk.size() - 2]), options(walk.back()));
    cfg.single_lib[space.single_mms[0]] = GemmLib::Oai2;
    walk.push_back(cfg);
    cfg.elementwise_fusion = false;
    walk.push_back(cfg);
    cfg.num_streams = 3;
    walk.push_back(cfg);
    for (const FusionGroup& g : space.groups)
        cfg.group_keys[g.id] =
            testutil::wirer_key(WirerVariable::GroupChunk, g.id);
    walk.push_back(cfg);
    cfg.single_keys[space.single_mms[0]] =
        testutil::wirer_key(WirerVariable::SingleLib, 0);
    walk.push_back(cfg);
    const Runner runner(m.graph(), space.strategies[0].runs);
    GpuConfig gpu;
    gpu.execute_kernels = false;
    for (size_t i = 0; i < walk.size(); ++i) {
        const ExecutionPlan fresh =
            Scheduler(m.graph(), space, opts).build(walk[i]);
        EXPECT_EQ(testutil::plan_dump(sched.build(walk[i])),
                  testutil::plan_dump(fresh))
            << "step " << i;
        EXPECT_EQ(testutil::bound_dump(sched.bind(walk[i], runner.tmap(), gpu)),
                  testutil::bound_dump(bind_plan(fresh, m.graph(),
                                                 runner.tmap(), gpu,
                                                 /*profiling=*/true)))
            << "step " << i;
    }
}

TEST(Scheduler, NewShapesInheritOnlyWhatTheyShare)
{
    // Stage A's walk on one scheduler: every strategy of the zoo and of
    // the fleet's four buckets through chunk options 0, 1, 2, 3 (each
    // group's largest; GNMT's needs cycle repair) and 0 again, so each
    // skeleton replaces one of another shape and inherits its
    // descriptors and, when they cover the same ladder Adds, its
    // chains. At each shape, under two library bindings, the units and
    // every descriptor must equal a fresh scheduler's.
    std::vector<std::pair<std::string, BuiltModel>> models;
    for (ModelKind kind : {ModelKind::Gnmt, ModelKind::StackedLstm,
                           ModelKind::MiLstm, ModelKind::Scrnn,
                           ModelKind::SubLstm})
        models.emplace_back(model_name(kind),
                            build_model(kind, testutil::zoo_shape()));
    for (int seq : {8, 16, 24, 32})
        models.emplace_back("bucket " + std::to_string(seq),
                            bucket_model(seq));
    GpuConfig gpu;
    gpu.execute_kernels = false;
    for (const auto& [name, m] : models) {
        const SearchSpace space = enumerate_search_space(m.graph());
        const Scheduler sched(m.graph(), space);
        for (const AllocStrategy& s : space.strategies) {
            const Runner runner(m.graph(), s.runs);
            for (int option : {0, 1, 2, 3, 0}) {
                ScheduleConfig cfg = default_config(space, option);
                cfg.strategy = s.id;
                for (int shift : {0, 1}) {
                    for (const FusionGroup& g : space.groups)
                        cfg.group_lib[static_cast<size_t>(g.id)] =
                            static_cast<GemmLib>((g.id + shift) %
                                                 kNumGemmLibs);
                    const ExecutionPlan fresh =
                        Scheduler(m.graph(), space).build(cfg);
                    const WiredBinary bound =
                        sched.bind(cfg, runner.tmap(), gpu);
                    EXPECT_EQ(testutil::plan_dump(sched.build(cfg)),
                              testutil::plan_dump(fresh))
                        << name << " " << s.key << ", chunk option "
                        << option << ", shift " << shift;
                    EXPECT_EQ(testutil::bound_dump(bound),
                              testutil::bound_dump(bind_plan(
                                  fresh, m.graph(), runner.tmap(), gpu,
                                  /*profiling=*/true)))
                        << name << " " << s.key << ", chunk option "
                        << option << ", shift " << shift;
                }
            }
        }
    }
}

TEST(Scheduler, ConcurrentStrategiesMatchSerialBuilds)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;
    const Scheduler serial(m.graph(), space, opts);

    // Per strategy: streamed siblings of two bindings plus the
    // unstreamed binding, so the skeleton slots turn over.
    std::vector<ScheduleConfig> cfgs;
    for (const AllocStrategy& s : space.strategies)
        for (int chunk_opt : {1, 3}) {
            ScheduleConfig base = default_config(space, chunk_opt);
            base.strategy = s.id;
            cfgs.push_back(base);
            for (ScheduleConfig& sib :
                 epoch_siblings(serial, base, {0, 1, 2}))
                cfgs.push_back(std::move(sib));
        }
    std::vector<std::string> expect;
    for (const ScheduleConfig& cfg : cfgs)
        expect.push_back(testutil::plan_dump(serial.build(cfg)));

    // Every config of every strategy at once, each built twice: the
    // skeleton slots are shared mutable state, so concurrent builds on
    // one strategy may evict each other's skeleton but must never
    // return a wrong plan.
    const Scheduler shared(m.graph(), space, opts);
    std::vector<std::string> got(cfgs.size() * 2);
    parallel_for(4, static_cast<int64_t>(got.size()), [&](int64_t i) {
        got[static_cast<size_t>(i)] = testutil::plan_dump(
            shared.build(cfgs[static_cast<size_t>(i) / 2]));
    });
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expect[i / 2]) << "config " << i / 2;

    // The same configs bound at once (one tensor map per strategy):
    // trials keep skeletons in the shared slots and fill in their
    // descriptors while others bind from them, and every bound plan
    // must equal a serial bind_plan of its serial build.
    std::vector<std::unique_ptr<Runner>> runners;
    for (const AllocStrategy& s : space.strategies)
        runners.push_back(std::make_unique<Runner>(m.graph(), s.runs));
    const auto tmap = [&](const ScheduleConfig& cfg) -> const TensorMap& {
        return runners[static_cast<size_t>(cfg.strategy)]->tmap();
    };
    GpuConfig gpu;
    gpu.execute_kernels = false;
    std::vector<std::string> expect_bound;
    for (const ScheduleConfig& cfg : cfgs)
        expect_bound.push_back(testutil::bound_dump(
            bind_plan(serial.build(cfg), m.graph(), tmap(cfg), gpu,
                      /*profiling=*/true)));
    const Scheduler binding(m.graph(), space, opts);
    std::vector<std::string> got_bound(cfgs.size() * 2);
    parallel_for(4, static_cast<int64_t>(got_bound.size()), [&](int64_t i) {
        const ScheduleConfig& cfg = cfgs[static_cast<size_t>(i) / 2];
        got_bound[static_cast<size_t>(i)] =
            testutil::bound_dump(binding.bind(cfg, tmap(cfg), gpu));
    });
    for (size_t i = 0; i < got_bound.size(); ++i)
        EXPECT_EQ(got_bound[i], expect_bound[i / 2]) << "config " << i / 2;
}

TEST(Scheduler, PaperModelPlansArePinned)
{
    // FNV-1a of testutil::plan_dump over pinned_configs at the zoo
    // shape, every PlanStep field byte for byte (profile keys as the
    // ordinal of their first appearance). What the wirer
    // measures is exactly these plans, so a change here is a change in
    // what gets dispatched; update a digest only on purpose.
    const std::pair<ModelKind, const char*> pinned[] = {
        {ModelKind::Gnmt, "5f0a88a364386824"},
        {ModelKind::StackedLstm, "6bc031b605cd8906"},
        {ModelKind::MiLstm, "795a4d98dc3e5dd5"},
        {ModelKind::Scrnn, "b057176fde629a7c"},
        {ModelKind::SubLstm, "b98646c69966ffd1"},
    };
    for (const auto& [kind, digest] : pinned) {
        const BuiltModel m = build_model(kind, testutil::zoo_shape());
        const SearchSpace space = enumerate_search_space(m.graph());
        const Scheduler sched(m.graph(), space);
        std::string dumps;
        for (const ScheduleConfig& cfg : pinned_configs(space, sched))
            dumps += testutil::plan_dump(sched.build(cfg));
        EXPECT_EQ(hash_hex(fnv1a64(dumps)), digest) << model_name(kind);
    }
}

TEST(Scheduler, EveryGemmUnitIsAttributedToItsOwner)
{
    // The attribution oracle over the zoo: every strategy, every group
    // at chunk 1 and at its largest chunk, each group and standalone
    // GEMM with a library and key of its own. A GEMM that an enabled
    // group lists is timed and tuned by that group even while the
    // group runs unfused, however many disabled groups list it first.
    for (ModelKind kind : {ModelKind::Gnmt, ModelKind::StackedLstm,
                           ModelKind::MiLstm, ModelKind::Scrnn,
                           ModelKind::SubLstm}) {
        const BuiltModel m = build_model(kind, testutil::zoo_shape());
        const SearchSpace space = enumerate_search_space(m.graph());
        const Scheduler sched(m.graph(), space);
        for (const AllocStrategy& s : space.strategies)
            for (int option : {0, 1 << 20}) {
                ScheduleConfig cfg = default_config(space, option);
                cfg.strategy = s.id;
                for (const FusionGroup& g : space.groups) {
                    cfg.group_lib[static_cast<size_t>(g.id)] =
                        static_cast<GemmLib>(g.id % kNumGemmLibs);
                    cfg.group_keys[g.id] =
                        testutil::wirer_key(WirerVariable::GroupLib, g.id);
                }
                for (size_t i = 0; i < space.single_mms.size(); ++i) {
                    const int index = static_cast<int>(i);
                    cfg.single_lib[space.single_mms[i]] =
                        static_cast<GemmLib>(index % kNumGemmLibs);
                    cfg.single_keys[space.single_mms[i]] =
                        testutil::wirer_key(WirerVariable::SingleLib, index);
                }
                EXPECT_EQ(testutil::attribution_errors(
                              m.graph(), space, cfg, sched.build_units(cfg)),
                          "")
                    << model_name(kind) << " " << s.key << ", chunk option "
                    << option;
            }
    }
}

TEST(Scheduler, DisabledGroupsForcedUnfused)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    // Find a strategy under which some group is disabled.
    int sid = -1, gid = -1;
    for (const AllocStrategy& s : space.strategies)
        for (const FusionGroup& g : space.groups)
            if (!s.group_enabled[static_cast<size_t>(g.id)] &&
                g.chunk_options.back() > 1) {
                sid = s.id;
                gid = g.id;
            }
    if (sid < 0)
        GTEST_SKIP() << "no disabled group in this space";
    ScheduleConfig cfg = default_config(space, 3);
    cfg.strategy = sid;
    const auto units = sched.build_units(cfg);
    // The disabled group itself must not fuse: no fused step may be a
    // contiguous chunk of its member list. (Members may still appear
    // inside *other* enabled groups' fused steps — 2-D fusion sets
    // share GEMMs across groups.)
    const FusionGroup& g = space.groups[static_cast<size_t>(gid)];
    for (const PlanStep& u : units) {
        if (u.kind != StepKind::FusedGemm && u.kind != StepKind::LadderGemm)
            continue;
        for (size_t lo = 0; lo + 1 < g.mms.size(); ++lo) {
            if (u.nodes.size() > g.mms.size() - lo)
                continue;
            bool matches = true;
            for (size_t j = 0; j < u.nodes.size() && matches; ++j)
                matches = g.mms[lo + j] == u.nodes[j];
            EXPECT_FALSE(matches && u.nodes.size() >= 2)
                << "disabled group g" << gid << " fused anyway";
        }
    }
}

TEST(Scheduler, ElementwiseChainsFormed)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    const auto units = sched.build_units(default_config(space));
    int chains = 0;
    for (const PlanStep& u : units)
        if (u.kind == StepKind::FusedElementwise) {
            ++chains;
            EXPECT_GE(u.nodes.size(), 2u);
            EXPECT_LE(u.nodes.size(), 10u);
        }
    EXPECT_GT(chains, 0);
}

TEST(Scheduler, StreamSpaceStructure)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;  // force several super-epochs
    const Scheduler sched(m.graph(), space, opts);
    const ScheduleConfig cfg = default_config(space, 2);
    const auto units = sched.build_units(cfg);
    const StreamSpace ss = sched.stream_space(cfg);
    EXPECT_GT(ss.num_super_epochs, 1);
    std::set<size_t> seen;
    for (const EpochInfo& e : ss.epochs) {
        EXPECT_FALSE(e.options.empty());
        // Every option assigns a stream in {0,1} to every unit.
        for (const auto& opt : e.options) {
            ASSERT_EQ(opt.size(), e.units.size());
            for (int s : opt)
                EXPECT_TRUE(s == 0 || s == 1);
        }
        // Default option (index 0) is the near-balanced split.
        for (size_t u : e.units) {
            EXPECT_FALSE(seen.count(u));
            seen.insert(u);
        }
        EXPECT_LE(e.options.size(), 24u);
    }
    EXPECT_EQ(seen.size(), units.size());
}

TEST(Scheduler, EpochUnitsAreMutuallyIndependent)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler sched(m.graph(), space);
    const ScheduleConfig cfg = default_config(space, 2);
    const auto units = sched.build_units(cfg);
    const StreamSpace ss = sched.stream_space(cfg);
    // Producer map.
    std::vector<int> producer(static_cast<size_t>(m.graph().size()), -1);
    for (size_t i = 0; i < units.size(); ++i)
        for (NodeId id : units[i].nodes)
            producer[static_cast<size_t>(id)] = static_cast<int>(i);
    for (const EpochInfo& e : ss.epochs) {
        std::set<size_t> in_epoch(e.units.begin(), e.units.end());
        for (size_t u : e.units)
            for (NodeId id : units[u].nodes)
                for (NodeId in : m.graph().node(id).inputs) {
                    const int p = producer[static_cast<size_t>(in)];
                    if (p >= 0 && static_cast<size_t>(p) != u) {
                        EXPECT_FALSE(in_epoch.count(
                            static_cast<size_t>(p)))
                            << "dependent units share an epoch";
                    }
                }
    }
}

TEST(Scheduler, StreamedPlanHasBarriersAndTwoStreams)
{
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;
    const Scheduler sched(m.graph(), space, opts);
    ScheduleConfig cfg = default_config(space, 2);
    cfg.use_streams = true;
    const ExecutionPlan plan = sched.build(cfg);
    EXPECT_EQ(plan.num_streams, 2);
    int barriers = 0;
    std::set<int> streams_used;
    for (const PlanStep& s : plan.steps) {
        if (s.kind == StepKind::Barrier)
            ++barriers;
        else
            streams_used.insert(s.stream);
    }
    EXPECT_GT(barriers, 0);
    EXPECT_EQ(streams_used.size(), 2u);
}

/**
 * The central invariant: EVERY configuration the scheduler can produce
 * computes exactly the same values as the native dispatch.
 */
class SchedulerValuePreservation
    : public ::testing::TestWithParam<std::tuple<int, bool, int>>
{};

TEST_P(SchedulerValuePreservation, MatchesNative)
{
    const auto [chunk_opt, streams, strategy] = GetParam();
    const BuiltModel m = small_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    if (strategy >= static_cast<int>(space.strategies.size()))
        GTEST_SKIP() << "fewer strategies in this space";
    SchedulerOptions opts;
    opts.super_epoch_ns = 150000.0;
    const Scheduler sched(m.graph(), space, opts);

    // Reference: native single-stream execution.
    Runner native(m.graph());
    Rng rng(1234);
    bind_all(m.graph(), native.tmap(), rng);
    native.run_native();

    // Candidate: scheduled under the parameterized configuration, on
    // the strategy's own memory layout.
    ScheduleConfig cfg = default_config(space, chunk_opt);
    cfg.strategy = strategy;
    cfg.use_streams = streams;
    // Vary kernel libraries too: they must not change values.
    for (size_t g = 0; g < cfg.group_lib.size(); ++g)
        cfg.group_lib[g] = static_cast<GemmLib>(g % kNumGemmLibs);
    Runner cand(m.graph(),
                space.strategies[static_cast<size_t>(strategy)].runs);
    Rng rng2(1234);
    bind_all(m.graph(), cand.tmap(), rng2);
    cand.run(sched.build(cfg));

    for (NodeId out : m.graph().outputs()) {
        EXPECT_EQ(testutil::max_abs_diff(native.values(out),
                                         cand.values(out)), 0.0)
            << "output %" << out << " diverged";
    }
    EXPECT_EQ(native.scalar(m.loss), cand.scalar(m.loss));
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, SchedulerValuePreservation,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Bool(),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace astra
