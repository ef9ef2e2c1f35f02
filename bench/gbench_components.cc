/**
 * @file
 * Google-benchmark microbenchmarks of the infrastructure itself: how
 * fast the simulator, enumerator, scheduler and wired bind/replay run
 * on the host. These
 * bound the real-world cost of Astra's online exploration machinery
 * (the compiler/runtime overhead, not the simulated GPU time).
 */
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/common.h"
#include "core/scheduler.h"
#include "runtime/dispatcher.h"
#include "runtime/native.h"
#include "runtime/wired.h"

using namespace astra;
using namespace astra::bench;

namespace {

const BuiltModel&
model()
{
    static BuiltModel m = build_model(
        ModelKind::SubLstm, paper_config(ModelKind::SubLstm, 16));
    return m;
}

void
BM_SimulateNativeMinibatch(benchmark::State& state)
{
    const BuiltModel& m = model();
    SimMemory mem(graph_tensor_bytes(m.graph()) + (1 << 20));
    TensorMap tmap(m.graph(), mem);
    GpuConfig cfg;
    cfg.execute_kernels = false;
    const ExecutionPlan plan = native_plan(m.graph());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            dispatch_plan(plan, m.graph(), tmap, cfg).total_ns);
}
BENCHMARK(BM_SimulateNativeMinibatch)->Unit(benchmark::kMillisecond);

/**
 * GNMT at the repo benchmark's zoo shape (batch 16, seq 8, hidden =
 * embed 128, vocab 1000): the largest paper model, 1,238 fusion groups.
 */
const BuiltModel&
gnmt_model()
{
    static BuiltModel m = build_model(
        ModelKind::Gnmt, {.batch = 16, .seq_len = 8, .hidden = 128,
                          .embed_dim = 128, .vocab = 1000});
    return m;
}

/**
 * The repo benchmark's largest serving bucket (subLSTM, batch 8, seq 32,
 * hidden = embed 64, vocab 1000): the fleet's largest enumeration.
 */
const BuiltModel&
bucket32_model()
{
    static BuiltModel m = build_model(
        ModelKind::SubLstm, {.batch = 8, .seq_len = 32, .hidden = 64,
                             .embed_dim = 64, .vocab = 1000});
    return m;
}

void
BM_EnumerateSearchSpace(benchmark::State& state,
                        const BuiltModel& (*which)())
{
    const BuiltModel& m = which();
    for (auto _ : state) {
        const SearchSpace space = enumerate_search_space(m.graph());
        benchmark::DoNotOptimize(space.groups.size());
    }
}
BENCHMARK_CAPTURE(BM_EnumerateSearchSpace, sublstm, &model)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EnumerateSearchSpace, gnmt, &gnmt_model)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EnumerateSearchSpace, bucket32, &bucket32_model)
    ->Unit(benchmark::kMillisecond);

/**
 * Every group at its `option`-th chunk choice (clamped to its largest),
 * cuBLAS everywhere, one stream.
 */
ScheduleConfig
chunk_config(const SearchSpace& space, size_t option)
{
    ScheduleConfig cfg;
    cfg.group_chunk.assign(space.groups.size(), 1);
    cfg.group_lib.assign(space.groups.size(), GemmLib::Cublas);
    for (const FusionGroup& g : space.groups)
        cfg.group_chunk[static_cast<size_t>(g.id)] =
            g.chunk_options[std::min(option, g.chunk_options.size() - 1)];
    return cfg;
}

/** Every group at its largest chunk, cuBLAS everywhere, one stream. */
ScheduleConfig
max_chunk_config(const SearchSpace& space)
{
    return chunk_config(space, static_cast<size_t>(kMaxChunkOptions) - 1);
}

/**
 * A max-chunk, two-stream plan of subLSTM. `cold` builds it on a fresh
 * Scheduler each iteration: units, stream space and the epoch walk.
 * `warm` is a stage-C trial: one scheduler, one binding, the epoch
 * choice varied each iteration, so only the walk over the cached plan
 * skeleton is paid.
 */
void
BM_BuildStreamedPlan(benchmark::State& state, bool warm)
{
    const BuiltModel& m = model();
    static const SearchSpace space = enumerate_search_space(m.graph());
    ScheduleConfig cfg = max_chunk_config(space);
    cfg.use_streams = true;
    if (!warm) {
        for (auto _ : state) {
            const Scheduler scheduler(m.graph(), space);
            const ExecutionPlan plan = scheduler.build(cfg);
            benchmark::DoNotOptimize(plan.steps.size());
        }
        return;
    }
    const Scheduler scheduler(m.graph(), space);
    const StreamSpace ss = scheduler.stream_space(cfg);
    int choice = 0;
    for (auto _ : state) {
        for (const EpochInfo& e : ss.epochs)
            cfg.epoch_choice[{e.super_epoch, e.level}] =
                choice % static_cast<int>(e.options.size());
        ++choice;
        const ExecutionPlan plan = scheduler.build(cfg);
        benchmark::DoNotOptimize(plan.steps.size());
    }
}
BENCHMARK_CAPTURE(BM_BuildStreamedPlan, cold, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildStreamedPlan, warm, true)
    ->Unit(benchmark::kMillisecond);

/**
 * Cycle-repaired units of the largest serving bucket (bucket32_model)
 * at max chunks: the Scheduler::build_units call a fleet set-up pays
 * once per bucket binding.
 */
void
BM_BuildUnits(benchmark::State& state)
{
    const BuiltModel& m = bucket32_model();
    static const SearchSpace space = enumerate_search_space(m.graph());
    const Scheduler scheduler(m.graph(), space);
    const ScheduleConfig cfg = max_chunk_config(space);
    for (auto _ : state)
        benchmark::DoNotOptimize(scheduler.build_units(cfg).size());
}
BENCHMARK(BM_BuildUnits)->Unit(benchmark::kMicrosecond);

/**
 * GNMT's max-chunk, two-stream plan (BM_BuildStreamedPlan's recipe) at
 * the zoo shape, with a timing-only device and strategy 0's tensor map.
 */
struct GnmtStreamedRig
{
    const BuiltModel& m = gnmt_model();
    const SearchSpace space = enumerate_search_space(m.graph());
    SimMemory mem{graph_tensor_bytes(m.graph()) + (1 << 20), false};
    TensorMap tmap{m.graph(), mem, space.strategies[0].runs};
    GpuConfig gpu = [] {
        GpuConfig g;
        g.execute_kernels = false;
        return g;
    }();
    ExecutionPlan plan = [this] {
        ScheduleConfig cfg = max_chunk_config(space);
        cfg.use_streams = true;
        return Scheduler(m.graph(), space).build(cfg);
    }();
};

const GnmtStreamedRig&
gnmt_streamed()
{
    static const GnmtStreamedRig rig;
    return rig;
}

/** One bind of the GNMT plan: compile_plan plus every descriptor. */
void
BM_BindPlan(benchmark::State& state)
{
    const GnmtStreamedRig& rig = gnmt_streamed();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            bind_plan(rig.plan, rig.m.graph(), rig.tmap, rig.gpu,
                      /*profiling=*/true)
                .kernels.size());
}
BENCHMARK(BM_BindPlan)->Unit(benchmark::kMicrosecond);

/**
 * A stage-C trial of the same binding, bound by reference
 * (Scheduler::bind): each iteration changes every epoch's split and
 * compiles only the command stream over the kept skeleton, launching
 * the descriptors the first iteration built.
 */
void
BM_BindTrial(benchmark::State& state)
{
    const GnmtStreamedRig& rig = gnmt_streamed();
    const Scheduler scheduler(rig.m.graph(), rig.space);
    ScheduleConfig cfg = max_chunk_config(rig.space);
    cfg.use_streams = true;
    const StreamSpace ss = scheduler.stream_space(cfg);
    int choice = 0;
    for (auto _ : state) {
        for (const EpochInfo& e : ss.epochs)
            cfg.epoch_choice[{e.super_epoch, e.level}] =
                choice % static_cast<int>(e.options.size());
        ++choice;
        benchmark::DoNotOptimize(
            scheduler.bind(cfg, rig.tmap, rig.gpu).kernels.size());
    }
}
BENCHMARK(BM_BindTrial)->Unit(benchmark::kMicrosecond);

/**
 * Stage A of the largest serving bucket (bucket32_model) on one
 * scheduler: each iteration binds its four chunk shapes (every group at
 * its option 0, 1, 2, 3), so each skeleton replaces one of another
 * shape and inherits its equal units' descriptors and, when they cover
 * the same ladder Adds, its chains.
 */
void
BM_StageATrials(benchmark::State& state)
{
    const BuiltModel& m = bucket32_model();
    static const SearchSpace space = enumerate_search_space(m.graph());
    SimMemory mem(graph_tensor_bytes(m.graph()) + (1 << 20), false);
    const TensorMap tmap(m.graph(), mem, space.strategies[0].runs);
    GpuConfig gpu;
    gpu.execute_kernels = false;
    const Scheduler scheduler(m.graph(), space);
    std::vector<ScheduleConfig> shapes;
    for (size_t option = 0; option < static_cast<size_t>(kMaxChunkOptions);
         ++option)
        shapes.push_back(chunk_config(space, option));
    for (auto _ : state)
        for (const ScheduleConfig& cfg : shapes)
            benchmark::DoNotOptimize(
                scheduler.bind(cfg, tmap, gpu).kernels.size());
}
BENCHMARK(BM_StageATrials)->Unit(benchmark::kMicrosecond);

/** One replay of the lowered GNMT plan: the walk plus the simulation. */
void
BM_ReplayWired(benchmark::State& state)
{
    const GnmtStreamedRig& rig = gnmt_streamed();
    static const WiredBinary bin =
        lower_plan(rig.plan, rig.m.graph(), rig.tmap, rig.gpu);
    for (auto _ : state)
        benchmark::DoNotOptimize(replay_wired(bin, rig.gpu).total_ns);
}
BENCHMARK(BM_ReplayWired)->Unit(benchmark::kMicrosecond);

void
BM_DependencyOracle(benchmark::State& state)
{
    const BuiltModel& m = model();
    const std::vector<Node>& nodes = m.graph().nodes();
    const NodeId first_mm =
        std::find_if(nodes.begin(), nodes.end(), [](const Node& n) {
            return n.is_matmul();
        })->id;
    for (auto _ : state) {
        const DependencyOracle oracle(m.graph());
        benchmark::DoNotOptimize(
            oracle.depends_on(m.graph().size() - 1, first_mm));
    }
}
BENCHMARK(BM_DependencyOracle)->Unit(benchmark::kMillisecond);

}  // namespace

int
main(int argc, char** argv)
{
    // --trace-out / ASTRA_TRACE capture the whole benchmark run on the
    // observability timeline; with neither, tracing compiles down to a
    // relaxed atomic load per probe (which is what these benches must
    // show: no regression vs the untraced seed).
    bench::init_observability(&argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
