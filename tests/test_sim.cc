/**
 * @file
 * Tests for the discrete-event GPU simulator: stream FIFO semantics,
 * event record/wait, launch overhead, SM-pool sharing across streams,
 * occupancy caps, determinism, autoboost-induced variance (§7),
 * profiling-event cost, by-reference launches matching by-value
 * ones, and simulated HBM (allocation, faults, host backing on first
 * use).
 */
#include <gtest/gtest.h>

#include "sim/gpu.h"

#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "kernels/cost.h"
#include "obs/export.h"
#include "sim/memory.h"
#include "sim/multi.h"
#include "support/stats.h"
#include "tests/util.h"

namespace astra {
namespace {

KernelDesc
kernel(const std::string& name, int64_t blocks, double block_ns,
       double setup_ns = 0.0, int max_sms = 0)
{
    KernelDesc k;
    k.name = name;
    k.blocks = blocks;
    k.block_ns = block_ns;
    k.setup_ns = setup_ns;
    k.max_sms = max_sms;
    return k;
}

GpuConfig
quiet_config()
{
    GpuConfig cfg;
    cfg.execute_kernels = false;
    // These tests assert exact simulator arithmetic, which only holds
    // at base clock — pin it even under the CI noise job
    // (ASTRA_SIM_AUTOBOOST). Jitter behaviour has its own test below.
    cfg.autoboost = false;
    return cfg;
}

TEST(SimGpu, SingleKernelTiming)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    // 10 blocks fit the 56-SM pool: one wave. The device waits for
    // the host's enqueue, then pays setup + one wave.
    gpu.launch(0, kernel("k", 10, 1000.0, 500.0));
    gpu.synchronize();
    EXPECT_DOUBLE_EQ(gpu.now_ns(),
                     cfg.launch_overhead_ns + 500.0 + 1000.0);
}

TEST(SimGpu, BlocksBeyondSmPoolTakeLonger)
{
    GpuConfig cfg = quiet_config();
    SimGpu a(cfg), b(cfg);
    a.launch(0, kernel("small", 56, 1000.0));
    a.synchronize();
    b.launch(0, kernel("big", 112, 1000.0));
    b.synchronize();
    EXPECT_NEAR(b.now_ns() - a.now_ns(), 1000.0, 1e-6);  // second wave
}

TEST(SimGpu, TinyKernelsAreLaunchBound)
{
    // Kernels far shorter than the enqueue cost: the device starves on
    // the host and the makespan is dominated by launch overhead.
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    for (int i = 0; i < 4; ++i)
        gpu.launch(0, kernel("k", 1, 100.0));
    gpu.synchronize();
    EXPECT_DOUBLE_EQ(gpu.now_ns(), 4 * cfg.launch_overhead_ns + 100.0);
}

TEST(SimGpu, LaunchOverheadHidesUnderLongKernels)
{
    // Kernels much longer than the enqueue cost: the host pipeline
    // runs ahead and only the first launch's overhead is exposed.
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    for (int i = 0; i < 4; ++i)
        gpu.launch(0, kernel("k", 10, 50000.0));
    gpu.synchronize();
    EXPECT_DOUBLE_EQ(gpu.now_ns(), cfg.launch_overhead_ns + 4 * 50000.0);
}

TEST(SimGpu, TwoStreamsOverlapIndependentKernels)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    const StreamId s1 = gpu.create_stream();
    // Each kernel uses 20 of 56 SMs: they fit side by side. The
    // second launch's enqueue trails the first by one overhead.
    gpu.launch(0, kernel("a", 20, 10000.0));
    gpu.launch(s1, kernel("b", 20, 10000.0));
    gpu.synchronize();
    EXPECT_DOUBLE_EQ(gpu.now_ns(), 2 * cfg.launch_overhead_ns + 10000.0);
}

TEST(SimGpu, SmContentionSlowsConcurrentKernels)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    const StreamId s1 = gpu.create_stream();
    // Two 56-block kernels share the pool; with contention the pair
    // takes clearly longer than one alone, but far less than serial.
    gpu.launch(0, kernel("a", 56, 50000.0));
    gpu.launch(s1, kernel("b", 56, 50000.0));
    gpu.synchronize();
    const double together = gpu.now_ns();
    SimGpu solo(cfg);
    solo.launch(0, kernel("a", 56, 50000.0));
    solo.synchronize();
    const double alone = solo.now_ns();
    EXPECT_GT(together, 1.5 * alone);
    EXPECT_LT(together, 2.2 * alone);
}

TEST(SimGpu, OccupancyCapLimitsSingleKernel)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    // 56 blocks but capped at 28 SMs: two waves.
    gpu.launch(0, kernel("capped", 56, 1000.0, 0.0, 28));
    gpu.synchronize();
    EXPECT_NEAR(gpu.now_ns(), cfg.launch_overhead_ns + 2000.0, 1.0);
}

TEST(SimGpu, EventElapsedMeasuresKernel)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    const EventId start = gpu.create_event();
    const EventId end = gpu.create_event();
    gpu.record_event(0, start);
    gpu.launch(0, kernel("k", 10, 2000.0));
    gpu.record_event(0, end);
    gpu.synchronize();
    EXPECT_TRUE(gpu.event_recorded(start));
    // Elapsed covers the enqueue stall + compute + one record cost.
    EXPECT_NEAR(gpu.elapsed_ns(start, end),
                cfg.launch_overhead_ns + 2000.0,
                2 * cfg.event_record_ns);
}

TEST(SimGpu, EventEnqueueCostIsCharged)
{
    // Event commands share the host enqueue pipeline: profiling is
    // cheap but not free (§5.1). Four back-to-back records starve the
    // device on the host, exactly like tiny kernels do on launches.
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    for (int i = 0; i < 4; ++i)
        gpu.record_event(0, gpu.create_event());
    gpu.synchronize();
    EXPECT_DOUBLE_EQ(gpu.now_ns(),
                     4 * cfg.event_enqueue_ns + cfg.event_record_ns);
}

TEST(SimGpu, WaitEventOrdersAcrossStreams)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    const StreamId s1 = gpu.create_stream();
    const EventId done = gpu.create_event();
    const EventId b_end = gpu.create_event();
    gpu.launch(0, kernel("producer", 10, 5000.0));
    gpu.record_event(0, done);
    gpu.wait_event(s1, done);
    gpu.launch(s1, kernel("consumer", 10, 1000.0));
    gpu.record_event(s1, b_end);
    gpu.synchronize();
    // Consumer could not start before the producer's event.
    EXPECT_GE(gpu.event_time_ns(b_end),
              gpu.event_time_ns(done) + 1000.0);
}

TEST(SimGpu, ComputeCallbackRunsAtKernelStart)
{
    GpuConfig cfg = quiet_config();
    cfg.execute_kernels = true;
    SimGpu gpu(cfg);
    std::vector<int> order;
    KernelDesc a = kernel("a", 10, 1000.0);
    a.compute = [&] { order.push_back(1); };
    KernelDesc b = kernel("b", 10, 1000.0);
    b.compute = [&] { order.push_back(2); };
    gpu.launch(0, std::move(a));
    gpu.launch(0, std::move(b));
    gpu.synchronize();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

TEST(SimGpu, TimingOnlyModeSkipsCompute)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    bool ran = false;
    KernelDesc k = kernel("k", 1, 100.0);
    k.compute = [&] { ran = true; };
    gpu.launch(0, std::move(k));
    gpu.synchronize();
    EXPECT_FALSE(ran);
}

TEST(SimGpu, DeterministicAcrossRuns)
{
    auto run = [] {
        GpuConfig cfg = quiet_config();
        SimGpu gpu(cfg);
        const StreamId s1 = gpu.create_stream();
        for (int i = 0; i < 20; ++i) {
            gpu.launch(i % 2 ? s1 : 0,
                       kernel("k", 10 + i, 500.0 + i * 10));
        }
        gpu.synchronize();
        return gpu.now_ns();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(SimGpu, AutoboostBreaksRepeatability)
{
    // Paper §7: boost makes identical kernels measure differently;
    // base clock is required for Astra's predictability assumption.
    GpuConfig cfg = quiet_config();
    cfg.autoboost = true;
    SimGpu gpu(cfg);
    RunningStats stats;
    for (int i = 0; i < 32; ++i) {
        const EventId s = gpu.create_event();
        const EventId e = gpu.create_event();
        gpu.record_event(0, s);
        gpu.launch(0, kernel("same", 10, 10000.0));
        gpu.record_event(0, e);
        gpu.synchronize();
        stats.add(gpu.elapsed_ns(s, e));
    }
    EXPECT_GT(stats.cov(), 0.01);  // visible variance

    GpuConfig base = quiet_config();
    SimGpu gpu2(base);
    RunningStats stable;
    // Skip the first measurement: it alone includes the initial host
    // enqueue stall (a warm-up artifact, not clock jitter).
    for (int i = -1; i < 8; ++i) {
        const EventId s = gpu2.create_event();
        const EventId e = gpu2.create_event();
        gpu2.record_event(0, s);
        gpu2.launch(0, kernel("same", 10, 10000.0));
        gpu2.record_event(0, e);
        gpu2.synchronize();
        if (i >= 0)
            stable.add(gpu2.elapsed_ns(s, e));
    }
    EXPECT_LT(stable.cov(), 1e-9);  // perfectly repeatable
}

TEST(SimGpu, ClockQueryNormalizesJitter)
{
    // The boost clock is sampled once per launch sequence, held until
    // the drain, and queryable afterwards (the NVML analog). Because
    // every time constant rides the same clock, multiplying a measured
    // span by the queried multiplier recovers the base-clock span to
    // FP rounding — the mechanism AstraOptions::normalize_clock relies
    // on.
    auto measure = [](SimGpu& gpu) {
        const EventId s = gpu.create_event();
        const EventId e = gpu.create_event();
        gpu.record_event(0, s);
        gpu.launch(0, kernel("same", 10, 10000.0, 700.0));
        gpu.record_event(0, e);
        gpu.synchronize();
        return gpu.elapsed_ns(s, e);
    };
    GpuConfig base_cfg = quiet_config();
    SimGpu base_gpu(base_cfg);
    measure(base_gpu);  // discard the enqueue-stall warm-up
    const double base = measure(base_gpu);

    GpuConfig cfg = quiet_config();
    cfg.autoboost = true;
    SimGpu gpu(cfg);
    EXPECT_DOUBLE_EQ(gpu.clock_multiplier(), 1.0);  // nothing enqueued
    measure(gpu);
    bool boosted = false;
    for (int i = 0; i < 8; ++i) {
        const double span = measure(gpu);
        const double m = gpu.clock_multiplier();
        EXPECT_GE(m, 1.0);
        EXPECT_LE(m, 1.0 + kAutoboostAmplitude);
        boosted = boosted || m > 1.0;
        EXPECT_NEAR(span * m, base, 1e-9 * base);
    }
    EXPECT_TRUE(boosted);  // amplitude 0.12: 8 draws of 1.0 impossible
}

TEST(SimGpu, ForcedClockMultiplierOverridesDvfs)
{
    // The parallel wirer pre-draws a multiplier per dispatch and
    // forces it onto the device; the device must hold exactly that
    // clock for the launch sequence, even with autoboost on.
    auto measure = [](SimGpu& gpu) {
        const EventId s = gpu.create_event();
        const EventId e = gpu.create_event();
        gpu.record_event(0, s);
        gpu.launch(0, kernel("same", 10, 10000.0, 700.0));
        gpu.record_event(0, e);
        gpu.synchronize();
        return gpu.elapsed_ns(s, e);
    };
    GpuConfig base_cfg = quiet_config();
    SimGpu base_gpu(base_cfg);
    measure(base_gpu);  // discard the enqueue-stall warm-up
    const double base = measure(base_gpu);

    GpuConfig cfg = quiet_config();
    cfg.autoboost = true;
    cfg.forced_clock_multiplier = 1.07;
    SimGpu gpu(cfg);
    measure(gpu);
    for (int i = 0; i < 4; ++i) {
        const double span = measure(gpu);
        EXPECT_DOUBLE_EQ(gpu.clock_multiplier(), 1.07);
        EXPECT_NEAR(span * 1.07, base, 1e-9 * base);
    }
}

TEST(ClockDomain, DrawSequenceIsSeededAndSalted)
{
    GpuConfig cfg = quiet_config();
    cfg.autoboost = true;
    ClockDomain a(cfg, 3);
    ClockDomain b(cfg, 3);
    ClockDomain other(cfg, 4);
    bool salt_differs = false;
    for (int i = 0; i < 32; ++i) {
        const double m = a.draw();
        EXPECT_DOUBLE_EQ(m, b.draw());  // same (seed, salt): same run
        EXPECT_GE(m, 1.0);
        EXPECT_LE(m, 1.0 + kAutoboostAmplitude);
        salt_differs = salt_differs || m != other.draw();
    }
    EXPECT_TRUE(salt_differs);  // distinct strands see distinct jitter
}

TEST(ClockDomain, DrawsZeroWhenAutoboostOff)
{
    GpuConfig cfg = quiet_config();
    cfg.autoboost = false;
    ClockDomain domain(cfg, 1);
    for (int i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(domain.draw(), 0.0);  // "do not force"
}

TEST(SimGpu, StatsCounters)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    const EventId e = gpu.create_event();
    gpu.launch(0, kernel("k", 56, 1000.0));
    gpu.record_event(0, e);
    gpu.synchronize();
    EXPECT_EQ(gpu.stats().kernels_launched, 1);
    EXPECT_EQ(gpu.stats().events_recorded, 1);
    EXPECT_NEAR(gpu.stats().busy_sm_ns, 56.0 * 1000.0, 1.0);
    EXPECT_GT(gpu.utilization(), 0.0);
    EXPECT_LE(gpu.utilization(), 1.0);
}

TEST(SimGpu, DeadlockPanics)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    const EventId never = gpu.create_event();
    gpu.wait_event(0, never);
    gpu.launch(0, kernel("stuck", 1, 100.0));
    EXPECT_DEATH(gpu.synchronize(), "deadlock");
}

TEST(SimGpu, TraceCollection)
{
    GpuConfig cfg = quiet_config();
    cfg.collect_trace = true;
    SimGpu gpu(cfg);
    const StreamId s1 = gpu.create_stream();
    gpu.launch(0, kernel("alpha", 10, 1000.0));
    gpu.launch(s1, kernel("beta", 10, 1000.0));
    gpu.synchronize();
    ASSERT_EQ(gpu.trace().size(), 2u);
    const TraceSpan& a = gpu.trace()[0];
    EXPECT_EQ(a.name, "alpha");
    EXPECT_EQ(a.stream, 0);
    EXPECT_LT(a.start_ns, a.end_ns);
    EXPECT_EQ(gpu.trace()[1].stream, 1);
}

TEST(SimGpu, TraceOffByDefault)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    gpu.launch(0, kernel("k", 1, 100.0));
    gpu.synchronize();
    EXPECT_TRUE(gpu.trace().empty());
}

TEST(Trace, ChromeJsonFormat)
{
    std::vector<TraceSpan> spans = {
        {"mm.\"x\"", 0, 1000.0, 3000.0, ProfileKey(0, 5, 1)},
        {"few", 1, 2000.0, 2500.0, {}},
    };
    std::ostringstream os;
    write_chrome_trace(os, spans);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":2"), std::string::npos);  // us
    // The quote in the kernel name must be escaped.
    EXPECT_NE(json.find("mm.\\\""), std::string::npos);
    // Profile keys render as their fields; an unkeyed span as "".
    EXPECT_NE(json.find("\"key\":\"c0/v5=1\""), std::string::npos);
    EXPECT_NE(json.find("\"key\":\"\""), std::string::npos);
}

TEST(SimGpu, RunUntilPausesAtHorizonAndResumes)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    gpu.launch(0, kernel("k", 10, 1000.0, 500.0));
    const double total = cfg.launch_overhead_ns + 500.0 + 1000.0;
    // Stop mid-kernel: the device reports Paused and where its next
    // event lies; resuming to infinity must land exactly where an
    // uninterrupted synchronize() would (linear partial advance).
    EXPECT_EQ(gpu.run_until(total / 2), SimGpu::RunState::Paused);
    EXPECT_DOUBLE_EQ(gpu.now_ns(), total / 2);
    EXPECT_GT(gpu.next_event_ns(), total / 2);
    EXPECT_EQ(gpu.run_until(1e18), SimGpu::RunState::Drained);
    EXPECT_DOUBLE_EQ(gpu.now_ns(), total);
}

TEST(SimGpu, RunUntilReportsBlockedOnForeignEvent)
{
    GpuConfig cfg = quiet_config();
    SimGpu gpu(cfg);
    const EventId foreign = gpu.create_event();
    gpu.wait_event(0, foreign);
    gpu.launch(0, kernel("gated", 10, 1000.0));
    EXPECT_EQ(gpu.run_until(1e18), SimGpu::RunState::Blocked);
    // An external record (a cross-device signal) unblocks it; the
    // timestamp may lie in the device's future and the stream stalls
    // until the clock reaches it.
    const double t = gpu.now_ns() + 40000.0;
    gpu.record_external(foreign, t);
    EXPECT_EQ(gpu.run_until(1e18), SimGpu::RunState::Drained);
    EXPECT_GE(gpu.now_ns(), t + 1000.0);
}

TEST(MultiSim, MirroredEventOrdersAcrossDevices)
{
    GpuConfig cfg = quiet_config();
    MultiSim multi(2, cfg);
    // Device 0 runs a long producer; device 1's consumer is gated on
    // the mirrored completion event.
    const EventId produced = multi.device(0).create_event();
    const EventId arrived = multi.device(1).create_event();
    const EventId consumed = multi.device(1).create_event();
    multi.mirror(0, produced, 1, arrived);
    multi.device(0).launch(0, kernel("producer", 10, 50000.0));
    multi.device(0).record_event(0, produced);
    multi.device(1).wait_event(0, arrived);
    multi.device(1).launch(0, kernel("consumer", 10, 1000.0));
    multi.device(1).record_event(0, consumed);
    multi.run();
    EXPECT_GE(multi.device(1).event_time_ns(consumed),
              multi.device(0).event_time_ns(produced) + 1000.0);
    EXPECT_DOUBLE_EQ(multi.now_ns(),
                     std::max(multi.device(0).now_ns(),
                              multi.device(1).now_ns()));
}

TEST(MultiSim, SymmetricExchangeRunsConcurrently)
{
    // Two devices compute, signal each other, then each runs a second
    // kernel gated on the peer — the allreduce hop pattern. Cross
    // traffic must overlap: the makespan is two kernels, not four.
    GpuConfig cfg = quiet_config();
    MultiSim multi(2, cfg);
    EventId sent[2];
    EventId got[2];
    for (int d = 0; d < 2; ++d) {
        sent[d] = multi.device(d).create_event();
        got[d] = multi.device(d).create_event();
    }
    multi.mirror(0, sent[0], 1, got[1]);
    multi.mirror(1, sent[1], 0, got[0]);
    for (int d = 0; d < 2; ++d) {
        SimGpu& gpu = multi.device(d);
        gpu.launch(0, kernel("phase1", 10, 30000.0));
        gpu.record_event(0, sent[d]);
        gpu.wait_event(0, got[d]);
        gpu.launch(0, kernel("phase2", 10, 30000.0));
    }
    multi.run();
    // phase1 starts after its enqueue, records (one event_record_ns),
    // the mirrored signals land at the same instant on both devices,
    // and phase2 runs immediately — one exposed launch overhead total.
    const double expected =
        cfg.launch_overhead_ns + 2 * 30000.0 + cfg.event_record_ns;
    EXPECT_NEAR(multi.now_ns(), expected, 1.0);
}

TEST(MultiSim, CrossDeviceDeadlockPanics)
{
    GpuConfig cfg = quiet_config();
    MultiSim multi(2, cfg);
    // Both devices wait on events that are never recorded anywhere.
    for (int d = 0; d < 2; ++d) {
        const EventId never = multi.device(d).create_event();
        multi.device(d).wait_event(0, never);
        multi.device(d).launch(0, kernel("stuck", 1, 100.0));
    }
    EXPECT_DEATH(multi.run(), "deadlock");
}

TEST(MultiSim, LinkTransferAlgebra)
{
    // 4096 bytes = 32768 bits at 8 Gbit/s (8 bits per ns) -> 4096 ns,
    // plus 2000 ns latency, all setup on no SMs. Hand-computed to pin
    // the bits-vs-bytes unit of the ring's chunk transfers.
    const KernelCost c = comm_transfer_cost(4096.0, 8.0, 2.0);
    EXPECT_DOUBLE_EQ(c.setup_ns, 4096.0 + 2000.0);
    EXPECT_EQ(c.blocks, 0);
    EXPECT_DOUBLE_EQ(c.block_ns, 0.0);
}

TEST(SimMemory, BumpAllocationAndAdjacency)
{
    SimMemory mem(1 << 20);
    const DevPtr a = mem.allocate(100);
    const DevPtr b = mem.allocate(100, 1);  // packed right after
    EXPECT_TRUE(SimMemory::adjacent(a, 100, b));
    const DevPtr c = mem.allocate(100, 256);  // aligned: leaves a gap
    EXPECT_FALSE(SimMemory::adjacent(b, 100, c));
    EXPECT_GE(mem.used(), 300);
    mem.reset();
    EXPECT_EQ(mem.used(), 0);
}

TEST(SimMemory, HostBackingIsZeroed)
{
    SimMemory mem(4096);
    const DevPtr p = mem.allocate(64);
    const float* f = mem.f32(p);
    for (int i = 0; i < 16; ++i)
        EXPECT_FLOAT_EQ(f[i], 0.0f);
}

TEST(SimMemory, DeferredHostBackingKeepsWrittenValues)
{
    // A pool gets its host storage on the first f32/i32 call, once
    // (here uninitialized): every later view reads what earlier ones
    // wrote, whichever thread asks first.
    SimMemory mem(4096, /*zero=*/false);
    const DevPtr a = mem.allocate(64);
    const DevPtr b = mem.allocate(64);
    std::vector<const float*> seen(4, nullptr);
    std::vector<std::thread> readers;
    for (size_t t = 0; t < seen.size(); ++t)
        readers.emplace_back([&, t] {
            seen[t] = std::as_const(mem).f32(a);
        });
    for (std::thread& t : readers)
        t.join();
    float* f = mem.f32(a);
    for (const float* p : seen)
        EXPECT_EQ(p, f);
    for (int i = 0; i < 16; ++i)
        f[i] = 0.5f * static_cast<float>(i);
    mem.i32(b)[3] = 42;
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(std::as_const(mem).f32(a)[i],
                  0.5f * static_cast<float>(i));
    EXPECT_EQ(mem.i32(b)[3], 42);
    EXPECT_THROW(mem.f32(4096), MemoryError);
}

TEST(SimMemory, ExhaustionIsRecoverable)
{
    // Allocation failure must be a typed, catchable error — the OOM
    // degradation ladder (core/astra.h) depends on it — and the pool
    // must stay usable after the throw.
    SimMemory mem(1024);
    try {
        mem.allocate(4096);
        FAIL() << "allocation beyond capacity did not throw";
    } catch (const MemoryError& e) {
        EXPECT_EQ(e.kind(), MemoryError::Kind::Exhausted);
        EXPECT_EQ(e.requested(), 4096);
        EXPECT_EQ(e.capacity(), 1024);
    }
    EXPECT_NE(mem.allocate(512), kNullDev);  // still alive
}

TEST(SimMemory, BadPointerThrows)
{
    SimMemory mem(1024);
    EXPECT_THROW(mem.f32(4096), MemoryError);
    EXPECT_THROW(mem.f32(-1), MemoryError);
}

TEST(SimMemory, InjectedAllocFaultFiresOnce)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("alloc:at=0", &plan));
    SimMemory mem(1 << 20);
    mem.arm_faults(&plan, 7);
    try {
        mem.allocate(64);
        FAIL() << "one-shot alloc fault did not fire";
    } catch (const MemoryError& e) {
        EXPECT_EQ(e.kind(), MemoryError::Kind::Injected);
    }
    // The draw sequence advanced past the one-shot: the retry (what the
    // degradation ladder does after reset()) succeeds.
    mem.reset();
    EXPECT_NE(mem.allocate(64), kNullDev);
}

TEST(SimMemory, FragmentationHeadroomShrinksPool)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("alloc:p=0,x=2", &plan));
    SimMemory mem(1024);
    EXPECT_EQ(mem.effective_capacity(), 1024);
    mem.arm_faults(&plan, 1);
    EXPECT_EQ(mem.effective_capacity(), 512);
    EXPECT_THROW(mem.allocate(600), MemoryError);
    EXPECT_NE(mem.allocate(400), kNullDev);
}

TEST(FaultPlan, ParseAndRoundTrip)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=7;retries=3;backoff_us=10;kernel:p=0.5,name=gemm;"
        "straggler:p=0.1,x=4;alloc:at=2;comm:p=0.25,x=3",
        &plan));
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_EQ(plan.max_retries, 3);
    EXPECT_DOUBLE_EQ(plan.backoff_us, 10.0);
    ASSERT_EQ(plan.specs.size(), 4u);
    EXPECT_EQ(plan.specs[0].kind, FaultKind::Kernel);
    EXPECT_DOUBLE_EQ(plan.specs[0].p, 0.5);
    EXPECT_EQ(plan.specs[0].name, "gemm");
    EXPECT_EQ(plan.specs[1].kind, FaultKind::Straggler);
    EXPECT_DOUBLE_EQ(plan.specs[1].factor, 4.0);
    EXPECT_EQ(plan.specs[2].kind, FaultKind::Alloc);
    EXPECT_EQ(plan.specs[2].at, 2);
    EXPECT_TRUE(plan.has(FaultKind::Comm));
    EXPECT_FALSE(FaultPlan().has(FaultKind::Comm));

    // to_string() must reparse to the same plan.
    FaultPlan again;
    ASSERT_TRUE(FaultPlan::parse(plan.to_string(), &again));
    EXPECT_EQ(again.to_string(), plan.to_string());

    // ... on a host whose locale writes 0.5 as "0,5", too.
    const testutil::ScopedGlobalLocale guard(
        std::locale(std::locale::classic(), new testutil::CommaDecimal));
    FaultPlan local;
    ASSERT_TRUE(FaultPlan::parse(plan.to_string(), &local));
    EXPECT_EQ(local.to_string(), again.to_string());
}

TEST(FaultPlan, ParseRejectsMalformed)
{
    FaultPlan plan;
    plan.seed = 99;  // canary: a failed parse must leave *out untouched
    EXPECT_FALSE(FaultPlan::parse("kernel", &plan));        // no p / at
    EXPECT_FALSE(FaultPlan::parse("kernel:x=2", &plan));    // no p / at
    EXPECT_FALSE(FaultPlan::parse("bogus:p=1", &plan));     // unknown kind
    EXPECT_FALSE(FaultPlan::parse("kernel:p=2", &plan));    // p > 1
    EXPECT_FALSE(FaultPlan::parse("straggler:p=0.1,x=0.5", &plan));
    EXPECT_FALSE(FaultPlan::parse("retries=2000", &plan));  // over cap
    EXPECT_FALSE(FaultPlan::parse("comm:p=nope", &plan));
    // Numbers are finite, whole-token decimal or "0x" hex.
    EXPECT_FALSE(FaultPlan::parse("straggler:p=0.5,x=inf", &plan));
    EXPECT_FALSE(FaultPlan::parse("kernel:p=nan", &plan));
    EXPECT_FALSE(FaultPlan::parse("comm:p=0.5,x=1f", &plan));
    EXPECT_FALSE(FaultPlan::parse("comm:p=0.5,x=1.8p+3", &plan));
    EXPECT_FALSE(FaultPlan::parse("replica_death:r=0,at_ns=inf", &plan));
    EXPECT_FALSE(FaultPlan::parse("seed=+5", &plan));
    EXPECT_FALSE(FaultPlan::parse("seed= 5", &plan));
    EXPECT_EQ(plan.seed, 99u);
}

TEST(FaultPlan, DiagnosticsNameTheOffendingToken)
{
    // Every rejection names the 1-based ';'-separated clause and says
    // why — a chaos matrix with a typo'd spec should point at the
    // typo, not shrug.
    FaultPlan plan;
    std::string err;

    EXPECT_FALSE(FaultPlan::parse("seed=1;kernel:p=2", &plan, &err));
    EXPECT_EQ(err.rfind("token 2:", 0), 0u) << err;
    EXPECT_NE(err.find("p out of range"), std::string::npos) << err;

    EXPECT_FALSE(
        FaultPlan::parse("kernel:p=0.5,pp=0.5", &plan, &err));
    EXPECT_EQ(err.rfind("token 1:", 0), 0u) << err;
    EXPECT_NE(err.find("unknown key 'pp'"), std::string::npos) << err;

    // Duplicate keys are rejected, not last-writer-wins.
    EXPECT_FALSE(
        FaultPlan::parse("kernel:p=0.5,p=0.9", &plan, &err));
    EXPECT_NE(err.find("duplicate key 'p'"), std::string::npos) << err;
    EXPECT_FALSE(FaultPlan::parse("seed=1;seed=2", &plan, &err));
    EXPECT_EQ(err.rfind("token 2:", 0), 0u) << err;
    EXPECT_NE(err.find("duplicate key 'seed'"), std::string::npos)
        << err;

    // A clause that can never fire is a configuration bug, not a
    // silently-inert matrix entry.
    EXPECT_FALSE(FaultPlan::parse("kernel:name=gemm", &plan, &err));
    EXPECT_NE(err.find("never fires"), std::string::npos) << err;

    EXPECT_FALSE(FaultPlan::parse("retries=2000", &plan, &err));
    EXPECT_EQ(err.rfind("token 1:", 0), 0u) << err;
    EXPECT_NE(err.find("retries out of range"), std::string::npos)
        << err;

    // An infinite slowdown would stall the simulator: reject it here.
    EXPECT_FALSE(
        FaultPlan::parse("seed=3;straggler:p=0.5,x=inf", &plan, &err));
    EXPECT_EQ(err.rfind("token 2:", 0), 0u) << err;
    EXPECT_NE(err.find("x must be >= 1, got 'inf'"), std::string::npos)
        << err;
    EXPECT_FALSE(FaultPlan::parse("kernel:p=nan", &plan, &err));
    EXPECT_NE(err.find("p out of range"), std::string::npos) << err;

    EXPECT_EQ(plan.seed, 1u);  // default-constructed plan untouched
}

TEST(FaultPlan, ReplicaSpecsParseValidateAndRoundTrip)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse(
        "replica_death:r=1,at_ns=5e6;"
        "replica_flap:r=0,at_ns=1e6,down_ns=2e5,up_ns=8e5,count=3",
        &plan, &err))
        << err;
    ASSERT_EQ(plan.replica_faults.size(), 2u);
    EXPECT_FALSE(plan.replica_faults[0].flap);
    EXPECT_EQ(plan.replica_faults[0].replica, 1);
    EXPECT_DOUBLE_EQ(plan.replica_faults[0].at_ns, 5e6);
    EXPECT_TRUE(plan.replica_faults[1].flap);
    EXPECT_EQ(plan.replica_faults[1].count, 3);
    EXPECT_FALSE(plan.empty());

    // to_string() must reparse to the same schedule.
    FaultPlan again;
    ASSERT_TRUE(FaultPlan::parse(plan.to_string(), &again, &err))
        << err;
    EXPECT_EQ(again.to_string(), plan.to_string());

    // Structural validation: a death needs a time, a flap needs a
    // down duration, and a one-way "flap" must say count=1.
    EXPECT_FALSE(FaultPlan::parse("replica_death:r=1", &plan, &err));
    EXPECT_NE(err.find("needs r= and at_ns="), std::string::npos)
        << err;
    EXPECT_FALSE(FaultPlan::parse("replica_flap:r=0,at_ns=1e6",
                                  &plan, &err));
    EXPECT_NE(err.find("needs down_ns="), std::string::npos) << err;
    EXPECT_FALSE(FaultPlan::parse(
        "replica_flap:r=0,at_ns=1e6,down_ns=1e5,up_ns=0,count=4",
        &plan, &err));
    EXPECT_NE(err.find("never revives"), std::string::npos) << err;
    EXPECT_FALSE(FaultPlan::parse("replica_death:r=9999,at_ns=1",
                                  &plan, &err));
    EXPECT_NE(err.find("r out of range"), std::string::npos) << err;
}

TEST(ReplicaLiveness, DeathIsDownForever)
{
    FaultPlan plan;
    ASSERT_TRUE(
        FaultPlan::parse("replica_death:r=1,at_ns=100", &plan));
    EXPECT_TRUE(replica_alive(plan, 1, 0.0));
    EXPECT_TRUE(replica_alive(plan, 1, 99.9));
    EXPECT_FALSE(replica_alive(plan, 1, 100.0));
    EXPECT_FALSE(replica_alive(plan, 1, 1e18));
    // Other replicas are untouched.
    EXPECT_TRUE(replica_alive(plan, 0, 1e18));

    const auto edges = replica_transitions(plan, 1, 1e6);
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_DOUBLE_EQ(edges[0], 100.0);
    EXPECT_TRUE(replica_transitions(plan, 0, 1e6).empty());
}

TEST(ReplicaLiveness, FlapCyclesAndCountBound)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "replica_flap:r=0,at_ns=100,down_ns=10,up_ns=90,count=2",
        &plan));
    // Two cycles: down [100,110), up [110,200), down [200,210), then
    // alive forever.
    EXPECT_TRUE(replica_alive(plan, 0, 99.0));
    EXPECT_FALSE(replica_alive(plan, 0, 105.0));
    EXPECT_TRUE(replica_alive(plan, 0, 150.0));
    EXPECT_FALSE(replica_alive(plan, 0, 205.0));
    EXPECT_TRUE(replica_alive(plan, 0, 210.0));
    EXPECT_TRUE(replica_alive(plan, 0, 1e18));

    const auto edges = replica_transitions(plan, 0, 1e6);
    ASSERT_EQ(edges.size(), 4u);
    EXPECT_DOUBLE_EQ(edges[0], 100.0);
    EXPECT_DOUBLE_EQ(edges[1], 110.0);
    EXPECT_DOUBLE_EQ(edges[2], 200.0);
    EXPECT_DOUBLE_EQ(edges[3], 210.0);
}

TEST(ReplicaLiveness, OverlappingSpecsOrTheirDownIntervals)
{
    // A flap blip inside a death's shadow changes nothing; a blip
    // before it adds its own edges. Net liveness is the OR of all
    // down intervals, and transitions only report *net* flips.
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "replica_death:r=2,at_ns=500;"
        "replica_flap:r=2,at_ns=100,down_ns=50,up_ns=1000,count=1",
        &plan));
    EXPECT_TRUE(replica_alive(plan, 2, 50.0));
    EXPECT_FALSE(replica_alive(plan, 2, 120.0));  // blip
    EXPECT_TRUE(replica_alive(plan, 2, 200.0));   // revived
    EXPECT_FALSE(replica_alive(plan, 2, 600.0));  // dead for good

    const auto edges = replica_transitions(plan, 2, 1e6);
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_DOUBLE_EQ(edges[0], 100.0);
    EXPECT_DOUBLE_EQ(edges[1], 150.0);
    EXPECT_DOUBLE_EQ(edges[2], 500.0);
}

TEST(FaultInjector, DrawsAreSaltDeterministic)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("seed=3;kernel:p=0.3", &plan));
    FaultInjector a(&plan, 11);
    FaultInjector b(&plan, 11);
    FaultInjector other(&plan, 12);
    bool salt_differs = false;
    for (int i = 0; i < 64; ++i) {
        const bool fa = a.on_kernel("k").fail;
        EXPECT_EQ(fa, b.on_kernel("k").fail);  // pure function of salt
        salt_differs = salt_differs || fa != other.on_kernel("k").fail;
    }
    EXPECT_TRUE(salt_differs);
}

TEST(FaultInjector, OneShotFiresAtExactSequence)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("kernel:at=3", &plan));
    FaultInjector inj(&plan, 42);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(inj.on_kernel("k").fail, i == 3) << "draw " << i;
}

TEST(FaultInjector, NameFilterTargetsKernels)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("kernel:p=1,name=gemm", &plan));
    FaultInjector inj(&plan, 1);
    EXPECT_TRUE(inj.on_kernel("gemm.%3.cublas").fail);
    EXPECT_FALSE(inj.on_kernel("add.%4.cublas").fail);
}

TEST(SimGpu, KernelFaultSkipsComputeButKeepsTiming)
{
    // The sticky-error model: a faulted kernel completes timing-wise
    // (and records events) but its host compute callback is skipped, so
    // injection is invisible to profiling and only the replayed
    // mini-batch restores values.
    GpuConfig clean_cfg = quiet_config();
    clean_cfg.execute_kernels = true;
    SimGpu clean(clean_cfg);
    bool clean_ran = false;
    KernelDesc ck = kernel("k", 10, 1000.0, 500.0);
    ck.compute = [&] { clean_ran = true; };
    clean.launch(0, std::move(ck));
    clean.synchronize();
    ASSERT_TRUE(clean_ran);

    GpuConfig cfg = clean_cfg;
    ASSERT_TRUE(FaultPlan::parse("kernel:at=0", &cfg.faults));
    SimGpu gpu(cfg);
    bool ran = false;
    KernelDesc k = kernel("k", 10, 1000.0, 500.0);
    k.compute = [&] { ran = true; };
    gpu.launch(0, std::move(k));
    gpu.synchronize();
    EXPECT_FALSE(ran);
    EXPECT_EQ(gpu.stats().faults_injected, 1);
    EXPECT_DOUBLE_EQ(gpu.now_ns(), clean.now_ns());
}

TEST(SimGpu, StragglerSpikeScalesKernelTime)
{
    GpuConfig cfg = quiet_config();
    SimGpu clean(cfg);
    clean.launch(0, kernel("k", 10, 1000.0, 500.0));
    clean.synchronize();

    GpuConfig slow_cfg = quiet_config();
    ASSERT_TRUE(FaultPlan::parse("straggler:at=0,x=3", &slow_cfg.faults));
    SimGpu slow(slow_cfg);
    slow.launch(0, kernel("k", 10, 1000.0, 500.0));
    slow.synchronize();
    EXPECT_EQ(slow.stats().straggler_events, 1);
    // setup + block time tripled; launch overhead is host-side.
    EXPECT_DOUBLE_EQ(slow.now_ns() - cfg.launch_overhead_ns,
                     3.0 * (clean.now_ns() - cfg.launch_overhead_ns));
}

/** One command of a random program: launch, record or wait. */
struct SimOp
{
    enum Kind { Launch, Record, Wait } kind;
    StreamId stream;
    int arg;  ///< kernel index (Launch) or event index (Record / Wait)
};

/**
 * A seeded random program over 1-4 streams: launches of 8 kernels with
 * zero and nonzero blocks, records of fresh events, and waits on
 * events already recorded (so no program deadlocks).
 */
std::vector<SimOp>
random_program(Rng& rng, int num_streams, int* num_events)
{
    std::vector<SimOp> ops;
    *num_events = 0;
    for (int i = 0; i < 60; ++i) {
        const auto stream = static_cast<StreamId>(
            rng.next_below(static_cast<uint64_t>(num_streams)));
        const uint64_t r = rng.next_below(10);
        if (r < 6)
            ops.push_back({SimOp::Launch, stream,
                           static_cast<int>(rng.next_below(8))});
        else if (r < 8 || *num_events == 0)
            ops.push_back({SimOp::Record, stream, (*num_events)++});
        else
            ops.push_back({SimOp::Wait, stream,
                           static_cast<int>(rng.next_below(
                               static_cast<uint64_t>(*num_events)))});
    }
    return ops;
}

// Queued launches point at descriptors the device or its caller owns,
// so a copied device would share them.
static_assert(!std::is_copy_constructible_v<SimGpu> &&
              !std::is_copy_assignable_v<SimGpu>);

TEST(SimGpu, LaunchByReferenceMatchesByValue)
{
    // launch_ref skips the descriptor copy and nothing else: timing,
    // events, stats, compute order and trace match a by-value launch,
    // with straggler stretches and name-filtered kernel faults drawn.
    // Each device runs two programs, so the second one launches after
    // the by-value device freed its first batch of descriptors.
    GpuConfig cfg = quiet_config();
    cfg.execute_kernels = true;
    cfg.collect_trace = true;
    ASSERT_TRUE(FaultPlan::parse("straggler:p=0.3,x=2.5;kernel:p=0.05,name=k1",
                                 &cfg.faults));
    int64_t stragglers = 0, faults = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const int num_streams = 1 + static_cast<int>(rng.next_below(4));
        cfg.fault_salt = seed;
        std::vector<int> value_log, ref_log;
        std::vector<KernelDesc> value_kernels, ref_kernels;
        std::vector<ProfileKey> keys;
        for (int k = 0; k < 8; ++k) {
            KernelDesc d = kernel(
                "k" + std::to_string(k),
                static_cast<int64_t>(rng.next_below(3)) * 20,
                100.0 + 5000.0 * rng.next_double(),
                2000.0 * rng.next_double(),
                static_cast<int>(rng.next_below(40)));
            keys.push_back(k % 2 ? ProfileKey(0, k, 0) : ProfileKey());
            value_kernels.push_back(d);
            value_kernels.back().compute = [&value_log, k] {
                value_log.push_back(k);
            };
            ref_kernels.push_back(d);
            ref_kernels.back().compute = [&ref_log, k] {
                ref_log.push_back(k);
            };
        }
        SimGpu by_value(cfg), by_ref(cfg);
        for (int s = 1; s < num_streams; ++s) {
            by_value.create_stream();
            by_ref.create_stream();
        }
        for (int round = 0; round < 2; ++round) {
            int num_events = 0;
            const std::vector<SimOp> ops =
                random_program(rng, num_streams, &num_events);
            std::vector<EventId> value_events, ref_events;
            for (int e = 0; e < num_events; ++e) {
                value_events.push_back(by_value.create_event());
                ref_events.push_back(by_ref.create_event());
            }
            for (const SimOp& op : ops) {
                const auto i = static_cast<size_t>(op.arg);
                switch (op.kind) {
                  case SimOp::Launch:
                    // A temporary copy that dies at the end of this
                    // statement, long before the device runs it.
                    by_value.launch(op.stream, KernelDesc(value_kernels[i]),
                                    keys[i]);
                    by_ref.launch_ref(op.stream, ref_kernels[i], keys[i]);
                    break;
                  case SimOp::Record:
                    by_value.record_event(op.stream, value_events[i]);
                    by_ref.record_event(op.stream, ref_events[i]);
                    break;
                  case SimOp::Wait:
                    by_value.wait_event(op.stream, value_events[i]);
                    by_ref.wait_event(op.stream, ref_events[i]);
                    break;
                }
            }
            by_value.synchronize();
            by_ref.synchronize();
            EXPECT_EQ(by_value.now_ns(), by_ref.now_ns());
            for (int e = 0; e < num_events; ++e)
                EXPECT_EQ(by_value.event_time_ns(
                              value_events[static_cast<size_t>(e)]),
                          by_ref.event_time_ns(
                              ref_events[static_cast<size_t>(e)]));
        }
        const GpuStats& a = by_value.stats();
        const GpuStats& b = by_ref.stats();
        EXPECT_EQ(a.kernels_launched, b.kernels_launched);
        EXPECT_EQ(a.events_recorded, b.events_recorded);
        EXPECT_EQ(a.busy_sm_ns, b.busy_sm_ns);
        EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
        EXPECT_EQ(a.faults_injected, b.faults_injected);
        EXPECT_EQ(a.straggler_events, b.straggler_events);
        stragglers += a.straggler_events;
        faults += a.faults_injected;
        EXPECT_EQ(value_log, ref_log);
        ASSERT_EQ(by_value.trace().size(), by_ref.trace().size());
        for (size_t i = 0; i < by_value.trace().size(); ++i) {
            const TraceSpan& x = by_value.trace()[i];
            const TraceSpan& y = by_ref.trace()[i];
            EXPECT_EQ(x.name, y.name);
            EXPECT_EQ(x.key, y.key);
            EXPECT_EQ(x.stream, y.stream);
            EXPECT_EQ(x.start_ns, y.start_ns);
            EXPECT_EQ(x.end_ns, y.end_ns);
        }
    }
    // Non-vacuous: both fault kinds fired somewhere.
    EXPECT_GT(stragglers, 0);
    EXPECT_GT(faults, 0);
}

}  // namespace
}  // namespace astra
