/**
 * @file
 * Per-call layer probes and output checks on one wiring winner.
 */
#include <cstdio>

#include "core/config_io.h"
#include "core/plan_store.h"
#include "core/whatif.h"
#include "perfbench.h"
#include "runtime/wired.h"

namespace perfbench {

using namespace astra;

namespace {

/** Host microseconds per call over `calls` calls of fn (span-wrapped). */
template <typename Fn>
double
time_calls(const char* span, int calls, Fn&& fn)
{
    std::vector<double> us;
    for (int i = 0; i < calls; ++i) {
        settle_cpu();
        obs::ScopedSpan s(obs::Category::Dispatch, span);
        const Stopwatch sw;
        fn();
        us.push_back(sw.seconds() * 1e6);
    }
    return host_estimate(us);
}

}  // namespace

std::string
config_fnv(const ScheduleConfig& config)
{
    return hash_hex(fnv1a64(config_to_string(config)));
}

void
probe_winner(const AstraSession& session, const WirerResult& result,
             const std::string& label, int calls, ProbeTimes& times,
             Report& rep)
{
    const ScheduleConfig& cfg = result.best_config;
    const Graph& graph = session.graph();
    const TensorMap& tmap = session.tensor_map(cfg.strategy);
    const GpuConfig& gpu = session.options().gpu;
    const Scheduler& sched = session.scheduler();

    // Output checks first: the winner must re-dispatch to its measured
    // time, and every other execution path must agree with dispatch.
    const ExecutionPlan plan = sched.build(cfg);
    const DispatchResult ref = dispatch_plan(plan, graph, tmap, gpu);
    rep.check(session.run(cfg).total_ns == result.best_ns,
              label + ": re-dispatch of the winner differs from best_ns");
    const WiredBinary bin = lower_plan(plan, graph, tmap, gpu);
    const DispatchResult replayed = replay_wired(bin, gpu);
    rep.check(replayed.total_ns == ref.total_ns &&
                  replayed.profile_ns == ref.profile_ns,
              label + ": lower_plan + replay_wired differs from dispatch_plan");
    const WhatIfEngine engine(graph, tmap, sched, gpu);
    rep.check(engine.evaluate(cfg).total_ns == ref.total_ns,
              label + ": WhatIfEngine::evaluate differs from dispatch_plan");
    rep.attempted(4);

    times.build_us.push_back(time_calls("bench.probe.build", calls,
                                        [&] { (void)sched.build(cfg); }));
    times.compile_us.push_back(time_calls("bench.probe.compile", calls, [&] {
        (void)compile_plan(plan, graph, /*profiling=*/true);
    }));
    std::vector<double> enqueue_us;
    times.dispatch_us.push_back(
        time_calls("bench.probe.dispatch", calls, [&] {
            enqueue_us.push_back(
                dispatch_plan(plan, graph, tmap, gpu).host_enqueue_ns * 1e-3);
        }));
    times.enqueue_us.push_back(host_estimate(enqueue_us));
    times.sim_us.push_back(times.dispatch_us.back() - times.enqueue_us.back());
    times.evaluate_us.push_back(time_calls("bench.probe.evaluate", calls,
                                           [&] { (void)engine.evaluate(cfg); }));
    times.lower_us.push_back(time_calls("bench.probe.lower", calls, [&] {
        (void)lower_plan(plan, graph, tmap, gpu);
    }));
    times.replay_us.push_back(time_calls("bench.probe.replay", calls,
                                         [&] { (void)replay_wired(bin, gpu); }));
    rep.attempted(6 * calls);

    std::printf("  %-12s winner fnv %s  best %.3f ms  build %.0f us  "
                "compile %.0f us  dispatch %.0f us (enqueue %.0f)  "
                "evaluate %.0f us  lower %.0f us  replay %.0f us\n",
                label.c_str(), config_fnv(cfg).c_str(), result.best_ns * 1e-6,
                times.build_us.back(), times.compile_us.back(),
                times.dispatch_us.back(), times.enqueue_us.back(),
                times.evaluate_us.back(), times.lower_us.back(),
                times.replay_us.back());
}

void
report_probes(const ProbeTimes& t, Report& rep)
{
    const auto sum = [](const std::vector<double>& v) {
        double s = 0.0;
        for (double x : v)
            s += x;
        return s;
    };
    rep.set("scheduler.build.us_per_call", sum(t.build_us), "us");
    rep.set("compile_plan.us_per_call", sum(t.compile_us), "us");
    rep.set("dispatch.us_per_call", sum(t.dispatch_us), "us");
    rep.set("dispatch.enqueue_us_per_call", sum(t.enqueue_us), "us");
    rep.set("sim.us_per_call", sum(t.sim_us), "us");
    rep.set("whatif.evaluate_us_per_call", sum(t.evaluate_us), "us");
    rep.set("wired.lower.us_per_call", sum(t.lower_us), "us");
    rep.set("wired.replay.us_per_call", sum(t.replay_us), "us");
}

}  // namespace perfbench
