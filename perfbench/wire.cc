/**
 * @file
 * wire_cold / wire_whatif: wire the five paper models at the astra_cli
 * baseline shapes, run steady-state steps of the winners, and probe
 * every layer on them.
 */
#include <cstdio>
#include <memory>

#include "models/models.h"
#include "perfbench.h"

namespace perfbench {

using namespace astra;

namespace {

struct ZooEntry
{
    ModelKind kind;
    const char* label;
};

/** The paper zoo, largest first. */
constexpr ZooEntry kZoo[] = {
    {ModelKind::Gnmt, "gnmt"},     {ModelKind::StackedLstm, "stacked"},
    {ModelKind::MiLstm, "milstm"}, {ModelKind::Scrnn, "scrnn"},
    {ModelKind::SubLstm, "sublstm"},
};
constexpr size_t kZooSize = sizeof(kZoo) / sizeof(kZoo[0]);

/** Steady-state rounds (one step of every model each). */
constexpr int kSteadyRounds = 25;

/** Calls per probed layer and winner. */
constexpr int kProbeCalls = 5;

/** Set-up samples of every model, before and again after the wiring. */
constexpr int kSetupRounds = 4;

/** astra_cli --batch 16 --seq 8 --hidden 128 --vocab 1000. */
ModelConfig
zoo_shape()
{
    ModelConfig cfg;
    cfg.batch = 16;
    cfg.seq_len = 8;
    cfg.hidden = 128;
    cfg.embed_dim = 128;
    cfg.vocab = 1000;
    return cfg;
}

/** One wiring of the zoo: models, sessions and what they measured. */
struct Zoo
{
    std::vector<BuiltModel> models;
    std::vector<std::unique_ptr<AstraSession>> sessions;
    std::vector<WirerResult> results;
    std::vector<double> setup_s;  ///< per model: build + session
    double wire_s = 0.0;  ///< host wall of optimize, summed over the zoo
    std::vector<std::vector<double>> step_us;  ///< per model, per step
};

/** Set-up: build every model and construct its session. */
std::unique_ptr<Zoo>
make_zoo(bool whatif)
{
    auto zoo = std::make_unique<Zoo>();
    for (const ZooEntry& e : kZoo) {
        settle_cpu();
        const Stopwatch sw;
        {
            obs::ScopedSpan span(obs::Category::Enumerate,
                                 "bench.models.build");
            zoo->models.push_back(build_model(e.kind, zoo_shape()));
        }
        obs::ScopedSpan span(obs::Category::Enumerate,
                             "bench.session.construct");
        AstraOptions opts = hermetic_options();
        opts.features = features_all();
        opts.whatif.enabled = whatif;
        zoo->sessions.push_back(std::make_unique<AstraSession>(
            zoo->models.back().graph(), opts));
        zoo->setup_s.push_back(sw.seconds());
    }
    return zoo;
}

/** AstraSession::optimize on every model, with completion checks. */
void
wire_zoo(Zoo& zoo, Report& rep)
{
    for (size_t i = 0; i < kZooSize; ++i) {
        settle_cpu();
        obs::ScopedSpan span(obs::Category::Wire, "bench.session.optimize");
        const Stopwatch sw;
        zoo.results.push_back(zoo.sessions[i]->optimize());
        zoo.wire_s += sw.seconds();
        const WirerResult& r = zoo.results.back();
        rep.check(r.termination == WirerTermination::Complete && !r.truncated,
                  std::string(kZoo[i].label) + ": wiring ended " +
                      wirer_termination_name(r.termination));
        rep.attempted(1);
    }
}

/**
 * kSteadyRounds round-robin rounds of AstraSession::run(best_config)
 * over the wired zoo. Every step must reproduce the winner's best_ns.
 */
void
run_steady(Zoo& zoo, Report& rep)
{
    zoo.step_us.assign(kZooSize, {});
    for (int k = 0; k < kSteadyRounds; ++k) {
        settle_cpu();
        for (size_t i = 0; i < kZooSize; ++i) {
            const WirerResult& r = zoo.results[i];
            obs::ScopedSpan span(obs::Category::Dispatch, "bench.session.run");
            const Stopwatch step;
            const double ns = zoo.sessions[i]->run(r.best_config).total_ns;
            zoo.step_us[i].push_back(step.seconds() * 1e6);
            rep.check(ns == r.best_ns,
                      std::string(kZoo[i].label) +
                          ": steady-state step time differs from best_ns");
        }
        rep.attempted(kZooSize);
    }
}

/** Host estimate of one steady step of every model, in microseconds. */
double
steady_step_us(const Zoo& zoo)
{
    double us = 0.0;
    for (const std::vector<double>& samples : zoo.step_us)
        us += host_estimate(samples);
    return us;
}

/** Geomean over the zoo of native / tuned simulated step time. */
double
tuned_speedup(const Zoo& zoo)
{
    obs::ScopedSpan span(obs::Category::Dispatch, "bench.session.run_native");
    std::vector<double> speedups;
    for (size_t i = 0; i < kZooSize; ++i)
        speedups.push_back(zoo.sessions[i]->run_native().total_ns /
                           zoo.results[i].best_ns);
    return geomean(speedups);
}

/** Set-up, wiring, steady state and probes: one pass of the workload. */
std::unique_ptr<Zoo>
full_pass(bool whatif, ProbeTimes& times, Report& rep)
{
    std::unique_ptr<Zoo> zoo = make_zoo(whatif);
    wire_zoo(*zoo, rep);
    run_steady(*zoo, rep);
    tuned_speedup(*zoo);
    for (size_t i = 0; i < kZooSize; ++i)
        probe_winner(*zoo->sessions[i], zoo->results[i], kZoo[i].label,
                     kProbeCalls, times, rep);
    return zoo;
}

}  // namespace

int
run_wire(const Args& args, bool whatif, Report& rep)
{
    // The zoo is fixed by its shapes: these workloads have no seeded
    // input, so every seed measures the same work.
    if (args.trace) {
        ProbeTimes times;
        const Stopwatch untraced;
        double wire_s = 0.0, step_us = 0.0;
        {
            const std::unique_ptr<Zoo> plain = full_pass(whatif, times, rep);
            wire_s = plain->wire_s;
            step_us = steady_step_us(*plain);
        }
        const double untraced_s = untraced.seconds();

        ProbeTimes traced_times;
        obs::reset();
        obs::set_enabled(true);
        std::unique_ptr<Zoo> zoo;
        {
            obs::ScopedSpan root(obs::Category::Wire, kRootSpan);
            zoo = full_pass(whatif, traced_times, rep);
        }
        obs::set_enabled(false);
        report_attribution(aggregate_spans(), untraced_s, rep);
        report_probes(times, rep);
        report_wirer_counts(zoo->results, rep);
        rep.set("wire_s", wire_s, "s");
        rep.set("steady_step_us", step_us, "us");
        // The zoo serves no requests: the serve layer's figures are 0.
        for (const char* name : {"serve.batches", "serve.generic_batches",
                                 "serve.swaps"})
            rep.set(name, 0.0, "count");
        for (const char* name : {"serve.padded_token_frac", "serve.fail_frac"})
            rep.set(name, 0.0, "fraction");
        for (const char* name : {"serve.goodput_rps", "serve.max_rps_at_slo"})
            rep.set(name, 0.0, "req/s");
        rep.set("serve.batch_occupancy", 0.0, "req/batch");
        return 0;
    }

    // Untraced run: one wiring of the zoo, with every model's set-up
    // sampled before and after it, the second time until the budget is
    // spent. Set-up is the sum over models of each model's host
    // estimate: short samples catch calm moments a whole zoo misses.
    // Peak RSS is read right after the pass, while exactly one wired zoo
    // is alive.
    const Stopwatch budget;
    std::vector<std::vector<double>> setup_samples(kZooSize);
    const auto add_setup = [&](const Zoo& z) {
        for (size_t i = 0; i < kZooSize; ++i)
            setup_samples[i].push_back(z.setup_s[i]);
    };
    for (int k = 0; k < kSetupRounds; ++k)
        add_setup(*make_zoo(whatif));
    ProbeTimes times;
    const std::unique_ptr<Zoo> zoo = full_pass(whatif, times, rep);
    add_setup(*zoo);
    const double rss_mb = peak_rss_mb();
    const double speedup = tuned_speedup(*zoo);
    for (int k = 0; k < kSetupRounds || budget.seconds() < args.seconds; ++k)
        add_setup(*make_zoo(whatif));
    double setup_s = 0.0;
    for (const std::vector<double>& samples : setup_samples)
        setup_s += host_estimate(samples);

    int64_t minibatches = 0;
    std::printf("\n%-10s %12s %10s %18s\n", "model", "mini-batches",
                "replays", "winner fnv");
    for (size_t i = 0; i < kZooSize; ++i) {
        const WirerResult& r = zoo->results[i];
        minibatches += r.minibatches;
        std::printf("%-10s %12lld %10lld %18s\n", kZoo[i].label,
                    static_cast<long long>(r.minibatches),
                    static_cast<long long>(r.convergence.whatif_evals),
                    config_fnv(r.best_config).c_str());
    }
    std::printf("wire_s %.3f s, steady_step_us %.1f us (host, not gated)\n",
                zoo->wire_s, steady_step_us(*zoo));

    rep.set("setup_s", setup_s, "s");
    rep.set("peak_rss_mb", rss_mb, "MB");
    rep.set("wire_minibatches", static_cast<double>(minibatches), "count");
    rep.set("tuned_speedup", speedup, "x");
    return 0;
}

}  // namespace perfbench
