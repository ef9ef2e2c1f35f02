/**
 * @file
 * serve_fleet: a 2-replica ReplicaFleet over four subLSTM length
 * buckets, driven by open-loop Poisson traffic with one 2x burst, while
 * replica 0 throttles to 0.7x clocks at mid-trace (drift detection,
 * degradation to generic dispatch, warm re-wire from the plan store,
 * swap-back).
 *
 * Every traffic parameter is an absolute constant below: none is
 * derived from the plans of the code under test, so two versions of
 * the program serve the same offered load.
 */
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "models/models.h"
#include "perfbench.h"
#include "serve/router.h"

namespace perfbench {

using namespace astra;

namespace {

namespace fs = std::filesystem;

const std::vector<int> kBuckets = {8, 16, 24, 32};
constexpr int kMaxBatch = 8;
constexpr int kReplicas = 2;

/**
 * Open-loop traffic (simulated time). The nominal rate loads the fleet
 * to roughly 40% of its capacity, and the burst to roughly 80%.
 */
constexpr double kHorizonNs = 30.0e9;
constexpr double kBaseRps = 1500.0;
constexpr double kBurstStartNs = 6.0e9;
constexpr double kBurstEndNs = 12.0e9;
constexpr double kBurstMultiplier = 2.0;
constexpr double kSloNs = 50.0e6;
/** PTB lengths / 3 stay within the largest bucket (max 83 / 3 = 27). */
constexpr int kLengthDiv = 3;

/**
 * Replica 0 throttles to 0.7x clocks at mid-trace. The 15 s after the
 * step give even the rarest bucket (lengths 25-27) the batches its
 * drift watcher needs, so every seed re-wires the same buckets and the
 * host cost per batch does not depend on the seed.
 */
constexpr double kClockStepNs = 15.0e9;
constexpr double kClockStepMultiplier = 0.7;

/** Rate ladder for serve.max_rps_at_slo (requests per simulated s). */
const std::vector<double> kLadderRps = {1000.0, 1500.0, 2000.0, 2500.0,
                                        3000.0};

/** Calls per probed layer and winner. */
constexpr int kProbeCalls = 5;

/** Served fleets per untraced run (at least), and set-ups between them. */
constexpr int kMinFleets = 3;
constexpr int kExtraSetups = 2;

/** Scratch directory for this process's plan stores. */
fs::path
scratch_root()
{
    return fs::path(".bench_build") / "tmp" /
           ("serve-" + std::to_string(getpid()));
}

/** Removes a directory tree on scope exit. */
class RemoveOnExit
{
  public:
    explicit RemoveOnExit(fs::path dir) : dir_(std::move(dir)) {}
    ~RemoveOnExit()
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    RemoveOnExit(const RemoveOnExit&) = delete;
    RemoveOnExit& operator=(const RemoveOnExit&) = delete;

  private:
    fs::path dir_;
};

/** A fresh plan-store directory, removed when the fleet is done. */
class TempStore
{
  public:
    TempStore()
        : dir_(scratch_root() / std::to_string(next_++)), cleanup_(dir_)
    {
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    std::string path() const { return dir_.string(); }

  private:
    static inline int next_ = 0;
    fs::path dir_;
    RemoveOnExit cleanup_;
};

serve::FleetOptions
fleet_options(const std::string& store)
{
    serve::FleetOptions fo;
    serve::ServeOptions& so = fo.base;
    so.bucket_lengths = kBuckets;
    so.build = [](GraphBuilder& b, int length) {
        obs::ScopedSpan span(obs::Category::Enumerate, "bench.models.build");
        ModelConfig cfg;
        cfg.batch = kMaxBatch;
        cfg.seq_len = length;
        cfg.hidden = 64;
        cfg.embed_dim = 64;
        cfg.vocab = 1000;
        BuiltModel m = build_model(ModelKind::SubLstm, cfg);
        b = std::move(*m.builder);
    };
    so.astra = hermetic_options();
    so.astra.features = features_fk();
    so.astra.plan_store = store;
    so.max_batch = kMaxBatch;
    so.clock_schedule = {{kClockStepNs, kClockStepMultiplier}};
    fo.replicas = kReplicas;
    return fo;
}

std::vector<serve::ServeRequest>
make_traffic(double rps, uint64_t seed)
{
    obs::ScopedSpan span(obs::Category::Serve, "bench.traffic.generate");
    serve::TrafficConfig cfg;
    cfg.duration_ns = kHorizonNs;
    cfg.base_rps = rps;
    cfg.bursts = {{kBurstStartNs, kBurstEndNs, kBurstMultiplier}};
    cfg.slo_ns = kSloNs;
    cfg.length_div = kLengthDiv;
    cfg.seed = seed;
    return serve::generate_traffic(cfg);
}

/**
 * Construct and wire one fleet on a fresh plan store: the serve
 * workload's set-up. Returns its host seconds; `wire_s` and
 * `minibatches` receive the wiring's share and outcome.
 */
double
setup_fleet(const TempStore& store,
            std::unique_ptr<serve::ReplicaFleet>* fleet, double* wire_s,
            int64_t* minibatches)
{
    settle_cpu();
    const Stopwatch setup;
    {
        obs::ScopedSpan span(obs::Category::Serve, "bench.fleet.construct");
        *fleet = std::make_unique<serve::ReplicaFleet>(
            fleet_options(store.path()));
    }
    obs::ScopedSpan span(obs::Category::Serve, "bench.fleet.optimize");
    const Stopwatch sw;
    *minibatches = (*fleet)->optimize();
    *wire_s = sw.seconds();
    return setup.seconds();
}

/** One fleet: construct, wire, serve one trace. */
struct FleetRun
{
    serve::FleetReport report;
    double setup_s = 0.0;  ///< construction + wiring
    double wire_s = 0.0;
    double serve_s = 0.0;
    int64_t minibatches = 0;
    double speedup = 0.0;
    std::vector<WirerResult> results;
};

FleetRun
run_fleet(double rps, uint64_t seed, bool probe, ProbeTimes& times,
          Report& rep)
{
    const TempStore store;
    FleetRun out;
    std::unique_ptr<serve::ReplicaFleet> fleet;
    out.setup_s = setup_fleet(store, &fleet, &out.wire_s, &out.minibatches);

    const std::vector<serve::ServeRequest> traffic = make_traffic(rps, seed);
    settle_cpu();
    {
        obs::ScopedSpan span(obs::Category::Serve, "bench.fleet.serve");
        const Stopwatch sw;
        out.report = fleet->serve(traffic);
        out.serve_s = sw.seconds();
    }
    const serve::FleetReport& r = out.report;
    const std::string tag = "serve at " + std::to_string(rps) + " rps";
    rep.check(r.total.dropped == 0 && r.double_served == 0,
              tag + ": dropped or double-served requests");
    rep.check(r.total.served + r.total.rejected + r.shed + r.evicted +
                      r.failed ==
                  r.total.offered,
              tag + ": request resolution does not add up to offered");
    rep.attempted(r.total.offered);

    const BucketedAstra& router = fleet->prototype().router();
    std::vector<double> speedups;
    for (int b = 0; b < router.num_buckets(); ++b) {
        const WirerResult& res = router.bucket_result(b);
        out.results.push_back(res);
        {
            obs::ScopedSpan span(obs::Category::Dispatch,
                                 "bench.session.run_native");
            speedups.push_back(router.session(b).run_native().total_ns /
                               res.best_ns);
        }
        if (probe)
            probe_winner(router.session(b), res,
                         "bucket " + std::to_string(kBuckets[b]), kProbeCalls,
                         times, rep);
    }
    out.speedup = geomean(speedups);
    return out;
}

/** Host microseconds of the serve loop per served mini-batch. */
double
step_us(const FleetRun& f)
{
    return f.serve_s * 1e6 / static_cast<double>(f.report.total.batches);
}

/** Fail fraction: every request not served, over offered. */
double
fail_frac(const serve::FleetReport& r)
{
    return static_cast<double>(r.total.offered - r.total.served) /
           static_cast<double>(r.total.offered);
}

bool
meets_slo(const serve::FleetReport& r)
{
    return r.total.p99_supported && r.total.p99_ns <= kSloNs &&
           r.total.makespan_ns - kHorizonNs <= kSloNs;
}

void
print_fleet(const char* title, const FleetRun& f)
{
    const serve::ServeReport& t = f.report.total;
    std::printf("%s: offered %lld served %lld p50 %.3f ms p99 %.3f ms "
                "goodput %.0f rps fail %.4f batches %lld generic %lld "
                "swap-backs %lld host %.3f us/req, %.1f us/batch (%.3f s "
                "serve, %.3f s wire)\n",
                title, static_cast<long long>(t.offered),
                static_cast<long long>(t.served), t.p50_ns * 1e-6,
                t.p99_ns * 1e-6, t.goodput_rps, fail_frac(f.report),
                static_cast<long long>(t.batches),
                static_cast<long long>(f.report.generic_batches),
                static_cast<long long>(f.report.swap_backs),
                f.serve_s * 1e6 / static_cast<double>(t.offered), step_us(f),
                f.serve_s, f.wire_s);
}

/** Serve the ladder; returns the highest rate meeting the SLO (0: none). */
double
run_ladder(uint64_t seed, Report& rep)
{
    ProbeTimes unused;
    double best = 0.0;
    for (double rps : kLadderRps) {
        const FleetRun f = run_fleet(rps, seed, false, unused, rep);
        const bool ok = meets_slo(f.report);
        std::printf("  ladder %6.0f rps: p99 %.3f ms makespan overrun %.3f "
                    "ms -> %s\n",
                    rps, f.report.total.p99_ns * 1e-6,
                    (f.report.total.makespan_ns - kHorizonNs) * 1e-6,
                    ok ? "meets SLO" : "misses SLO");
        if (ok)
            best = rps;
    }
    return best;
}

/**
 * Nominal-rate check: the clock step must be detected and end in a
 * swap-back. (Whether a degraded bucket serves any generic batch before
 * its re-wire lands depends on the traffic, so that is only reported.)
 */
void
check_degradation(const FleetRun& f, Report& rep)
{
    rep.check(f.report.total.drift_detections >= 1 &&
                  f.report.swap_backs >= 1,
              "nominal serve: clock step was not detected and swapped back");
}

}  // namespace

int
run_serve(const Args& args, Report& rep)
{
    const RemoveOnExit cleanup(scratch_root());
    ProbeTimes times;
    if (args.trace) {
        const double max_rps = run_ladder(args.seed, rep);

        const Stopwatch untraced;
        const FleetRun plain = run_fleet(kBaseRps, args.seed, true, times, rep);
        const double untraced_s = untraced.seconds();
        check_degradation(plain, rep);
        print_fleet("nominal (untraced)", plain);

        ProbeTimes traced_times;
        obs::reset();
        obs::set_enabled(true);
        FleetRun traced;
        {
            obs::ScopedSpan root(obs::Category::Serve, kRootSpan);
            traced = run_fleet(kBaseRps, args.seed, true, traced_times, rep);
        }
        obs::set_enabled(false);
        report_attribution(aggregate_spans(), untraced_s, rep);
        report_probes(times, rep);
        report_wirer_counts(traced.results, rep);

        const serve::ServeReport& t = plain.report.total;
        rep.set("serve.batches", static_cast<double>(t.batches), "count");
        rep.set("serve.batch_occupancy", t.mean_batch_occupancy, "req/batch");
        rep.set("serve.padded_token_frac", t.padded_token_frac, "fraction");
        rep.set("serve.generic_batches",
                static_cast<double>(plain.report.generic_batches), "count");
        rep.set("serve.swaps", static_cast<double>(t.swaps), "count");
        rep.set("serve.goodput_rps", t.goodput_rps, "req/s");
        rep.set("serve.max_rps_at_slo", max_rps, "req/s");
        rep.set("serve.fail_frac", fail_frac(plain.report), "fraction");
        rep.set("wire_s", plain.wire_s, "s");
        rep.set("steady_step_us", step_us(plain), "us");
        return 0;
    }

    // Untraced run: serve the nominal trace on fresh fleets until the
    // time budget is spent, with kExtraSetups more set-ups (no serving)
    // after each, so that set-up is sampled often and across the run.
    // Peak RSS is read after the first fleet, as freed fleets stay in
    // the allocator's arenas.
    const Stopwatch budget;
    std::vector<double> setup_s;
    double rss_mb = 0.0;
    FleetRun f;
    int fleets = 0;
    do {
        f = run_fleet(kBaseRps, args.seed, fleets == 0, times, rep);
        if (rss_mb == 0.0)
            rss_mb = peak_rss_mb();
        check_degradation(f, rep);
        setup_s.push_back(f.setup_s);
        for (int k = 0; k < kExtraSetups; ++k) {
            const TempStore store;
            std::unique_ptr<serve::ReplicaFleet> fleet;
            double wire_s = 0.0;
            int64_t minibatches = 0;
            setup_s.push_back(
                setup_fleet(store, &fleet, &wire_s, &minibatches));
        }
        ++fleets;
    } while (budget.seconds() < args.seconds || fleets < kMinFleets);
    print_fleet("nominal (last fleet)", f);
    std::printf("fleets served %d, set-up samples %zu\n", fleets,
                setup_s.size());

    rep.set("setup_s", host_estimate(setup_s), "s");
    rep.set("peak_rss_mb", rss_mb, "MB");
    rep.set("wire_minibatches", static_cast<double>(f.minibatches), "count");
    rep.set("tuned_speedup", f.speedup, "x");
    return 0;
}

}  // namespace perfbench
