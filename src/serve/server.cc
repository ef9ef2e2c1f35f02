#include "serve/server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/config_io.h"
#include "core/plan_store.h"
#include "obs/obs.h"
#include "support/logging.h"

namespace astra::serve {

namespace {

/** Owns the graph + session a re-wired blob was lowered against. */
struct RewireState
{
    std::unique_ptr<GraphBuilder> builder;
    std::unique_ptr<AstraSession> session;
};

double
median_of_tail(const std::vector<double>& window, int n)
{
    ASTRA_ASSERT(static_cast<int>(window.size()) >= n && n > 0);
    std::vector<double> tail(window.end() - n, window.end());
    std::sort(tail.begin(), tail.end());
    return tail[tail.size() / 2];
}

}  // namespace

uint64_t
config_fingerprint(const ScheduleConfig& config)
{
    return fnv1a64(config_to_string(config));
}

BucketedServer::BucketedServer(ServeOptions opts)
    : opts_(std::move(opts))
{
    ASTRA_ASSERT(!opts_.bucket_lengths.empty());
    ASTRA_ASSERT(opts_.max_batch > 0);
    ASTRA_ASSERT(opts_.batch_wait_frac >= 0.0);
    router_ = std::make_unique<BucketedAstra>(opts_.bucket_lengths,
                                              opts_.build, opts_.astra);
    router_->set_strict_overflow(opts_.strict_overflow);
    slots_.resize(opts_.bucket_lengths.size());
}

BucketedServer::~BucketedServer() = default;

int64_t
BucketedServer::optimize()
{
    obs::ScopedSpan span(obs::Category::Serve, "serve.optimize");
    const int64_t total = router_->optimize();
    for (int i = 0; i < router_->num_buckets(); ++i) {
        const AstraSession& s = router_->session(i);
        const WirerResult& r = router_->bucket_result(i);
        BucketPlan p;
        // Lower through the scheduler's wired cache: verify_wired runs
        // inside, so an illegal lowering fails here, not mid-serve.
        p.binary = s.scheduler().wire_cached(
            r.best_config, s.tensor_map(r.best_config.strategy),
            opts_.astra.gpu);
        p.config = r.best_config;
        p.config_fnv = config_fingerprint(r.best_config);
        p.baseline_ns = r.best_ns;
        p.epoch = 0;
        // The router owns the session; no extra retention needed.
        std::lock_guard<std::mutex> lock(slots_mu_);
        slots_[static_cast<size_t>(i)] = std::move(p);
    }
    optimized_ = true;
    return total;
}

BucketedServer::BucketPlan
BucketedServer::plan(int bucket) const
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(slots_.size()));
    std::lock_guard<std::mutex> lock(slots_mu_);
    return slots_[static_cast<size_t>(bucket)];
}

void
BucketedServer::install(int bucket, BucketPlan plan)
{
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(slots_.size()));
    ASTRA_ASSERT(plan.binary != nullptr);
    std::lock_guard<std::mutex> lock(slots_mu_);
    plan.epoch = slots_[static_cast<size_t>(bucket)].epoch + 1;
    slots_[static_cast<size_t>(bucket)] = std::move(plan);
}

BucketedServer::BucketPlan
BucketedServer::rewire(int bucket, const GpuConfig& gpu) const
{
    obs::ScopedSpan span(obs::Category::Serve, "serve.rewire");
    ASTRA_ASSERT(bucket >= 0 &&
                 bucket < static_cast<int>(opts_.bucket_lengths.size()));
    const int len =
        opts_.bucket_lengths[static_cast<size_t>(bucket)];

    auto state = std::make_shared<RewireState>();
    state->builder = std::make_unique<GraphBuilder>();
    opts_.build(*state->builder, len);

    AstraOptions o = opts_.astra;
    o.gpu = gpu;
    // Same §5.5 context prefix as the router's bucket, so the plan
    // store resolves the same workload identity: the stale entry
    // L1-hits (gpu_sig ignores the forced multiplier), its
    // verification mini-batch — measured on the *throttled* device —
    // drifts past store_drift_rel, and optimize() demotes into a
    // warm-started re-exploration whose winner is written back.
    o.context_prefix = opts_.astra.context_prefix + "b" +
                       std::to_string(len) + "|";
    state->session =
        std::make_unique<AstraSession>(state->builder->graph(), o);
    const WirerResult r = state->session->optimize();

    BucketPlan p;
    p.binary = state->session->scheduler().wire_cached(
        r.best_config,
        state->session->tensor_map(r.best_config.strategy), gpu);
    p.config = r.best_config;
    p.config_fnv = config_fingerprint(r.best_config);
    p.baseline_ns = r.best_ns;
    p.retain = std::move(state);
    return p;
}

double
drift_onset_ns(const std::vector<ClockStep>& schedule)
{
    for (const ClockStep& s : schedule)
        if (s.clock_multiplier > 0.0 && s.clock_multiplier != 1.0)
            return s.at_ns;
    return -1.0;
}

void
BucketedServer::apply_clock_steps(double t_ns, GpuConfig* gpu,
                                  size_t* next_step)
{
    while (*next_step < opts_.clock_schedule.size() &&
           opts_.clock_schedule[*next_step].at_ns <= t_ns) {
        gpu->forced_clock_multiplier =
            opts_.clock_schedule[*next_step].clock_multiplier;
        ++*next_step;
    }
}

ServeReport
BucketedServer::serve(const std::vector<ServeRequest>& traffic)
{
    static obs::Counter& c_swaps = obs::counter("serve.swaps");
    static obs::Counter& c_rewires = obs::counter("serve.rewires");
    static obs::Counter& c_detect =
        obs::counter("serve.drift_detections");
    static obs::Counter& c_reject = obs::counter("serve.rejected");

    ASTRA_ASSERT(optimized_, "call optimize() first");
    obs::ScopedSpan span(obs::Category::Serve, "serve.loop");

    AdmissionQueue queue(*router_);
    MetricsRecorder metrics;
    ServeReport report;
    report.offered = static_cast<int64_t>(traffic.size());

    // The drift watcher's measurement discipline: same policy family
    // as exploration, but with the MAD outlier gate disarmed — a
    // sustained regression is exactly the signal the watcher exists to
    // see, not noise to reject.
    MeasurementPolicy watch_policy = opts_.astra.measurement;
    watch_policy.outlier_mad_k = 0.0;
    ProfileIndex watch(watch_policy);
    const double drift_rel =
        opts_.watcher.drift_rel > 0.0
            ? opts_.watcher.drift_rel
            : opts_.astra.measurement.store_drift_rel;

    GpuConfig gpu = opts_.astra.gpu;
    std::vector<RewireInflight> inflight(slots_.size());

    double now_ns = 0.0;
    size_t next_arrival = 0;
    size_t next_step = 0;
    const double drift_onset = drift_onset_ns(opts_.clock_schedule);
    int64_t served_total = 0;
    int64_t served_at_drift = -1;
    int64_t detect_budget = -1;

    const auto admit_due = [&] {
        while (next_arrival < traffic.size() &&
               traffic[next_arrival].arrival_ns <= now_ns) {
            queue.admit(traffic[next_arrival]);
            ++next_arrival;
        }
    };

    while (next_arrival < traffic.size() || !queue.empty()) {
        admit_due();
        if (queue.empty()) {
            // Strict-overflow admission may have rejected everything
            // that was left, so re-check before indexing the trace.
            if (next_arrival >= traffic.size())
                break;
            // Open-loop idle: jump to the next arrival.
            now_ns = std::max(now_ns,
                              traffic[next_arrival].arrival_ns);
            continue;
        }

        const int b = queue.most_urgent_bucket();
        BucketPlan p = plan(b);

        // Dynamic batching: a partial batch waits for more arrivals
        // while the head request's slack still covers the expected
        // service time plus the patience margin.
        const double launch_by =
            queue.head(b).deadline_ns -
            (1.0 + opts_.batch_wait_frac) * p.baseline_ns;
        if (static_cast<int>(queue.depth(b)) < opts_.max_batch &&
            next_arrival < traffic.size() && now_ns < launch_by &&
            traffic[next_arrival].arrival_ns <= launch_by) {
            now_ns = traffic[next_arrival].arrival_ns;
            continue;
        }

        // ---- batch boundary: drift steps land, pending swaps apply.
        apply_clock_steps(now_ns, &gpu, &next_step);
        if (drift_onset >= 0.0 && now_ns >= drift_onset &&
            served_at_drift < 0)
            served_at_drift = served_total;
        auto& infl = inflight[static_cast<size_t>(b)];
        if (infl.active && now_ns >= infl.ready_ns) {
            install(b, std::move(infl.plan));
            infl.active = false;
            ++report.swaps;
            c_swaps.add();
            p = plan(b);
        }

        const std::vector<ServeRequest> batch =
            queue.pop_batch(b, opts_.max_batch);
        const int bucket_len =
            router_->bucket_lengths()[static_cast<size_t>(b)];
        const double start_ns = now_ns;
        DispatchResult dr;
        {
            obs::ScopedSpan batch_span(
                obs::Category::Serve,
                "serve.batch.b" + std::to_string(bucket_len));
            // Replay runs on the snapshot: an install between batches
            // can never mutate the blob a batch is flying on.
            dr = replay_wired(*p.binary, gpu);
        }
        now_ns = start_ns + dr.total_ns;

        int64_t real_tokens = 0;
        for (const ServeRequest& r : batch)
            real_tokens += r.length;
        metrics.batch(static_cast<int>(batch.size()), opts_.max_batch,
                      real_tokens, bucket_len);
        for (const ServeRequest& r : batch) {
            metrics.complete(now_ns - r.arrival_ns,
                             now_ns > r.deadline_ns);
            ++served_total;
        }
        if (opts_.record_batches) {
            BatchRecord rec;
            rec.bucket = b;
            rec.size = static_cast<int>(batch.size());
            rec.start_ns = start_ns;
            rec.end_ns = now_ns;
            rec.plan_epoch = p.epoch;
            rec.config_fnv = p.config_fnv;
            report.batch_log.push_back(rec);
        }

        if (!opts_.watcher.enabled)
            continue;

        // Watcher: fold the batch time into an install-epoch-mangled
        // key (key mangling *is* the invalidation — post-swap samples
        // can never alias a stale window) and compare the tail median
        // against the plan's install-time baseline.
        const std::string key = "serve|b" + std::to_string(bucket_len) +
                                "|e" + std::to_string(p.epoch);
        watch.record(key, dr.total_ns);
        if (infl.active)
            continue;  // a re-wire is already in flight for this bucket
        const ProfileStats* stats = watch.stats(key);
        if (stats == nullptr ||
            static_cast<int>(stats->window().size()) <
                opts_.watcher.min_window)
            continue;
        const double med =
            median_of_tail(stats->window(), opts_.watcher.min_window);
        if (med <= (1.0 + drift_rel) * p.baseline_ns)
            continue;

        ++report.drift_detections;
        c_detect.add();
        if (detect_budget < 0 && served_at_drift >= 0)
            detect_budget = served_total - served_at_drift;
        // Off-path re-wire on the *current* device configuration; the
        // blob installs at the first batch boundary past the simulated
        // re-wire latency. Until then this bucket keeps serving on
        // the old plan — nothing queued is dropped.
        infl.plan = rewire(b, gpu);
        infl.active = true;
        infl.ready_ns = now_ns + opts_.rewire_latency_ns;
        ++report.rewires;
        c_rewires.add();
    }

    report.admitted = queue.admitted();
    report.rejected = queue.rejected();
    c_reject.add(report.rejected);
    report.makespan_ns = now_ns;
    report.detection_request_budget = detect_budget;
    metrics.finalize(&report);
    report.dropped = report.admitted - report.served;
    return report;
}

}  // namespace astra::serve
