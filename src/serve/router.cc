#include "serve/router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <utility>

#include "obs/obs.h"
#include "runtime/dispatcher.h"
#include "support/logging.h"

namespace astra::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Batching patience as a fraction of the expected service time: a
 * partially-full batch launches once the head request's remaining
 * slack falls below (1 + kBatchWaitFrac) x the bucket's expected batch
 * time; until then the dispatcher waits for more arrivals.
 */
constexpr double kBatchWaitFrac = 0.25;

/**
 * Drift onset of an ascending clock schedule: the at_ns of its first
 * step that changes the clock (multiplier > 0 and != 1), or -1 when
 * none does. ServeReport's drift-detection request budget counts from
 * the first batch boundary at or past it.
 */
double
drift_onset_ns(const std::vector<ClockStep>& schedule)
{
    for (const ClockStep& s : schedule)
        if (s.clock_multiplier > 0.0 && s.clock_multiplier != 1.0)
            return s.at_ns;
    return -1.0;
}

/**
 * The drift watcher's view of one (replica, bucket): the last served
 * batch times of the plan installed at `epoch`.
 */
struct DriftWindow
{
    int epoch = -1;
    std::vector<double> tail;

    /**
     * Add a batch served under `plan_epoch` (a new epoch restarts the
     * window). True once the median of the last `n` times exceeds the
     * plan's install-time baseline by more than kStoreDriftRel.
     */
    bool
    drifted(int plan_epoch, double ns, int n, double baseline_ns)
    {
        ASTRA_ASSERT(n > 0);
        if (plan_epoch != epoch) {
            epoch = plan_epoch;
            tail.clear();
        }
        tail.push_back(ns);
        if (static_cast<int>(tail.size()) > n)
            tail.erase(tail.begin());
        if (static_cast<int>(tail.size()) < n)
            return false;
        std::vector<double> sorted = tail;
        std::sort(sorted.begin(), sorted.end());
        return sorted[sorted.size() / 2] >
               (1.0 + kStoreDriftRel) * baseline_ns;
    }
};

/**
 * First simulated time in [a, b] at which the replica is down under
 * the plan, expressed as the governing *down edge* (the moment of its
 * last heartbeat) — which may precede `a` when the window opens inside
 * a down interval. -1 when the replica is up throughout [a, b].
 */
double
first_down_in(const FaultPlan& faults, int id, double a, double b)
{
    const std::vector<double> edges =
        replica_transitions(faults, id, b + 1.0);
    bool alive = replica_alive(faults, id, 0.0);
    double down_start = alive ? -1.0 : 0.0;
    for (double e : edges) {
        if (alive) {
            alive = false;
            down_start = e;
            if (e >= a && e <= b)
                return e;
        } else {
            if (down_start <= a && a < e)
                return down_start;
            alive = true;
        }
    }
    if (!alive && down_start <= b)
        return down_start;
    return -1.0;
}

/** One scheduled router-visible liveness event. */
struct LiveEvent
{
    double at_ns = 0.0;   ///< when the router acts
    int replica = 0;
    bool death = false;   ///< true: heartbeat deadline; false: rejoin
    double edge_ns = 0.0; ///< the underlying liveness edge
};

/** A request waiting out its failover backoff. */
struct RetryEntry
{
    double ready_ns = 0.0;
    ServeRequest req;
};

/** One in-flight mini-batch on a replica. */
struct Flight
{
    bool active = false;
    int bucket = 0;
    std::vector<ServeRequest> reqs;
    double start_ns = 0.0;
    double end_ns = 0.0;
    bool fails = false;     ///< the replica dies under this batch
    double event_ns = 0.0;  ///< completion (or failure-detection) time
    double service_ns = 0.0;
    double baseline_ns = 0.0;
    int plan_epoch = 0;
    uint64_t config_fnv = 0;
    bool generic = false;
};

/** A re-wired plan waiting for its install time on one replica. */
struct PendingSwap
{
    bool active = false;
    double ready_ns = 0.0;  ///< earliest install time
    BucketedServer::BucketPlan plan;
};

/** How one request's story ended (exactly-once audit). */
enum class Resolution : uint8_t
{
    Pending,
    Served,
    Rejected,  ///< over-long refusal at admission
    Evicted,   ///< lost to the capacity bound (either policy)
    Shed,      ///< dropped as hopeless before dispatch
    Failed,    ///< retries exhausted / fleet extinct
};

}  // namespace

std::string
FleetReport::to_text(const std::string& title) const
{
    std::string s = total.to_text(title);
    char buf[160];
    const auto line = [&](const char* key, int64_t v) {
        std::snprintf(buf, sizeof(buf), "  %-22s %lld\n", key,
                      static_cast<long long>(v));
        s += buf;
    };
    line("shed", shed);
    line("evicted", evicted);
    line("failed", failed);
    line("double_served", double_served);
    line("retries", retries);
    line("failed_batches", failed_batches);
    line("deaths_detected", deaths_detected);
    line("rejoins", rejoins);
    line("failover_detect_budget", failover_detect_budget);
    line("generic_batches", generic_batches);
    line("swap_backs", swap_backs);
    for (size_t i = 0; i < replicas.size(); ++i) {
        const ReplicaStats& r = replicas[i];
        std::snprintf(buf, sizeof(buf),
                      "  replica[%zu]             batches=%lld "
                      "generic=%lld served=%lld failed_batches=%lld "
                      "rewires=%lld swaps=%lld swap_backs=%lld "
                      "deaths=%lld rejoins=%lld\n",
                      i, static_cast<long long>(r.batches),
                      static_cast<long long>(r.generic_batches),
                      static_cast<long long>(r.served),
                      static_cast<long long>(r.failed_batches),
                      static_cast<long long>(r.rewires),
                      static_cast<long long>(r.swaps),
                      static_cast<long long>(r.swap_backs),
                      static_cast<long long>(r.deaths),
                      static_cast<long long>(r.rejoins));
        s += buf;
    }
    return s;
}

ReplicaFleet::ReplicaFleet(FleetOptions opts)
    : opts_(std::move(opts))
{
    ASTRA_ASSERT(opts_.replicas >= 1);
    ASTRA_ASSERT(!opts_.base.bucket_lengths.empty());
    faults_ = opts_.faults.empty() ? opts_.base.astra.gpu.faults
                                   : opts_.faults;
    proto_ = std::make_unique<BucketedServer>(opts_.base);
    const int buckets =
        static_cast<int>(opts_.base.bucket_lengths.size());
    for (int i = 0; i < opts_.replicas; ++i) {
        ReplicaOptions ro;
        ro.id = i;
        ro.gpu = opts_.base.astra.gpu;
        if (static_cast<size_t>(i) < opts_.replica_clocks.size() &&
            !opts_.replica_clocks[static_cast<size_t>(i)].empty())
            ro.clock_schedule =
                opts_.replica_clocks[static_cast<size_t>(i)];
        else if (i == 0)
            ro.clock_schedule = opts_.base.clock_schedule;
        replicas_.push_back(
            std::make_unique<Replica>(std::move(ro), buckets));
    }
}

ReplicaFleet::~ReplicaFleet() = default;

Replica&
ReplicaFleet::replica(int i)
{
    ASTRA_ASSERT(i >= 0 && i < num_replicas());
    return *replicas_[static_cast<size_t>(i)];
}

const Replica&
ReplicaFleet::replica(int i) const
{
    ASTRA_ASSERT(i >= 0 && i < num_replicas());
    return *replicas_[static_cast<size_t>(i)];
}

int64_t
ReplicaFleet::optimize()
{
    obs::ScopedSpan span(obs::Category::Serve, "serve.fleet.optimize");
    // One wiring run for the whole fleet: identical DFG, identical
    // plan (the paper's predictability argument). Each replica gets
    // its own epoch-0 install of the shared blobs.
    std::vector<BucketedServer::BucketPlan> plans;
    const int64_t total = proto_->optimize(&plans);
    double max_baseline = 0.0;
    for (int b = 0; b < static_cast<int>(plans.size()); ++b) {
        const BucketedServer::BucketPlan& p =
            plans[static_cast<size_t>(b)];
        max_baseline = std::max(max_baseline, p.baseline_ns);
        for (auto& r : replicas_)
            r->install(b, p);
    }
    // One missed batch-time is ambiguity, two is a verdict.
    heartbeat_ns_ = 2.0 * max_baseline;
    optimized_ = true;
    return total;
}

FleetReport
ReplicaFleet::serve(const std::vector<ServeRequest>& traffic)
{
    static obs::Counter& c_deaths =
        obs::counter("serve.failover.deaths");
    static obs::Counter& c_rejoins =
        obs::counter("serve.failover.rejoins");
    static obs::Counter& c_retries =
        obs::counter("serve.failover.retries");
    static obs::Counter& c_failed =
        obs::counter("serve.failover.failed");
    static obs::Counter& c_shed = obs::counter("serve.failover.shed");
    static obs::Counter& c_evicted =
        obs::counter("serve.failover.evicted");
    static obs::Counter& c_generic =
        obs::counter("serve.failover.generic_batches");
    static obs::Counter& c_swap_back =
        obs::counter("serve.failover.swap_backs");
    static obs::Counter& c_swaps = obs::counter("serve.swaps");
    static obs::Counter& c_rewires = obs::counter("serve.rewires");
    static obs::Counter& c_detect =
        obs::counter("serve.drift_detections");
    static obs::Counter& c_reject = obs::counter("serve.rejected");

    ASTRA_ASSERT(optimized_, "call optimize() first");
    obs::ScopedSpan span(obs::Category::Serve, "serve.fleet.loop");

    const int G = num_replicas();
    const int buckets =
        static_cast<int>(opts_.base.bucket_lengths.size());
    FleetReport rep;
    rep.replicas.resize(static_cast<size_t>(G));
    rep.total.offered = static_cast<int64_t>(traffic.size());
    // Per-call state: every serve() starts at t=0 with fresh beliefs
    // and clocks (fault and clock schedules are absolute simulated
    // time), while installed plans persist across calls.
    for (auto& r : replicas_) {
        r->stats() = ReplicaStats{};
        r->set_health(ReplicaHealth::Healthy);
        r->reset_clock();
        for (int b = 0; b < buckets; ++b)
            r->set_degraded(b, false);
    }

    AdmissionQueue queue(proto_->router(), opts_.queue_capacity,
                         opts_.queue_policy);
    MetricsRecorder metrics;

    // The drift watcher's windows, one per (replica, bucket), so one
    // replica's drift never pollutes a peer's window.
    std::vector<DriftWindow> watch(static_cast<size_t>(G * buckets));

    // ---- exactly-once resolution table -------------------------------
    std::unordered_map<int64_t, Resolution> res;
    res.reserve(traffic.size());
    for (const ServeRequest& r : traffic)
        res.emplace(r.id, Resolution::Pending);
    ASTRA_ASSERT(res.size() == traffic.size(),
                 "traffic ids must be unique");
    int64_t resolved = 0;
    const auto resolve = [&](int64_t id, Resolution out) {
        auto it = res.find(id);
        ASTRA_ASSERT(it != res.end());
        if (it->second != Resolution::Pending) {
            if (out == Resolution::Served)
                ++rep.double_served;
            return false;
        }
        it->second = out;
        ++resolved;
        return true;
    };

    // ---- precomputed liveness timeline -------------------------------
    double horizon_ns = 0.0;
    for (const ServeRequest& r : traffic)
        horizon_ns = std::max(horizon_ns, r.deadline_ns);
    horizon_ns = horizon_ns * 4.0 + 1e10;

    std::vector<LiveEvent> live;
    double first_down_ns = -1.0;
    for (int i = 0; i < G; ++i) {
        const std::vector<double> edges =
            replica_transitions(faults_, i, horizon_ns);
        bool alive = replica_alive(faults_, i, 0.0);
        for (size_t k = 0; k < edges.size(); ++k) {
            if (alive) {
                alive = false;
                // A flap shorter than the heartbeat timeout never
                // misses a deadline: the router sees a failed batch at
                // worst, not a death.
                const double next_up =
                    k + 1 < edges.size() ? edges[k + 1] : -1.0;
                if (next_up < 0.0 ||
                    next_up >= edges[k] + heartbeat_ns_) {
                    live.push_back({edges[k] + heartbeat_ns_, i, true,
                                    edges[k]});
                    if (first_down_ns < 0.0 || edges[k] < first_down_ns)
                        first_down_ns = edges[k];
                }
            } else {
                alive = true;
                live.push_back({edges[k], i, false, edges[k]});
            }
        }
    }
    std::sort(live.begin(), live.end(),
              [](const LiveEvent& a, const LiveEvent& b) {
                  if (a.at_ns != b.at_ns)
                      return a.at_ns < b.at_ns;
                  if (a.replica != b.replica)
                      return a.replica < b.replica;
                  return a.death < b.death;
              });
    size_t next_live = 0;

    // ---- DES state ----------------------------------------------------
    std::vector<Flight> flights(static_cast<size_t>(G));
    std::vector<std::vector<PendingSwap>> pending(
        static_cast<size_t>(G),
        std::vector<PendingSwap>(static_cast<size_t>(buckets)));
    std::vector<RetryEntry> retries;
    std::unordered_map<int64_t, int> attempts;

    // Drift onset is the earliest on any replica; the budget then
    // counts fleet-wide completions up to the first detection.
    double drift_onset = -1.0;
    for (const auto& r : replicas_) {
        const double t = drift_onset_ns(r->clock_schedule());
        if (t >= 0.0 && (drift_onset < 0.0 || t < drift_onset))
            drift_onset = t;
    }

    double now_ns = 0.0;
    size_t next_arrival = 0;
    int64_t served_total = 0;
    int64_t served_at_down = -1;
    int64_t served_at_drift = -1;
    int64_t drift_detect_budget = -1;
    int64_t victims = 0;  ///< admitted-then-evicted (capacity losses)
    double last_completion_ns = 0.0;

    const auto backoff_ns = [&](int attempt) {
        return faults_.backoff_us * 1000.0 *
               std::pow(2.0, attempt - 1);
    };

    const auto declare_dead = [&](int i) {
        Replica& r = *replicas_[static_cast<size_t>(i)];
        if (r.health() == ReplicaHealth::Dead)
            return;
        r.set_health(ReplicaHealth::Dead);
        ++r.stats().deaths;
        ++rep.deaths_detected;
        c_deaths.add();
        if (rep.failover_detect_budget < 0 && served_at_down >= 0)
            rep.failover_detect_budget = served_total - served_at_down;
    };

    const auto fail_over = [&](const ServeRequest& req,
                               double detect_ns) {
        const int attempt = ++attempts[req.id];
        if (attempt > faults_.max_retries) {
            if (resolve(req.id, Resolution::Failed)) {
                ++rep.failed;
                c_failed.add();
            }
            return;
        }
        ++rep.retries;
        c_retries.add();
        retries.push_back({detect_ns + backoff_ns(attempt), req});
    };

    const auto admit_due = [&] {
        while (next_arrival < traffic.size() &&
               traffic[next_arrival].arrival_ns <= now_ns) {
            const ServeRequest& r = traffic[next_arrival];
            const int64_t rej_before = queue.rejected();
            const AdmitResult ar = queue.admit_bounded(r);
            if (ar.evicted) {
                if (resolve(ar.victim.id, Resolution::Evicted)) {
                    ++rep.evicted;
                    ++victims;
                    c_evicted.add();
                }
            }
            if (!ar.admitted) {
                if (queue.rejected() > rej_before) {
                    resolve(r.id, Resolution::Rejected);
                } else if (resolve(r.id, Resolution::Evicted)) {
                    ++rep.evicted;
                    c_evicted.add();
                }
            }
            ++next_arrival;
        }
    };

    const auto release_due_retries = [&] {
        std::vector<ServeRequest> due;
        for (auto it = retries.begin(); it != retries.end();) {
            if (it->ready_ns <= now_ns) {
                due.push_back(it->req);
                it = retries.erase(it);
            } else {
                ++it;
            }
        }
        // requeue() pushes at the front; insert youngest-first so the
        // oldest request ends up at the very head.
        std::sort(due.begin(), due.end(),
                  [](const ServeRequest& a, const ServeRequest& b) {
                      if (a.arrival_ns != b.arrival_ns)
                          return a.arrival_ns > b.arrival_ns;
                      return a.id > b.id;
                  });
        for (const ServeRequest& r : due)
            queue.requeue(r);
    };

    const auto process_live = [&] {
        while (next_live < live.size() &&
               live[next_live].at_ns <= now_ns) {
            const LiveEvent& e = live[next_live++];
            Replica& r = *replicas_[static_cast<size_t>(e.replica)];
            if (e.death) {
                declare_dead(e.replica);
            } else if (r.health() == ReplicaHealth::Dead) {
                r.set_health(r.any_degraded() ? ReplicaHealth::Degraded
                                              : ReplicaHealth::Healthy);
                ++r.stats().rejoins;
                ++rep.rejoins;
                c_rejoins.add();
            }
        }
    };

    const auto process_flights = [&] {
        for (int i = 0; i < G; ++i) {
            Flight& f = flights[static_cast<size_t>(i)];
            if (!f.active || f.event_ns > now_ns)
                continue;
            Replica& r = *replicas_[static_cast<size_t>(i)];
            ReplicaStats& rs = r.stats();
            if (f.fails) {
                // The batch died with its replica: every request fails
                // over (bounded retry), nothing completes here.
                ++rs.failed_batches;
                ++rep.failed_batches;
                for (const ServeRequest& req : f.reqs)
                    fail_over(req, f.event_ns);
                // Continuously down past the heartbeat deadline means
                // this is a death, not a blip; the scheduled liveness
                // event agrees (declare_dead is idempotent).
                if (!r.alive_at(faults_, f.event_ns))
                    declare_dead(i);
                f.active = false;
                continue;
            }
            int64_t real_tokens = 0;
            for (const ServeRequest& req : f.reqs)
                real_tokens += req.length;
            const int bucket_len =
                opts_.base
                    .bucket_lengths[static_cast<size_t>(f.bucket)];
            metrics.batch(static_cast<int>(f.reqs.size()),
                          opts_.base.max_batch, real_tokens,
                          bucket_len);
            ++rs.batches;
            if (f.generic) {
                ++rs.generic_batches;
                ++rep.generic_batches;
                c_generic.add();
            }
            for (const ServeRequest& req : f.reqs) {
                if (resolve(req.id, Resolution::Served)) {
                    metrics.complete(f.end_ns - req.arrival_ns,
                                     f.end_ns > req.deadline_ns);
                    ++served_total;
                    ++rs.served;
                }
            }
            last_completion_ns =
                std::max(last_completion_ns, f.end_ns);
            if (opts_.base.record_batches) {
                BatchRecord brec;
                brec.bucket = f.bucket;
                brec.size = static_cast<int>(f.reqs.size());
                brec.start_ns = f.start_ns;
                brec.end_ns = f.end_ns;
                brec.plan_epoch = f.plan_epoch;
                brec.config_fnv = f.config_fnv;
                rep.total.batch_log.push_back(brec);
            }

            // Drift watcher (wired path only: a degraded bucket is
            // already invalidated and re-wiring).
            PendingSwap& swap = pending[static_cast<size_t>(i)]
                                       [static_cast<size_t>(f.bucket)];
            if (opts_.base.watcher.enabled && !f.generic && !swap.active &&
                watch[static_cast<size_t>(i * buckets + f.bucket)].drifted(
                    f.plan_epoch, f.service_ns,
                    opts_.base.watcher.min_window, f.baseline_ns)) {
                // Invalidate the blob: this bucket degrades to generic
                // dispatch while the re-wire runs off-path.
                ++rep.total.drift_detections;
                c_detect.add();
                if (drift_detect_budget < 0 && served_at_drift >= 0)
                    drift_detect_budget = served_total - served_at_drift;
                r.set_degraded(f.bucket, true);
                if (r.health() == ReplicaHealth::Healthy)
                    r.set_health(ReplicaHealth::Degraded);
                swap.plan = proto_->rewire(f.bucket, r.gpu_at(f.end_ns));
                swap.ready_ns = f.end_ns + opts_.base.rewire_latency_ns;
                swap.active = true;
                ++rs.rewires;
                ++rep.total.rewires;
                c_rewires.add();
            }
            f.active = false;
        }
    };

    // ---- the DES loop -------------------------------------------------
    while (resolved < rep.total.offered) {
        if (first_down_ns >= 0.0 && now_ns >= first_down_ns &&
            served_at_down < 0)
            served_at_down = served_total;
        process_flights();
        process_live();
        admit_due();
        release_due_retries();

        // Dispatch onto every idle, routable replica.
        bool waiting_for_arrivals = false;
        for (int i = 0; i < G && !waiting_for_arrivals; ++i) {
            Replica& r = *replicas_[static_cast<size_t>(i)];
            if (flights[static_cast<size_t>(i)].active ||
                r.health() == ReplicaHealth::Dead)
                continue;
            for (;;) {
                const int b = queue.most_urgent_bucket();
                if (b < 0)
                    break;

                // Pending hot-swap lands at the batch boundary: the
                // swap-back is what ends a bucket's degradation.
                PendingSwap& swap = pending[static_cast<size_t>(i)]
                                           [static_cast<size_t>(b)];
                if (swap.active && now_ns >= swap.ready_ns) {
                    const bool was_degraded = r.degraded(b);
                    r.install(b, std::move(swap.plan));
                    swap.active = false;
                    ++r.stats().swaps;
                    ++rep.total.swaps;
                    c_swaps.add();
                    if (was_degraded) {
                        r.set_degraded(b, false);
                        ++r.stats().swap_backs;
                        ++rep.swap_backs;
                        c_swap_back.add();
                        if (r.health() == ReplicaHealth::Degraded &&
                            !r.any_degraded())
                            r.set_health(ReplicaHealth::Healthy);
                    }
                }

                const BucketedServer::BucketPlan p = r.plan(b);

                // EDF goodput rule: before spending a batch, shed
                // requests that cannot make their deadline even if
                // launched right now.
                if (opts_.queue_policy == QueuePolicy::EdfShed) {
                    const std::vector<ServeRequest> hopeless =
                        queue.shed_hopeless(b, now_ns, p.baseline_ns);
                    for (const ServeRequest& sreq : hopeless) {
                        if (resolve(sreq.id, Resolution::Shed)) {
                            ++rep.shed;
                            c_shed.add();
                        }
                    }
                    if (queue.depth(b) == 0)
                        continue;  // bucket emptied; re-pick
                }

                // Dynamic batching: a partial batch waits for more
                // arrivals while the head request's slack still covers
                // the expected service time plus the patience margin.
                const double launch_by =
                    queue.head(b).deadline_ns -
                    (1.0 + kBatchWaitFrac) * p.baseline_ns;
                if (static_cast<int>(queue.depth(b)) <
                        opts_.base.max_batch &&
                    next_arrival < traffic.size() &&
                    now_ns < launch_by &&
                    traffic[next_arrival].arrival_ns <= launch_by) {
                    waiting_for_arrivals = true;
                    break;
                }

                // Batch boundary: clock steps land, and the drift
                // budget starts counting here.
                if (drift_onset >= 0.0 && now_ns >= drift_onset &&
                    served_at_drift < 0)
                    served_at_drift = served_total;
                const GpuConfig& gpu = r.gpu_at(now_ns);
                const std::vector<ServeRequest> batch =
                    queue.pop_batch(b, opts_.base.max_batch);
                const int bucket_len =
                    opts_.base
                        .bucket_lengths[static_cast<size_t>(b)];
                const bool generic = r.degraded(b);
                DispatchResult dr;
                {
                    obs::ScopedSpan batch_span(
                        obs::Category::Serve,
                        "serve.batch.r" + std::to_string(i) + ".b" +
                            std::to_string(bucket_len),
                        /*lane=*/i);
                    if (generic) {
                        // Invalidated blob: never replay it.
                        // dispatch_plan binds the plan afresh and runs
                        // it through the same engine — identical
                        // simulated semantics, no stale compiled
                        // stream.
                        const AstraSession& s =
                            proto_->router().session(b);
                        dr = dispatch_plan(
                            s.scheduler().build(p.config), s.graph(),
                            s.tensor_map(p.config.strategy), gpu);
                    } else {
                        dr = replay_wired(*p.binary, gpu);
                    }
                }

                Flight& f = flights[static_cast<size_t>(i)];
                f.active = true;
                f.bucket = b;
                f.reqs = batch;
                f.start_ns = now_ns;
                f.end_ns = now_ns + dr.total_ns;
                f.service_ns = dr.total_ns;
                f.baseline_ns = p.baseline_ns;
                f.plan_epoch = p.epoch;
                f.config_fnv = p.config_fnv;
                f.generic = generic;
                // Ground truth decides the outcome: if the replica is
                // down at any point under the batch, the batch is lost
                // and the router finds out at the heartbeat deadline.
                const double down =
                    first_down_in(faults_, i, f.start_ns, f.end_ns);
                f.fails = down >= 0.0;
                f.event_ns =
                    f.fails ? down + heartbeat_ns_ : f.end_ns;
                break;
            }
        }

        // Advance to the next event.
        double t_next = kInf;
        if (next_arrival < traffic.size())
            t_next = std::min(t_next,
                              traffic[next_arrival].arrival_ns);
        for (const RetryEntry& e : retries)
            t_next = std::min(t_next, e.ready_ns);
        for (const Flight& f : flights)
            if (f.active)
                t_next = std::min(t_next, f.event_ns);
        if (next_live < live.size())
            t_next = std::min(t_next, live[next_live].at_ns);

        if (t_next == kInf) {
            // Nothing can ever happen again (typically: the whole
            // fleet is down with no revival scheduled). Every request
            // still holding a slot resolves as failed — lost requests
            // are a counted outcome, never a silent one.
            while (!queue.empty()) {
                const int b = queue.most_urgent_bucket();
                for (const ServeRequest& req :
                     queue.pop_batch(b, 1 << 20)) {
                    if (resolve(req.id, Resolution::Failed)) {
                        ++rep.failed;
                        c_failed.add();
                    }
                }
            }
            for (const RetryEntry& e : retries) {
                if (resolve(e.req.id, Resolution::Failed)) {
                    ++rep.failed;
                    c_failed.add();
                }
            }
            retries.clear();
            break;
        }
        if (t_next > now_ns)
            now_ns = t_next;
        else if (queue.empty() && next_arrival < traffic.size())
            now_ns = std::max(now_ns,
                              traffic[next_arrival].arrival_ns);
    }

    rep.total.admitted = queue.admitted();
    rep.total.rejected = queue.rejected();
    c_reject.add(rep.total.rejected);
    rep.total.makespan_ns = last_completion_ns;
    rep.total.detection_request_budget = drift_detect_budget;
    metrics.finalize(&rep.total);
    // Exactly-once audit: every admitted request ended exactly one
    // way — served, shed as hopeless, failed out, or evicted by the
    // capacity bound. Anything left over was *lost*, which the chaos
    // gates require to be zero.
    rep.total.dropped = rep.total.admitted - rep.total.served -
                        rep.shed - rep.failed - victims;
    for (int i = 0; i < G; ++i)
        rep.replicas[static_cast<size_t>(i)] =
            replicas_[static_cast<size_t>(i)]->stats();
    return rep;
}

}  // namespace astra::serve
