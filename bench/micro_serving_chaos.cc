/**
 * @file
 * Gates the multi-replica serving fleet (src/serve/router.h) under
 * injected replica faults — all deterministic under fixed seeds, so
 * every count below is pinned, not approximate:
 *
 *  1. Armed-but-silent fleet: a 1-replica fleet whose replica-death
 *     spec never fires inside the trace must match an unarmed
 *     1-replica fleet within 1% p99 (failure detection is free when
 *     nothing fails).
 *  2. Replica death: a 3-replica fleet loses one replica mid-burst.
 *     Zero requests lost, zero double-served, the death detected
 *     within a pinned completion budget of the heartbeat deadline.
 *  3. Overload shedding: a 2-replica fleet under ~2x capacity with a
 *     bounded queue — the EDF/goodput-aware drop rule must beat FIFO
 *     tail-drop goodput strictly.
 *  4. Determinism: repeating the death scenario on the same fleet
 *     reproduces every counter bit-identically.
 *
 * Exits non-zero on any gate failure so CI runs it as a check
 * (--smoke shortens the traffic).
 */
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "serve/router.h"

using namespace astra;
using namespace astra::bench;

namespace {

/** Simulated-seconds scale of the generated traces (batch times). */
double g_duration_batches = 300.0;

/** Completions allowed between a down edge and its detection. */
constexpr int64_t kFailoverBudget = 48;

LengthGraphFn
scrnn_builder()
{
    return [](GraphBuilder& b, int length) {
        ModelConfig cfg;
        cfg.batch = 4;
        cfg.seq_len = length;
        cfg.hidden = 32;
        cfg.embed_dim = 32;
        cfg.vocab = 50;
        BuiltModel m = build_model(ModelKind::Scrnn, cfg);
        b = std::move(*m.builder);
    };
}

std::string
fresh_store(const char* name)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

serve::ServeOptions
base_options(const Env& env, const std::string& store)
{
    serve::ServeOptions so;
    so.bucket_lengths = {4, 6, 8};
    so.build = scrnn_builder();
    so.astra.gpu = env.gpu;
    so.astra.sched = env.sched;
    so.astra.features = features_fk();
    // The chaos gates assert exact counts; pin out the environment's
    // noise and fault matrices — replica faults arrive through
    // FleetOptions::faults, never through the device injector.
    so.astra.gpu.autoboost = false;
    so.astra.gpu.faults = FaultPlan();
    so.astra.plan_store = store;
    so.max_batch = 4;
    return so;
}

serve::TrafficConfig
calibrated_traffic(double batch_ns, double load_frac, uint64_t seed)
{
    serve::TrafficConfig cfg;
    cfg.duration_ns = g_duration_batches * batch_ns;
    cfg.base_rps = load_frac * 4.0 * 1e9 / batch_ns;
    cfg.slo_ns = 30.0 * batch_ns;
    cfg.length_div = 10;
    cfg.seed = seed;
    cfg.bursts.push_back(
        {0.4 * cfg.duration_ns, 0.6 * cfg.duration_ns, 2.0});
    return cfg;
}

bool
gate(bool ok, const char* what)
{
    if (!ok)
        std::printf("FAIL: %s\n", what);
    return ok;
}

}  // namespace

int
main(int argc, char** argv)
{
    init_observability(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            g_duration_batches = 160.0;

    Env env;
    bool ok = true;

    // ---- scenario 1: armed-but-silent fleet vs unarmed fleet ---------
    serve::FleetOptions unarmed_opts;
    unarmed_opts.base =
        base_options(env, fresh_store("astra_chaos_unarmed"));
    unarmed_opts.replicas = 1;
    serve::ReplicaFleet unarmed(unarmed_opts);
    const int64_t explored = unarmed.optimize();
    const double batch_ns =
        unarmed.replica(0)
            .plan(static_cast<int>(
                      unarmed_opts.base.bucket_lengths.size()) -
                  1)
            .baseline_ns;

    const serve::TrafficConfig calm_cfg =
        calibrated_traffic(batch_ns, 0.35, 23);
    const auto calm_traffic = serve::generate_traffic(calm_cfg);
    const serve::FleetReport unarmed_rep = unarmed.serve(calm_traffic);

    serve::FleetOptions silent_opts;
    silent_opts.base =
        base_options(env, fresh_store("astra_chaos_silent"));
    silent_opts.replicas = 1;
    // Armed: a death spec exists, but fires far past the trace.
    std::string err;
    bool parsed = FaultPlan::parse("replica_death:r=0,at_ns=1e17",
                                   &silent_opts.faults, &err);
    ok &= gate(parsed, "silent-fleet fault spec failed to parse");
    serve::ReplicaFleet silent(silent_opts);
    silent.optimize();
    const serve::FleetReport silent_rep = silent.serve(calm_traffic);
    std::printf("%s\n",
                silent_rep.to_text("armed-but-silent fleet (1 replica)")
                    .c_str());

    // ---- scenario 2: replica death mid-burst --------------------------
    serve::FleetOptions death_opts;
    death_opts.base =
        base_options(env, fresh_store("astra_chaos_death"));
    death_opts.replicas = 3;
    // ~70% per replica at base rate, ~140% through the burst: every
    // replica carries a strictly growing backlog when the death lands
    // mid-burst, so replica 1 is mid-batch and the failover path (not
    // just detection) is exercised.
    const serve::TrafficConfig fleet_cfg =
        calibrated_traffic(batch_ns, 0.7 * 3.0, 29);
    const double death_at = 0.45 * fleet_cfg.duration_ns;
    parsed = FaultPlan::parse(
        "replica_death:r=1,at_ns=" + std::to_string(death_at),
        &death_opts.faults, &err);
    ok &= gate(parsed, "death fault spec failed to parse");
    serve::ReplicaFleet fleet(death_opts);
    fleet.optimize();
    const auto fleet_traffic = serve::generate_traffic(fleet_cfg);
    const serve::FleetReport death_rep = fleet.serve(fleet_traffic);
    std::printf("%s\n",
                death_rep.to_text("replica 1 death mid-burst "
                                  "(3 replicas)")
                    .c_str());

    // ---- scenario 4 (same fleet): bit-identical repeat ----------------
    const serve::FleetReport repeat_rep = fleet.serve(fleet_traffic);

    // ---- scenario 3: overload, EDF shed vs FIFO overflow --------------
    // 2x the 2-replica fleet's capacity, a queue deep enough to hold
    // ~16 batches of backlog, and an SLO of only 8 batch times: a
    // request admitted at the tail of a full queue is already doomed.
    // FIFO dutifully serves it late (a miss that burned a slot); EDF
    // sheds it and spends the slot on a request that can still win.
    serve::TrafficConfig load_cfg =
        calibrated_traffic(batch_ns, 2.0 * 2.0, 31);
    load_cfg.slo_ns = 8.0 * batch_ns;
    const auto load_traffic = serve::generate_traffic(load_cfg);

    serve::FleetOptions edf_opts;
    edf_opts.base = base_options(env, fresh_store("astra_chaos_edf"));
    edf_opts.replicas = 2;
    edf_opts.queue_capacity = 64;
    edf_opts.queue_policy = serve::QueuePolicy::EdfShed;
    serve::ReplicaFleet edf(edf_opts);
    edf.optimize();
    const serve::FleetReport edf_rep = edf.serve(load_traffic);
    std::printf("%s\n",
                edf_rep.to_text("overload 2x, EDF shed").c_str());

    serve::FleetOptions fifo_opts;
    fifo_opts.base =
        base_options(env, fresh_store("astra_chaos_fifo"));
    fifo_opts.replicas = 2;
    fifo_opts.queue_capacity = 64;
    fifo_opts.queue_policy = serve::QueuePolicy::FifoOverflow;
    serve::ReplicaFleet fifo(fifo_opts);
    fifo.optimize();
    const serve::FleetReport fifo_rep = fifo.serve(load_traffic);
    std::printf("%s\n",
                fifo_rep.to_text("overload 2x, FIFO overflow").c_str());

    // ---- summary table -----------------------------------------------
    TextTable table(
        "Micro: multi-replica serving chaos (gates: silent fleet "
        "<= 1% p99 vs unarmed fleet; death -> zero lost / zero "
        "double-served / bounded detection; EDF goodput > FIFO; "
        "bit-identical repeat)");
    table.set_header({"Scenario", "p99 ms", "goodput rps", "lost",
                      "failed", "detect budget"});
    const auto row = [&](const char* name,
                         const serve::FleetReport& r) {
        table.add_row(
            name,
            {r.total.p99_ns / 1e6, r.total.goodput_rps,
             static_cast<double>(r.total.dropped),
             static_cast<double>(r.failed),
             static_cast<double>(r.failover_detect_budget)});
    };
    row("unarmed fleet (1 replica)", unarmed_rep);
    row("armed-but-silent fleet", silent_rep);
    row("replica death (3 replicas)", death_rep);
    row("overload EDF shed", edf_rep);
    row("overload FIFO overflow", fifo_rep);
    table.print();
    std::printf("exploration mini-batches (unarmed fleet): %lld\n",
                static_cast<long long>(explored));

    // ---- gates: silent fleet parity -----------------------------------
    ok &= gate(silent_rep.total.served == unarmed_rep.total.served &&
                   silent_rep.total.dropped == 0,
               "silent fleet served a different request count");
    ok &= gate(silent_rep.deaths_detected == 0 &&
                   silent_rep.retries == 0,
               "silent fleet saw phantom failures");
    ok &= gate(unarmed_rep.total.p99_ns > 0.0 &&
                   silent_rep.total.p99_ns <=
                       1.01 * unarmed_rep.total.p99_ns &&
                   silent_rep.total.p99_ns >=
                       0.99 * unarmed_rep.total.p99_ns,
               "silent fleet p99 drifted >1% from the unarmed fleet");

    // ---- gates: replica death -----------------------------------------
    ok &= gate(death_rep.total.dropped == 0,
               "death scenario lost requests");
    ok &= gate(death_rep.double_served == 0,
               "death scenario double-served requests");
    ok &= gate(death_rep.failed == 0,
               "death scenario exhausted retries");
    ok &= gate(death_rep.deaths_detected == 1,
               "death never detected (or detected twice)");
    ok &= gate(death_rep.failed_batches >= 1 &&
                   death_rep.retries >= 1,
               "death scenario never exercised failover");
    ok &= gate(death_rep.failover_detect_budget >= 0 &&
                   death_rep.failover_detect_budget <= kFailoverBudget,
               "failover detection exceeded the completion budget");
    ok &= gate(death_rep.total.served + death_rep.total.rejected +
                       death_rep.shed + death_rep.evicted +
                       death_rep.failed ==
                   death_rep.total.offered,
               "death scenario resolution accounting does not add up");

    // ---- gates: overload shedding -------------------------------------
    ok &= gate(edf_rep.shed + edf_rep.evicted > 0,
               "EDF scenario never shed under 2x overload");
    ok &= gate(edf_rep.total.goodput_rps > fifo_rep.total.goodput_rps,
               "EDF shed goodput not above FIFO overflow");
    ok &= gate(edf_rep.total.dropped == 0 &&
                   fifo_rep.total.dropped == 0,
               "overload scenario lost requests outside the shed path");

    // ---- gates: bit-identical repeat ----------------------------------
    const bool identical =
        repeat_rep.total.served == death_rep.total.served &&
        repeat_rep.total.p99_ns == death_rep.total.p99_ns &&
        repeat_rep.total.makespan_ns == death_rep.total.makespan_ns &&
        repeat_rep.retries == death_rep.retries &&
        repeat_rep.failed_batches == death_rep.failed_batches &&
        repeat_rep.deaths_detected == death_rep.deaths_detected &&
        repeat_rep.failover_detect_budget ==
            death_rep.failover_detect_budget &&
        repeat_rep.shed == death_rep.shed &&
        repeat_rep.evicted == death_rep.evicted &&
        repeat_rep.failed == death_rep.failed &&
        repeat_rep.double_served == death_rep.double_served;
    ok &= gate(identical, "repeat run diverged (lost determinism)");
    bool replicas_identical =
        repeat_rep.replicas.size() == death_rep.replicas.size();
    for (size_t i = 0;
         replicas_identical && i < death_rep.replicas.size(); ++i) {
        replicas_identical =
            repeat_rep.replicas[i].batches ==
                death_rep.replicas[i].batches &&
            repeat_rep.replicas[i].served ==
                death_rep.replicas[i].served &&
            repeat_rep.replicas[i].failed_batches ==
                death_rep.replicas[i].failed_batches &&
            repeat_rep.replicas[i].deaths ==
                death_rep.replicas[i].deaths;
    }
    ok &= gate(replicas_identical,
               "per-replica counters diverged across repeats");

    return ok ? 0 : 1;
}
