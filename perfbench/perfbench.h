/**
 * @file
 * Shared pieces of the repo benchmark program (perfbench/README.md).
 *
 * The benchmark measures the Astra libraries strictly from outside: it
 * times its own calls into public entry points and, in a traced run,
 * reads the obs spans and counters the libraries already record. Every
 * measured run reports into one Report, which run.py turns into the
 * benchmark's JSON result line.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/astra.h"
#include "obs/obs.h"

namespace perfbench {

/** Command-line arguments of one benchmark run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Metrics, output checks and operation tallies of one run. */
class Report
{
  public:
    /** Record a metric (the last value for a name wins). */
    void set(const std::string& name, double value, const std::string& unit);

    /** Count one checked outcome; prints a FAIL line when !ok. */
    bool check(bool ok, const std::string& what);

    /** Count operations performed and verified by the run. */
    void attempted(int64_t n) { attempted_ += n; }

    bool correct() const { return failed_ == 0; }

    /** One-line JSON: {"correct", "attempted", "failed", "metrics"}. */
    std::string json() const;

  private:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

/** Wall-clock seconds since construction (steady clock). */
class Stopwatch
{
  public:
    double seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/**
 * The host-time statistic of a run's internal repetitions: their 10th
 * percentile (nearest rank, so the fastest of up to ten; 0 when empty).
 * Contention on a shared host arrives in bursts that slow every step
 * about 2x, so samples are bimodal and their median flips between the
 * modes from run to run; the low percentile tracks the uncontended cost.
 */
double host_estimate(std::vector<double> samples);

double geomean(const std::vector<double>& v);

/** Peak resident set size of this process, in MB. */
double peak_rss_mb();

/**
 * Pin the process to the least-contended allowed CPU (calm_cpu.cc), at
 * most once a second. Call it only between measured intervals.
 */
void settle_cpu();

/**
 * Session options every workload pins: timing-only device at base
 * clock, no fault injection, no plan store, one wirer thread. Nothing
 * is taken from ASTRA_* environment variables.
 */
astra::AstraOptions hermetic_options();

// ---- traced-run attribution (spans.cc) ------------------------------

/** Count, total and self time of one (normalized) span name. */
struct SpanStats
{
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};

/** Name of the benchmark's root span around one measured pass. */
inline constexpr const char* kRootSpan = "bench.pass";

/**
 * Aggregate the recorded host spans by name. Per-instance suffixes
 * (serve.batch.r0.b8, wirer.strategy.<key>) fold into their family.
 * Self time is a span's duration minus the spans nested directly in
 * it; nesting is by time interval, which is exact here because every
 * workload runs its spans on one thread or in fork-join with the
 * caller blocked (wirer_threads = 1).
 */
std::map<std::string, SpanStats> aggregate_spans();

/**
 * Report per-layer metrics of a traced pass: the named layers' totals
 * and self times, the traced wall (the root span), the unattributed
 * remainder and the trace overhead against `untraced_wall_s`. Prints
 * the attribution table.
 */
void report_attribution(const std::map<std::string, SpanStats>& spans,
                        double untraced_wall_s, Report& rep);

/**
 * Wiring trials (measured mini-batches + what-if replays), the measured
 * share of them, replays and predictor prunes over `results`.
 */
void report_wirer_counts(const std::vector<astra::WirerResult>& results,
                         Report& rep);

// ---- per-call layer probes and output checks (probes.cc) -------------

/** Host microseconds per call of each probed layer, per winner. */
struct ProbeTimes
{
    std::vector<double> build_us, compile_us, dispatch_us, enqueue_us,
        sim_us, evaluate_us, lower_us, replay_us;
};

/**
 * Time `calls` calls each of Scheduler::build, compile_plan,
 * dispatch_plan, WhatIfEngine::evaluate, lower_plan and replay_wired on
 * one winner, appending the per-winner estimates to `times`, and check
 * that re-dispatching the winner reproduces `best_ns` bit for bit, that
 * lower + replay matches dispatch (total and per-key profile), and that
 * the what-if replay matches dispatch's total.
 */
void probe_winner(const astra::AstraSession& session,
                  const astra::WirerResult& result, const std::string& label,
                  int calls, ProbeTimes& times, Report& rep);

/** Sums over winners of the probe estimates, as per-layer metrics. */
void report_probes(const ProbeTimes& times, Report& rep);

/** FNV-1a of a configuration's canonical text, as 16 hex digits. */
std::string config_fnv(const astra::ScheduleConfig& config);

// ---- workloads ------------------------------------------------------

/** wire_cold (whatif = false) and wire_whatif (whatif = true). */
int run_wire(const Args& args, bool whatif, Report& rep);

/** serve_fleet. */
int run_serve(const Args& args, Report& rep);

}  // namespace perfbench
