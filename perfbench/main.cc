/**
 * @file
 * Repo benchmark program. Normally started through perfbench/run.py,
 * which builds it and selects the metric set BENCHMARK.json names:
 *
 *   perfbench --workload wire_cold|wire_whatif|serve_fleet
 *             --seed N --seconds S --trace 0|1
 *
 * Prints a human-readable report, then one line
 *   PERFBENCH_RESULT {"correct": ..., "attempted": ..., "failed": ...,
 *                     "metrics": {...}}
 * and exits 1 when any output check failed, 2 on a usage error.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench.h"

namespace perfbench {

void
Report::set(const std::string& name, double value, const std::string& unit)
{
    metrics_[name] = Metric{value, unit};
}

bool
Report::check(bool ok, const std::string& what)
{
    if (!ok) {
        ++failed_;
        std::printf("FAIL: %s\n", what.c_str());
    }
    return ok;
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<int64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
        // JSON has no NaN/inf; a non-finite value is a benchmark bug.
        const double v = std::isfinite(m.value) ? m.value : -1.0;
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << v << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

double
host_estimate(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[(samples.size() - 1) / 10];
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
peak_rss_mb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

astra::AstraOptions
hermetic_options()
{
    astra::AstraOptions opts;
    opts.gpu.execute_kernels = false;
    opts.gpu.autoboost = false;
    opts.gpu.faults = astra::FaultPlan();
    opts.plan_store.clear();
    opts.wirer_threads = 1;
    return opts;
}

}  // namespace perfbench

namespace {

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "wire_cold|wire_whatif|serve_fleet --seed N "
                 "--seconds S --trace 0|1\n",
                 why);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        if (arg == "--workload")
            args.workload = val;
        else if (arg == "--seed")
            args.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            args.seconds = std::atof(val.c_str());
        else if (arg == "--trace")
            args.trace = val == "1";
        else
            return usage(("unknown flag " + arg).c_str());
    }
    if (args.seconds <= 0.0)
        return usage("--seconds must be positive");

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%ld\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN));

    Report rep;
    int rc = 0;
    if (args.workload == "wire_cold")
        rc = run_wire(args, /*whatif=*/false, rep);
    else if (args.workload == "wire_whatif")
        rc = run_wire(args, /*whatif=*/true, rep);
    else if (args.workload == "serve_fleet")
        rc = run_serve(args, rep);
    else
        return usage(("unknown workload '" + args.workload + "'").c_str());
    if (rc != 0)
        return rc;

    std::cout << "PERFBENCH_RESULT " << rep.json() << std::endl;
    return rep.correct() ? 0 : 1;
}
