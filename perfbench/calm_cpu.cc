/**
 * @file
 * Keep the benchmark on the least-contended CPU it may run on.
 *
 * On a shared host, a core's SMT sibling is busy with other tenants'
 * work in bursts (seconds to minutes) that slow every step here about
 * 2x, and at a given moment the CPUs differ: often one is calm.
 * settle_cpu() times a small fixed probe (sorting a seeded array) on
 * every allowed CPU and pins the process to the fastest, at most once
 * per kRepickS. The probe is independent of the code under test and
 * runs only between measured intervals.
 */
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "perfbench.h"
#include "support/rng.h"

namespace perfbench {

namespace {

constexpr double kRepickS = 1.0;
constexpr size_t kProbeElems = 16384;
constexpr int kProbeRepeats = 3;

std::vector<int>
allowed_cpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    return cpus;
}

bool
pin(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/** Fastest of kProbeRepeats sorts of a fixed array, in seconds. */
double
probe_s()
{
    static const std::vector<uint32_t> input = [] {
        astra::Rng rng(1);
        std::vector<uint32_t> v(kProbeElems);
        for (uint32_t& x : v)
            x = static_cast<uint32_t>(rng.next_u64());
        return v;
    }();
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kProbeRepeats; ++r) {
        std::vector<uint32_t> v = input;
        const Stopwatch sw;
        std::sort(v.begin(), v.end());
        best = std::min(best, sw.seconds());
    }
    return best;
}

}  // namespace

void
settle_cpu()
{
    static const std::vector<int> cpus = allowed_cpus();
    static Stopwatch since_pick;
    static bool picked = false;
    if (cpus.size() < 2 || (picked && since_pick.seconds() < kRepickS))
        return;
    astra::obs::ScopedSpan span(astra::obs::Category::Dispatch,
                                "bench.settle_cpu");
    int best_cpu = -1;
    double best_s = std::numeric_limits<double>::infinity();
    for (int cpu : cpus) {
        if (!pin(cpu))
            continue;
        const double s = probe_s();
        if (s < best_s) {
            best_s = s;
            best_cpu = cpu;
        }
    }
    if (best_cpu >= 0)
        pin(best_cpu);
    picked = true;
    since_pick = Stopwatch();
}

}  // namespace perfbench
