/**
 * @file
 * Traced-run attribution: aggregate obs host spans into per-layer
 * count / total / self time, and report the named layers against the
 * traced wall.
 */
#include <algorithm>
#include <cstdio>

#include "perfbench.h"

namespace perfbench {

namespace {

/** Fold per-instance span names into their family. */
std::string
family(const std::string& name)
{
    for (const std::string prefix : {"serve.batch", "wirer.strategy"})
        if (name.rfind(prefix + ".", 0) == 0)
            return prefix;
    return name;
}

const SpanStats&
get(const std::map<std::string, SpanStats>& spans, const std::string& name)
{
    static const SpanStats kNone;
    const auto it = spans.find(name);
    return it == spans.end() ? kNone : it->second;
}

/** Plan-cache hit rate from the scheduler's obs counters. */
double
plan_cache_hit_rate()
{
    const auto counters = astra::obs::counter_values();
    const auto value = [&](const char* name) {
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double hits = value("scheduler.plan_cache.hits");
    const double misses = value("scheduler.plan_cache.misses");
    return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

}  // namespace

std::map<std::string, SpanStats>
aggregate_spans()
{
    std::vector<astra::obs::Span> spans = astra::obs::host_spans();
    std::sort(spans.begin(), spans.end(),
              [](const astra::obs::Span& a, const astra::obs::Span& b) {
                  if (a.start_ns != b.start_ns)
                      return a.start_ns < b.start_ns;
                  return a.end_ns > b.end_ns;  // parents before children
              });
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<size_t> open;  // stack of enclosing spans
    for (size_t i = 0; i < spans.size(); ++i) {
        while (!open.empty() && spans[open.back()].end_ns <= spans[i].start_ns)
            open.pop_back();
        if (!open.empty() && spans[i].end_ns <= spans[open.back()].end_ns)
            child_ns[open.back()] += spans[i].end_ns - spans[i].start_ns;
        open.push_back(i);
    }
    std::map<std::string, SpanStats> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        SpanStats& s = out[family(spans[i].name)];
        const double dur = spans[i].end_ns - spans[i].start_ns;
        ++s.count;
        s.total_s += dur * 1e-9;
        s.self_s += (dur - child_ns[i]) * 1e-9;
    }
    return out;
}

void
report_attribution(const std::map<std::string, SpanStats>& spans,
                   double untraced_wall_s, Report& rep)
{
    const SpanStats& root = get(spans, kRootSpan);
    const double wall = root.total_s;
    std::printf("\ntraced attribution (self time per span family; wall "
                "%.3f s):\n  %-32s %8s %10s %10s %7s\n",
                wall, "span", "count", "total s", "self s", "share");
    for (const auto& [name, s] : spans) {
        if (name == kRootSpan)
            continue;
        std::printf("  %-32s %8lld %10.4f %10.4f %6.1f%%\n", name.c_str(),
                    static_cast<long long>(s.count), s.total_s, s.self_s,
                    wall > 0.0 ? 100.0 * s.self_s / wall : 0.0);
    }
    std::printf("  %-32s %8s %10s %10.4f %6.1f%%\n", "(unattributed)", "", "",
                root.self_s, wall > 0.0 ? 100.0 * root.self_s / wall : 0.0);

    double wirer_self = 0.0;
    for (const auto& [name, s] : spans)
        if (name.rfind("wirer.", 0) == 0)
            wirer_self += s.self_s;

    rep.set("models.build_s", get(spans, "bench.models.build").total_s, "s");
    rep.set("enumerate.s", get(spans, "enumerate_search_space").total_s, "s");
    rep.set("tensor_map.plan_s", get(spans, "tensor_map.plan").total_s, "s");
    const SpanStats& build = get(spans, "scheduler.build");
    rep.set("scheduler.build.calls", static_cast<double>(build.count),
            "count");
    rep.set("scheduler.build.self_s", build.self_s, "s");
    rep.set("scheduler.build_units.s",
            get(spans, "scheduler.build_units").total_s, "s");
    // A count, not seconds: serve_fleet's buckets wire without streams,
    // and a per-layer time must be measured on every workload.
    rep.set("scheduler.stream_space.calls",
            static_cast<double>(get(spans, "scheduler.stream_space").count),
            "count");
    rep.set("scheduler.plan_cache.hit_rate", plan_cache_hit_rate(),
            "fraction");
    rep.set("wirer.explore.self_s", wirer_self, "s");
    const SpanStats& dispatch = get(spans, "dispatch_plan");
    rep.set("dispatch.calls", static_cast<double>(dispatch.count), "count");
    rep.set("dispatch.s", dispatch.total_s, "s");
    rep.set("wired.lower.s", get(spans, "wired.lower").total_s, "s");
    rep.set("wired.replay.calls",
            static_cast<double>(get(spans, "wired.replay").count), "count");
    rep.set("traced_wall_s", wall, "s");
    rep.set("unattributed_s", root.self_s, "s");
    rep.set("trace_overhead",
            untraced_wall_s > 0.0 ? wall / untraced_wall_s : 0.0, "x");
}

void
report_wirer_counts(const std::vector<astra::WirerResult>& results,
                    Report& rep)
{
    int64_t minibatches = 0, evals = 0, pruned = 0;
    for (const astra::WirerResult& r : results) {
        minibatches += r.minibatches;
        evals += r.convergence.whatif_evals;
        pruned += r.convergence.predictor_pruned;
    }
    const double trials = static_cast<double>(minibatches + evals);
    rep.set("wirer.trials", trials, "count");
    rep.set("wirer.measured_ratio",
            static_cast<double>(minibatches) / trials, "fraction");
    rep.set("whatif.evals", static_cast<double>(evals), "count");
    rep.set("predictor.pruned", static_cast<double>(pruned), "count");
}

}  // namespace perfbench
