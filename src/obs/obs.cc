#include "obs/obs.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <shared_mutex>

#include "obs/export.h"
#include "support/logging.h"

namespace astra::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/**
 * Retention cap on device kernel spans: a long exploration launches
 * millions of simulated kernels, and an unbounded trace would exhaust
 * memory. Past the cap spans are counted but dropped (the text
 * summary reports the drop count).
 */
constexpr size_t kMaxKernelSpans = 500000;

/**
 * Process-global recorder state, created on first use.
 *
 * The registry sits on the wirer's concurrent trial path (every
 * dispatch bumps counters), so the mutex is a shared one: the common
 * case — looking up an already-registered counter — takes a shared
 * lock and scales across measurement threads; registration and every
 * mutation of non-atomic state (spans, histograms) take it exclusive.
 * Counter increments themselves are lock-free (Counter::add is a
 * relaxed atomic fetch_add).
 */
struct Recorder
{
    std::shared_mutex mu;
    std::vector<Span> host_spans;
    std::vector<TraceSpan> kernel_spans;
    int64_t dropped_kernel_spans = 0;
    std::map<std::string, Counter*, std::less<>> counters;
    std::map<std::string, RunningStats, std::less<>> histograms;
    std::string trace_path;
    std::atomic<int> next_tid{0};
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

Recorder&
recorder()
{
    static Recorder* r = new Recorder();  // never destroyed: see counter()
    return *r;
}

/** Small dense thread id for trace tracks. */
int
this_tid()
{
    thread_local const int tid =
        recorder().next_tid.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

}  // namespace

const char*
category_name(Category cat)
{
    switch (cat) {
      case Category::Enumerate: return "enumerate";
      case Category::Wire: return "wire";
      case Category::Dispatch: return "dispatch";
      case Category::Kernel: return "kernel";
      case Category::Alloc: return "alloc";
      case Category::Serve: return "serve";
    }
    return "unknown";
}

void
set_enabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

double
now_ns()
{
    const auto d = std::chrono::steady_clock::now() - recorder().epoch;
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

ScopedSpan::ScopedSpan(Category cat, std::string_view name)
{
    if (!enabled())
        return;
    active_ = true;
    cat_ = cat;
    name_ = name;
    start_ns_ = now_ns();
}

ScopedSpan::ScopedSpan(Category cat, std::string_view name, int lane)
    : ScopedSpan(cat, name)
{
    lane_ = lane;
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    Span s;
    s.name = std::move(name_);
    s.cat = cat_;
    // Lane-pinned spans render on a fixed trace track (100+lane) so
    // per-replica serving activity separates visually even though the
    // DES loop runs on one thread.
    s.tid = lane_ >= 0 ? 100 + lane_ : this_tid();
    s.start_ns = start_ns_;
    s.end_ns = now_ns();
    Recorder& r = recorder();
    std::lock_guard<std::shared_mutex> lock(r.mu);
    r.host_spans.push_back(std::move(s));
}

Counter&
counter(std::string_view name)
{
    Recorder& r = recorder();
    {
        // Fast path: the counter exists (every call after the first
        // for a given name). Shared lock — concurrent measurement
        // threads don't serialize on the registry.
        std::shared_lock<std::shared_mutex> lock(r.mu);
        const auto it = r.counters.find(name);
        if (it != r.counters.end())
            return *it->second;
    }
    std::lock_guard<std::shared_mutex> lock(r.mu);
    auto it = r.counters.find(name);
    if (it == r.counters.end()) {
        // Leaked deliberately: hot paths hold references across the
        // whole process lifetime (including atexit flush).
        auto* c = new Counter(std::string(name));
        it = r.counters.emplace(c->name(), c).first;
    }
    return *it->second;
}

void
observe(std::string_view name, double value)
{
    if (!enabled())
        return;
    Recorder& r = recorder();
    std::lock_guard<std::shared_mutex> lock(r.mu);
    auto it = r.histograms.find(name);
    if (it == r.histograms.end())
        it = r.histograms.emplace(std::string(name), RunningStats{})
                 .first;
    it->second.add(value);
}

void
add_kernel_spans(const std::vector<TraceSpan>& spans, double anchor_ns)
{
    if (!enabled() || spans.empty())
        return;
    Recorder& r = recorder();
    std::lock_guard<std::shared_mutex> lock(r.mu);
    for (const TraceSpan& s : spans) {
        if (r.kernel_spans.size() >= kMaxKernelSpans) {
            r.dropped_kernel_spans +=
                static_cast<int64_t>(spans.size()) -
                static_cast<int64_t>(&s - spans.data());
            break;
        }
        TraceSpan shifted = s;
        shifted.start_ns += anchor_ns;
        shifted.end_ns += anchor_ns;
        r.kernel_spans.push_back(std::move(shifted));
    }
}

std::vector<Span>
host_spans()
{
    Recorder& r = recorder();
    std::lock_guard<std::shared_mutex> lock(r.mu);
    return r.host_spans;
}

std::vector<TraceSpan>
kernel_spans()
{
    Recorder& r = recorder();
    std::lock_guard<std::shared_mutex> lock(r.mu);
    return r.kernel_spans;
}

std::map<std::string, int64_t>
counter_values()
{
    Recorder& r = recorder();
    std::lock_guard<std::shared_mutex> lock(r.mu);
    std::map<std::string, int64_t> out;
    for (const auto& [name, c] : r.counters)
        out[name] = c->value();
    return out;
}

std::map<std::string, RunningStats>
histogram_values()
{
    Recorder& r = recorder();
    std::lock_guard<std::shared_mutex> lock(r.mu);
    return {r.histograms.begin(), r.histograms.end()};
}

int64_t
dropped_kernel_spans()
{
    Recorder& r = recorder();
    std::lock_guard<std::shared_mutex> lock(r.mu);
    return r.dropped_kernel_spans;
}

void
reset()
{
    Recorder& r = recorder();
    std::lock_guard<std::shared_mutex> lock(r.mu);
    r.host_spans.clear();
    r.kernel_spans.clear();
    r.dropped_kernel_spans = 0;
    for (auto& [name, c] : r.counters)
        c->reset();
    r.histograms.clear();
}

bool
init_from_env()
{
    const char* env = std::getenv("ASTRA_TRACE");
    const std::string_view v = env == nullptr ? "" : env;
    if (v.empty() || v == "0")
        return enabled();
    if (v == "1") {
        set_enabled(true);
        return true;
    }
    if (v.ends_with(".json")) {
        set_trace_path(std::string(v));
        return true;
    }
    // Neither a switch nor a trace file: "false" or "off" must not
    // turn tracing on and write a file of that name.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
        std::fprintf(stderr,
                     "ASTRA_TRACE ignored (want 0, 1 or FILE.json): '%s'\n",
                     env);
    return enabled();
}

void
set_trace_path(std::string path)
{
    set_enabled(true);
    Recorder& r = recorder();
    bool arm_atexit = false;
    {
        std::lock_guard<std::shared_mutex> lock(r.mu);
        arm_atexit = r.trace_path.empty() && !path.empty();
        r.trace_path = std::move(path);
    }
    if (arm_atexit)
        std::atexit([] { flush(); });
}

void
flush()
{
    std::string path;
    {
        Recorder& r = recorder();
        std::lock_guard<std::shared_mutex> lock(r.mu);
        path = r.trace_path;
    }
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out) {
        warn("obs: cannot write trace to ", path);
        return;
    }
    write_chrome_trace(out, host_spans(), kernel_spans());
    inform("obs: wrote trace to ", path);
}

}  // namespace astra::obs
