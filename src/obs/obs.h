/**
 * @file
 * Whole-stack observability: spans, counters, histograms.
 *
 * Astra's premise is that optimization is driven by measurement of
 * real executions (paper §4.6, the profile index); this layer applies
 * the same philosophy to the system itself. Every stage of the stack —
 * search-space enumeration, the custom wirer's exploration, runtime
 * dispatch, allocation, and the simulated device — emits RAII scoped
 * spans and named counters into one process-global recorder, which
 * exporters (obs/export.h) render as a Chrome trace-event timeline or
 * a plain-text summary.
 *
 * The layer is off by default and designed so the disabled path is a
 * single relaxed atomic load: spans skip all bookkeeping, counters do
 * not increment, and nothing allocates. Enable programmatically with
 * set_enabled(), or via the ASTRA_TRACE environment variable / the
 * --trace-out flag of the examples and benches (init_from_env()).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/profile_key.h"
#include "support/stats.h"

namespace astra {

/**
 * One executed kernel on the simulated-device timeline. Lives in the
 * obs layer so host-side spans and device spans can be merged by one
 * exporter.
 */
struct TraceSpan
{
    std::string name;
    int stream = 0;
    double start_ns = 0.0;
    double end_ns = 0.0;
    /** Profile-index key of the launching step (none when unkeyed). */
    ProfileKey key;
};

namespace obs {

/** What layer of the stack a span came from. */
enum class Category
{
    Enumerate,  ///< compiler-side state-space enumeration
    Wire,       ///< custom-wirer exploration (stages, epochs)
    Dispatch,   ///< runtime plan dispatch / execution
    Kernel,     ///< simulated-device kernel execution
    Alloc,      ///< memory planning / tensor-map realization
    Serve,      ///< online serving loop (batches, re-wires, swaps)
};

/** Number of Category values (exporter tally arrays). */
inline constexpr size_t kNumCategories = 6;

/** Stable lowercase name ("enumerate", "wire", ...). */
const char* category_name(Category cat);

/** One host-side span on the observability timeline. */
struct Span
{
    std::string name;
    Category cat = Category::Wire;
    int tid = 0;          ///< small per-thread id (0 = first thread)
    double start_ns = 0.0;
    double end_ns = 0.0;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/** True when span/counter collection is active. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turn collection on or off (off discards nothing already recorded). */
void set_enabled(bool on);

/** Monotonic nanoseconds since the recorder's process-start epoch. */
double now_ns();

/**
 * RAII scoped span. When tracing is disabled construction and
 * destruction are a single atomic load each — cheap enough to leave in
 * hot paths unconditionally.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Category cat, std::string_view name);

    /**
     * Span pinned to a display lane instead of the caller's thread id:
     * the exporter renders it at tid 100+lane. The serving fleet uses
     * one lane per replica so failover hops read left-to-right in the
     * Chrome trace even though the DES loop is single-threaded.
     */
    ScopedSpan(Category cat, std::string_view name, int lane);

    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    bool active_ = false;
    Category cat_ = Category::Wire;
    int lane_ = -1;  ///< display lane (-1 = use the thread id)
    double start_ns_ = 0.0;
    std::string name_;
};

/**
 * A named monotonic counter. Obtain a stable reference once (they are
 * never destroyed while the process lives) and add() on the hot path:
 *
 *   static obs::Counter& c = obs::counter("dispatch.kernels");
 *   c.add(n);
 *
 * add() is a no-op while tracing is disabled.
 */
class Counter
{
  public:
    void
    add(int64_t n = 1)
    {
        if (enabled())
            value_.fetch_add(n, std::memory_order_relaxed);
    }

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the counter (obs::reset() between test cases). */
    void reset() { value_.store(0, std::memory_order_relaxed); }

    const std::string& name() const { return name_; }

  private:
    friend Counter& counter(std::string_view);
    explicit Counter(std::string name) : name_(std::move(name)) {}

    std::string name_;
    std::atomic<int64_t> value_{0};
};

/** Registry lookup; creates the counter on first use. */
Counter& counter(std::string_view name);

/** Record one sample into the named histogram (no-op when disabled). */
void observe(std::string_view name, double value);

/** Append simulated-device kernel spans, shifted by anchor_ns. */
void add_kernel_spans(const std::vector<TraceSpan>& spans,
                      double anchor_ns);

// ---- snapshots (exporters and tests) ---------------------------------

std::vector<Span> host_spans();
std::vector<TraceSpan> kernel_spans();
std::map<std::string, int64_t> counter_values();
std::map<std::string, RunningStats> histogram_values();

/** Kernel spans dropped once the retention cap was hit. */
int64_t dropped_kernel_spans();

/** Clear all recorded spans/counters/histograms (tests). */
void reset();

/**
 * Read ASTRA_TRACE. Empty/unset or "0": leave tracing off. "1" enables
 * collection. A path ending in ".json" enables collection, and a
 * Chrome trace is written there at process exit. Any other value
 * leaves tracing off, with one line on stderr per process.
 * Safe to call repeatedly.
 * @return true when tracing is (already or now) enabled.
 */
bool init_from_env();

/** Enable tracing and write a Chrome trace to `path` at exit. */
void set_trace_path(std::string path);

/** Write the trace to the configured path now (no-op without one). */
void flush();

}  // namespace obs
}  // namespace astra
