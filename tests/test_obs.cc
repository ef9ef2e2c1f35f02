/**
 * @file
 * Tests for the observability layer (src/obs): span collection and
 * nesting, thread safety, counter aggregation, disabled-mode silence,
 * Chrome trace-event JSON well-formedness (validated with a small
 * in-test JSON parser), and the wirer's convergence report.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "core/astra.h"
#include "models/models.h"
#include "obs/convergence.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "tests/util.h"

namespace astra {
namespace {

// ---- minimal JSON parser (validation only) ---------------------------
//
// Parses the full JSON grammar into a tiny DOM so tests can assert
// structure of emitted documents. Fails the parse by returning null.

struct JsonValue;
using JsonPtr = std::shared_ptr<JsonValue>;

struct JsonValue
{
    enum class Kind { Object, Array, String, Number, Bool, Null };
    Kind kind = Kind::Null;
    std::map<std::string, JsonPtr> object;
    std::vector<JsonPtr> array;
    std::string string;
    double number = 0.0;
    bool boolean = false;
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    JsonPtr
    parse()
    {
        JsonPtr v = value();
        skip_ws();
        if (pos_ != s_.size())
            return nullptr;  // trailing garbage
        return v;
    }

  private:
    void
    skip_ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonPtr
    value()
    {
        skip_ws();
        if (pos_ >= s_.size())
            return nullptr;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string_value();
          case 't': return literal("true", JsonValue::Kind::Bool, true);
          case 'f':
            return literal("false", JsonValue::Kind::Bool, false);
          case 'n': return literal("null", JsonValue::Kind::Null, false);
          default: return number();
        }
    }

    JsonPtr
    literal(const std::string& word, JsonValue::Kind kind, bool b)
    {
        if (s_.compare(pos_, word.size(), word) != 0)
            return nullptr;
        pos_ += word.size();
        auto v = std::make_shared<JsonValue>();
        v->kind = kind;
        v->boolean = b;
        return v;
    }

    JsonPtr
    object()
    {
        if (!eat('{'))
            return nullptr;
        auto v = std::make_shared<JsonValue>();
        v->kind = JsonValue::Kind::Object;
        if (eat('}'))
            return v;
        do {
            JsonPtr key = string_value();
            if (!key || !eat(':'))
                return nullptr;
            JsonPtr val = value();
            if (!val)
                return nullptr;
            v->object[key->string] = val;
        } while (eat(','));
        return eat('}') ? v : nullptr;
    }

    JsonPtr
    array()
    {
        if (!eat('['))
            return nullptr;
        auto v = std::make_shared<JsonValue>();
        v->kind = JsonValue::Kind::Array;
        if (eat(']'))
            return v;
        do {
            JsonPtr val = value();
            if (!val)
                return nullptr;
            v->array.push_back(val);
        } while (eat(','));
        return eat(']') ? v : nullptr;
    }

    JsonPtr
    string_value()
    {
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return nullptr;
        ++pos_;
        auto v = std::make_shared<JsonValue>();
        v->kind = JsonValue::Kind::String;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return nullptr;
            }
            v->string += s_[pos_++];
        }
        if (pos_ >= s_.size())
            return nullptr;
        ++pos_;  // closing quote
        return v;
    }

    JsonPtr
    number()
    {
        skip_ws();
        const size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            return nullptr;
        auto v = std::make_shared<JsonValue>();
        v->kind = JsonValue::Kind::Number;
        try {
            v->number = std::stod(s_.substr(start, pos_ - start));
        } catch (...) {
            return nullptr;
        }
        return v;
    }

    const std::string& s_;
    size_t pos_ = 0;
};

JsonPtr
parse_json(const std::string& text)
{
    return JsonParser(text).parse();
}

/** RAII: enable tracing on a clean recorder, restore on exit. */
class TracingScope
{
  public:
    TracingScope()
    {
        obs::reset();
        obs::set_enabled(true);
    }
    ~TracingScope()
    {
        obs::set_enabled(false);
        obs::reset();
    }
};

// ---- span collection -------------------------------------------------

TEST(ObsSpans, NestedSpansRecorded)
{
    TracingScope tracing;
    {
        obs::ScopedSpan outer(obs::Category::Wire, "outer");
        {
            obs::ScopedSpan inner(obs::Category::Dispatch, "inner");
        }
    }
    const std::vector<obs::Span> spans = obs::host_spans();
    ASSERT_EQ(spans.size(), 2u);
    // Inner closes first; both are well-formed and properly nested.
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_LE(spans[0].start_ns, spans[0].end_ns);
    EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
    EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
    EXPECT_EQ(spans[0].cat, obs::Category::Dispatch);
    EXPECT_EQ(spans[1].cat, obs::Category::Wire);
}

TEST(ObsSpans, DisabledEmitsNothing)
{
    obs::reset();
    obs::set_enabled(false);
    {
        obs::ScopedSpan span(obs::Category::Wire, "ghost");
        obs::counter("ghost.counter").add(42);
        obs::observe("ghost.hist", 1.0);
        obs::add_kernel_spans({TraceSpan{"k", 0, 0.0, 1.0, {}}}, 0.0);
    }
    EXPECT_TRUE(obs::host_spans().empty());
    EXPECT_TRUE(obs::kernel_spans().empty());
    EXPECT_EQ(obs::counter("ghost.counter").value(), 0);
    EXPECT_TRUE(obs::histogram_values().empty());
}

TEST(ObsSpans, EnabledMidwayOnlyRecordsFromThen)
{
    obs::reset();
    obs::set_enabled(false);
    { obs::ScopedSpan before(obs::Category::Wire, "before"); }
    obs::set_enabled(true);
    { obs::ScopedSpan after(obs::Category::Wire, "after"); }
    obs::set_enabled(false);
    const auto spans = obs::host_spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "after");
    obs::reset();
}

TEST(ObsSpans, ThreadSafety)
{
    TracingScope tracing;
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 200;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                obs::ScopedSpan span(
                    obs::Category::Wire,
                    "t" + std::to_string(t) + ".s" + std::to_string(i));
                obs::counter("threads.total").add();
                obs::observe("threads.hist", static_cast<double>(i));
            }
        });
    }
    for (auto& w : workers)
        w.join();
    const auto spans = obs::host_spans();
    ASSERT_EQ(spans.size(),
              static_cast<size_t>(kThreads * kSpansPerThread));
    for (const obs::Span& s : spans) {
        EXPECT_FALSE(s.name.empty());
        EXPECT_LE(s.start_ns, s.end_ns);
    }
    EXPECT_EQ(obs::counter("threads.total").value(),
              kThreads * kSpansPerThread);
    const auto hists = obs::histogram_values();
    ASSERT_EQ(hists.count("threads.hist"), 1u);
    EXPECT_EQ(hists.at("threads.hist").count(),
              static_cast<size_t>(kThreads * kSpansPerThread));
}

// ---- counters --------------------------------------------------------

TEST(ObsCounters, AggregateAndReset)
{
    TracingScope tracing;
    obs::Counter& c = obs::counter("test.counter");
    c.add();
    c.add(9);
    EXPECT_EQ(c.value(), 10);
    // Same name -> same counter object.
    EXPECT_EQ(&obs::counter("test.counter"), &c);
    const auto values = obs::counter_values();
    EXPECT_EQ(values.at("test.counter"), 10);
    obs::reset();
    EXPECT_EQ(c.value(), 0);
    obs::set_enabled(true);  // reset() keeps the enabled flag
    c.add(3);
    EXPECT_EQ(c.value(), 3);
}

TEST(ObsCounters, ConcurrentRegistrationAndLookup)
{
    // The registry sits on the parallel wirer's trial path: many
    // threads race first-time registrations (exclusive lock) against
    // hot-path lookups (shared lock) and snapshot reads. Every add
    // must land exactly once.
    TracingScope tracing;
    constexpr int kThreads = 8;
    constexpr int kIters = 500;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            for (int i = 0; i < kIters; ++i) {
                // Shared name: all threads race the same registration.
                obs::counter("reg.shared").add();
                // Per-thread name: distinct registrations interleave.
                obs::counter("reg.t" + std::to_string(t)).add();
                if (i % 64 == 0)
                    (void)obs::counter_values();  // concurrent snapshot
            }
        });
    }
    for (auto& w : workers)
        w.join();
    EXPECT_EQ(obs::counter("reg.shared").value(), kThreads * kIters);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(obs::counter("reg.t" + std::to_string(t)).value(),
                  kIters);
}

// ---- ASTRA_TRACE -----------------------------------------------------

TEST(ObsEnv, TraceIgnoresValuesThatAreNeitherSwitchNorJsonPath)
{
    // "false" must not turn tracing on and write a trace file of that
    // name at exit. It is ignored, with one stderr line per process
    // however often the environment is read.
    obs::reset();
    obs::set_enabled(false);
    const char* prior = std::getenv("ASTRA_TRACE");
    const std::string saved = prior == nullptr ? "" : prior;
    testing::internal::CaptureStderr();
    for (const char* v : {"false", "off", "false", "0", ""}) {
        ::setenv("ASTRA_TRACE", v, 1);
        EXPECT_FALSE(obs::init_from_env()) << "'" << v << "'";
    }
    const std::string err = testing::internal::GetCapturedStderr();
    if (prior == nullptr)
        ::unsetenv("ASTRA_TRACE");
    else
        ::setenv("ASTRA_TRACE", saved.c_str(), 1);
    EXPECT_FALSE(obs::enabled());
    EXPECT_EQ(err, "ASTRA_TRACE ignored (want 0, 1 or FILE.json): 'false'\n");
}

// ---- exporters -------------------------------------------------------

TEST(ObsExport, KernelOnlyTraceIsValidJson)
{
    // Written under a de_DE-style global locale, and a span starting
    // 12,345,678,901 ns in: the numbers stay JSON and read back exact.
    const testutil::ScopedGlobalLocale comma(
        std::locale(std::locale::classic(), new testutil::CommaDecimal));
    std::vector<TraceSpan> spans;
    spans.push_back({"gemm \"odd\\name\"", 0, 1000.0, 5000.0, {}});
    spans.push_back({"ew", 1, 12345678901.0, 12345681901.0, {}});
    std::ostringstream os;
    write_chrome_trace(os, spans);
    const JsonPtr doc = parse_json(os.str());
    ASSERT_TRUE(doc) << os.str();
    ASSERT_EQ(doc->kind, JsonValue::Kind::Object);
    const JsonPtr events = doc->object.at("traceEvents");
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);
    ASSERT_EQ(events->array.size(), 2u);
    for (const JsonPtr& e : events->array) {
        EXPECT_EQ(e->object.at("cat")->string, "kernel");
        EXPECT_EQ(e->object.at("ph")->string, "X");
        EXPECT_GE(e->object.at("dur")->number, 0.0);
    }
    const JsonPtr late = events->array[1];
    EXPECT_EQ(late->object.at("ts")->number, 12345678901.0 / 1e3);
    EXPECT_EQ(late->object.at("dur")->number,
              (12345681901.0 - 12345678901.0) / 1e3);
    EXPECT_EQ(late->object.at("tid")->number, 1.0);
}

TEST(ObsExport, MergedTraceHasHostAndKernelSpans)
{
    TracingScope tracing;
    { obs::ScopedSpan s1(obs::Category::Enumerate, "enumerate_x"); }
    { obs::ScopedSpan s2(obs::Category::Wire, "wire_x"); }
    { obs::ScopedSpan s3(obs::Category::Dispatch, "dispatch_x"); }
    obs::add_kernel_spans({TraceSpan{"kern_x", 2, 100.0, 200.0, {}}}, 50.0);

    std::ostringstream os;
    obs::write_chrome_trace(os);
    const JsonPtr doc = parse_json(os.str());
    ASSERT_TRUE(doc);
    const JsonPtr events = doc->object.at("traceEvents");
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);

    std::map<std::string, int> by_cat;
    bool found_kernel = false;
    for (const JsonPtr& e : events->array) {
        if (e->object.count("cat"))
            ++by_cat[e->object.at("cat")->string];
        if (e->object.count("name") &&
            e->object.at("name")->string == "kern_x") {
            found_kernel = true;
            // Anchored: sim 100ns + host 50ns anchor = 150ns = 0.15us.
            EXPECT_DOUBLE_EQ(e->object.at("ts")->number, 0.15);
            EXPECT_EQ(e->object.at("pid")->number, 0.0);
            EXPECT_EQ(e->object.at("tid")->number, 2.0);
        }
    }
    EXPECT_TRUE(found_kernel);
    EXPECT_EQ(by_cat["enumerate"], 1);
    EXPECT_EQ(by_cat["wire"], 1);
    EXPECT_EQ(by_cat["dispatch"], 1);
    EXPECT_EQ(by_cat["kernel"], 1);
}

TEST(ObsExport, FullStackTraceFromRealSession)
{
    TracingScope tracing;

    ModelConfig cfg;
    cfg.batch = 8;
    cfg.seq_len = 3;
    cfg.hidden = 64;
    cfg.embed_dim = 64;
    cfg.vocab = 50;
    const BuiltModel model = build_model(ModelKind::Scrnn, cfg);
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    // Report self-consistency (best_ns reproducible at re-measure) is
    // a base-clock property.
    opts.gpu.autoboost = false;
    AstraSession session(model.graph(), opts);
    session.optimize();

    std::ostringstream os;
    obs::write_chrome_trace(os);
    const JsonPtr doc = parse_json(os.str());
    ASSERT_TRUE(doc) << "emitted trace is not valid JSON";
    std::map<std::string, int> by_cat;
    for (const JsonPtr& e :
         doc->object.at("traceEvents")->array)
        if (e->object.count("cat"))
            ++by_cat[e->object.at("cat")->string];
    // Whole-stack coverage: every layer shows up on one timeline.
    EXPECT_GT(by_cat["enumerate"], 0);
    EXPECT_GT(by_cat["wire"], 0);
    EXPECT_GT(by_cat["dispatch"], 0);
    EXPECT_GT(by_cat["alloc"], 0);
    EXPECT_GT(by_cat["kernel"], 0);

    // Counters fed from every layer.
    const auto counters = obs::counter_values();
    EXPECT_GT(counters.at("wire.minibatches"), 0);
    EXPECT_GT(counters.at("profile_index.records"), 0);
    EXPECT_GT(counters.at("sim.kernels_launched"), 0);
    EXPECT_GT(counters.at("alloc.bytes_planned"), 0);

    std::ostringstream summary;
    obs::write_text_summary(summary);
    EXPECT_NE(summary.str().find("wire.minibatches"),
              std::string::npos);
}

// ---- convergence report ----------------------------------------------

TEST(ObsConvergence, WirerEmitsReport)
{
    ModelConfig cfg;
    cfg.batch = 8;
    cfg.seq_len = 4;
    cfg.hidden = 64;
    cfg.embed_dim = 64;
    cfg.vocab = 50;
    const BuiltModel model = build_model(ModelKind::Scrnn, cfg);
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    // The report's monotone best-so-far and final-winner identities
    // hold for comparable measurements, i.e. at a pinned clock.
    opts.gpu.autoboost = false;
    // This test asserts the all-zero fault report of a fault-free
    // exploration — pin the plan empty even under the CI fault matrix
    // (ASTRA_FAULTS arms every default-constructed GpuConfig).
    opts.gpu.faults = FaultPlan();
    AstraSession session(model.graph(), opts);
    const WirerResult r = session.optimize();

    const ConvergenceReport& rep = r.convergence;
    ASSERT_FALSE(rep.epochs.empty());
    EXPECT_DOUBLE_EQ(rep.best_ns, r.best_ns);
    EXPECT_EQ(rep.minibatches, r.minibatches);

    int64_t last_total = 0;
    double prev_best = -1.0;
    bool saw_parallel = false;
    for (const ConvergenceEpoch& e : rep.epochs) {
        EXPECT_GE(e.trials, 0);
        EXPECT_GE(e.pruned, 0);
        EXPECT_EQ(e.pruned, std::max<int64_t>(0, e.exhaustive - e.trials));
        EXPECT_GE(e.minibatches_total, last_total);
        last_total = e.minibatches_total;
        // Best-so-far time never gets worse as exploration proceeds.
        if (prev_best >= 0.0 && e.best_ns >= 0.0) {
            EXPECT_LE(e.best_ns, prev_best + 1e-9);
        }
        if (e.best_ns >= 0.0)
            prev_best = e.best_ns;
        saw_parallel |= e.mode == "parallel";
    }
    EXPECT_TRUE(saw_parallel);
    // Parallel exploration is the paper's big pruning lever (§4.5.1):
    // the report must attribute savings to it on a multi-group model.
    EXPECT_GT(rep.pruned_by("parallel"), 0);
    EXPECT_GE(rep.exhaustive_total(), rep.minibatches);
    // The final best-so-far equals the overall winner.
    EXPECT_DOUBLE_EQ(rep.epochs.back().best_ns, r.best_ns);

    // Fault-free exploration: machine-readable termination reason says
    // so, and the fault report is all zeros.
    EXPECT_EQ(r.termination, WirerTermination::Complete);
    EXPECT_EQ(rep.termination, "complete");
    EXPECT_EQ(rep.faults.injected_kernel_faults, 0);
    EXPECT_EQ(rep.faults.faulted_minibatches, 0);
    EXPECT_EQ(rep.faults.quarantined_keys, 0);
}

TEST(ObsConvergence, JsonExport)
{
    // Written under a de_DE-style global locale (',' decimal, '.'
    // thousands): every number is still JSON, and reads back exact.
    const testutil::ScopedGlobalLocale comma(
        std::locale(std::locale::classic(), new testutil::CommaDecimal));
    ConvergenceReport rep;
    rep.best_ns = 15985059.25;
    rep.minibatches = 2789;
    ConvergenceEpoch e;
    e.strategy = 1;
    e.stage = "chunks";
    e.mode = "parallel";
    e.trials = 4;
    e.exhaustive = 16384;
    e.pruned = 16380;
    e.best_ns = 15985059.25;
    e.minibatches_total = 4;
    rep.epochs.push_back(e);

    std::ostringstream js;
    rep.write_json(js);
    const JsonPtr doc = parse_json(js.str());
    ASSERT_TRUE(doc) << js.str();
    EXPECT_EQ(doc->object.at("best_ns")->number, 15985059.25);
    EXPECT_EQ(doc->object.at("minibatches")->number, 2789.0);
    const JsonPtr epochs = doc->object.at("epochs");
    ASSERT_EQ(epochs->array.size(), 1u);
    EXPECT_EQ(epochs->array[0]->object.at("mode")->string, "parallel");
    EXPECT_EQ(epochs->array[0]->object.at("pruned")->number, 16380.0);
    EXPECT_EQ(epochs->array[0]->object.at("best_ns")->number,
              15985059.25);
}

TEST(ObsConvergence, TerminationAndFaultReportInJson)
{
    ConvergenceReport rep;
    rep.termination = "fault_quarantine";
    rep.faults.injected_kernel_faults = 4;
    rep.faults.straggler_events = 2;
    rep.faults.faulted_minibatches = 3;
    rep.faults.dispatch_retries = 5;
    rep.faults.wirer_retries = 1;
    rep.faults.quarantined_keys = 2;
    rep.faults.backoff_ns = 350000.0;

    std::ostringstream js;
    rep.write_json(js);
    const JsonPtr doc = parse_json(js.str());
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->object.at("termination")->string, "fault_quarantine");
    const JsonPtr fr = doc->object.at("fault_report");
    ASSERT_TRUE(fr);
    EXPECT_DOUBLE_EQ(fr->object.at("injected_kernel_faults")->number,
                     4.0);
    EXPECT_DOUBLE_EQ(fr->object.at("straggler_events")->number, 2.0);
    EXPECT_DOUBLE_EQ(fr->object.at("faulted_minibatches")->number, 3.0);
    EXPECT_DOUBLE_EQ(fr->object.at("dispatch_retries")->number, 5.0);
    EXPECT_DOUBLE_EQ(fr->object.at("wirer_retries")->number, 1.0);
    EXPECT_DOUBLE_EQ(fr->object.at("quarantined_keys")->number, 2.0);
    EXPECT_DOUBLE_EQ(fr->object.at("backoff_ns")->number, 350000.0);

    // Every termination value has a stable machine-readable name.
    EXPECT_STREQ(wirer_termination_name(WirerTermination::Complete),
                 "complete");
    EXPECT_STREQ(wirer_termination_name(WirerTermination::Budget),
                 "budget");
    EXPECT_STREQ(
        wirer_termination_name(WirerTermination::FaultQuarantine),
        "fault_quarantine");
}

}  // namespace
}  // namespace astra
