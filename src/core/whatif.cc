#include "core/whatif.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "core/config_io.h"
#include "obs/obs.h"
#include "runtime/dispatcher.h"
#include "support/logging.h"
#include "support/record.h"

namespace astra {

namespace {

/**
 * Strip the device model down to a deterministic timing oracle: no
 * host compute, no fault draws, base clock. Replay exactness (and with
 * it the wirer's identity guarantee) holds against measurements taken
 * under the same conditions; the wirer's arming predicate enforces
 * that on the measuring side.
 */
GpuConfig
sanitize_device(const GpuConfig& gpu)
{
    GpuConfig g = gpu;
    g.execute_kernels = false;
    g.collect_trace = false;
    g.autoboost = false;
    g.forced_clock_multiplier = 0.0;
    g.faults = FaultPlan{};
    g.fault_salt = 0;
    return g;
}

ReplayResult
run_program(const WiredProgram& prog,
            const std::vector<KernelDesc>& kernels, const GpuConfig& cfg,
            std::vector<TraceSpan>* spans_out)
{
    GpuConfig gpu_cfg = cfg;
    gpu_cfg.collect_trace = spans_out != nullptr;
    SimGpu gpu(gpu_cfg);
    for (int s = 1; s < prog.num_streams; ++s)
        gpu.create_stream();
    // The walk a real dispatch runs: replay and dispatch diverge by
    // construction nowhere.
    std::vector<EventId> events;
    enqueue_wired(prog, kernels, gpu, events);
    gpu.synchronize();

    DispatchResult dres;
    collect_wired_profiles(prog, events, gpu, dres);
    ReplayResult r;
    r.total_ns = gpu.now_ns();
    r.profile_ns = std::move(dres.profile_ns);
    if (spans_out != nullptr)
        *spans_out = gpu.trace();
    return r;
}

}  // namespace

ReplayResult
replay_trace(const RecordedTrace& trace,
             const std::map<std::string, double>& override_ns)
{
    std::vector<KernelDesc> kernels = trace.kernels;
    for (KernelDesc& k : kernels) {
        if (k.key.empty())
            continue;
        const auto it = override_ns.find(k.key);
        if (it == override_ns.end())
            continue;
        // A substituted cost is a pure-serial kernel of exactly that
        // duration: zero blocks hold no SMs, so on a serial schedule
        // the total shifts by exactly the substituted delta.
        KernelDesc sub;
        sub.name = k.name;
        sub.key = k.key;
        sub.blocks = 0;
        sub.setup_ns = it->second;
        k = std::move(sub);
    }
    return run_program(trace.program, kernels, trace.gpu, nullptr);
}

WhatIfEngine::WhatIfEngine(const Graph& graph, const TensorMap& tmap,
                           const Scheduler& scheduler,
                           const GpuConfig& gpu)
    : graph_(graph), tmap_(tmap), scheduler_(scheduler),
      gpu_(sanitize_device(gpu))
{
}

ReplayResult
WhatIfEngine::evaluate(const ScheduleConfig& config) const
{
    obs::ScopedSpan span(obs::Category::Wire, "whatif.evaluate");
    // The scheduler keeps only its last plan per strategy, so a fetch
    // hits only when this strategy's previous fetch was the same
    // config. Anything else is built — for a stage-C trial that is
    // just the epoch walk over the binding's cached plan skeleton.
    const std::shared_ptr<const ExecutionPlan> plan =
        scheduler_.build_cached(config);
    const WiredBinary bound =
        bind_plan(*plan, graph_, tmap_, gpu_, /*profiling=*/true);
    return run_program(bound.program, bound.kernels, gpu_, nullptr);
}

RecordedTrace
WhatIfEngine::capture(const ScheduleConfig& config) const
{
    RecordedTrace trace;
    trace.config = config;
    trace.gpu = gpu_;

    const std::shared_ptr<const ExecutionPlan> plan =
        scheduler_.build_cached(config);
    trace.num_streams = plan->num_streams;
    WiredBinary bound =
        bind_plan(*plan, graph_, tmap_, gpu_, /*profiling=*/true);
    trace.program = std::move(bound.program);
    trace.kernels = std::move(bound.kernels);
    for (const PlanStep& step : plan->steps)
        trace.step_keys.push_back(step.profile_key);
    const ReplayResult r = run_program(trace.program, trace.kernels,
                                       gpu_, &trace.spans);
    trace.total_ns = r.total_ns;
    trace.profile_ns = r.profile_ns;
    return trace;
}

// ---- serialization -------------------------------------------------------

namespace {

/** Empty strings travel as "-" (keys/names never contain spaces). */
std::string
enc_str(const std::string& s)
{
    return s.empty() ? "-" : s;
}

std::string
dec_str(std::string_view s)
{
    return s == "-" ? "" : std::string(s);
}

}  // namespace

void
write_trace(std::ostream& os, const RecordedTrace& trace)
{
    const record::WriteGuard pin(os);
    os << "astra-whatif-trace v1\n";
    os << "gpu " << trace.gpu.num_sms << " " << trace.gpu.flops_per_sm_ns
       << " " << trace.gpu.hbm_gbps << " "
       << trace.gpu.launch_overhead_ns << " "
       << trace.gpu.event_record_ns << " " << trace.gpu.event_enqueue_ns
       << "\n";
    os << "total_ns " << trace.total_ns << "\n";
    os << "num_streams " << trace.num_streams << "\n";

    const std::string cfg = config_to_string(trace.config);
    long cfg_lines = 0;
    for (char c : cfg)
        cfg_lines += c == '\n';
    os << "config " << cfg_lines << "\n" << cfg;

    const size_t num_steps = trace.kernels.size();
    os << "steps " << num_steps << "\n";
    for (size_t i = 0; i < num_steps; ++i) {
        const KernelDesc& k = trace.kernels[i];
        os << "step " << int(trace.program.is_barrier[i]) << " "
           << enc_str(trace.step_keys[i]) << " " << k.blocks << " "
           << k.block_ns << " " << k.setup_ns << " " << k.max_sms << " "
           << enc_str(k.name) << "\n";
    }

    os << "cmds " << trace.program.cmds.size() << "\n";
    for (const WiredCmd& c : trace.program.cmds) {
        const char op = c.op == WiredOp::Launch   ? 'L'
                        : c.op == WiredOp::Record ? 'R'
                                                  : 'W';
        os << "cmd " << op << " " << c.stream << " " << c.arg << "\n";
    }

    os << "step_begin";
    for (int32_t v : trace.program.step_begin)
        os << " " << v;
    os << "\n";
    os << "barrier_slots";
    for (int32_t v : trace.program.barrier_slots)
        os << " " << v;
    os << "\n";
    os << "num_events " << trace.program.num_events << "\n";
    os << "profiling " << int(trace.program.profiling) << "\n";

    os << "profiles " << trace.program.profiles.size() << "\n";
    for (const WiredProfile& p : trace.program.profiles)
        os << "profile " << int(p.epoch_metric) << " " << p.step << " "
           << p.start_slot << " " << p.end_slot << " " << p.barrier_begin
           << " " << p.barrier_end << " " << enc_str(p.key) << "\n";

    os << "profile_ns " << trace.profile_ns.size() << "\n";
    for (const auto& [key, ns] : trace.profile_ns)
        os << "pns " << ns << " " << enc_str(key) << "\n";

    os << "spans " << trace.spans.size() << "\n";
    for (const TraceSpan& s : trace.spans)
        os << "span " << s.stream << " " << s.start_ns << " " << s.end_ns
           << " " << enc_str(s.key) << " " << enc_str(s.name) << "\n";
    os << "end\n";
}

std::string
trace_to_string(const RecordedTrace& trace)
{
    std::ostringstream os;
    write_trace(os, trace);
    return os.str();
}

bool
trace_from_string(std::string_view text, RecordedTrace* trace,
                  std::string* error)
{
    record::LineReader in(text, error);
    const std::vector<std::string_view>& t = in.tokens();
    // Every count and index is range-checked as it is read; no
    // container is sized from a count.
    long n = 0;
    const auto count = [&](std::string_view tag, long lo, long hi) {
        return in.next() && t.size() == 2 && t[0] == tag &&
               record::parse_int(t[1], &n, lo, hi);
    };

    if (!in.next())
        return in.fail("unexpected end of input (missing header)");
    if (t.size() != 2 || t[0] != "astra-whatif-trace" || t[1] != "v1")
        return in.fail("bad header (want \"astra-whatif-trace v1\")");

    RecordedTrace tr;
    if (!in.next() || t.size() != 7 || t[0] != "gpu")
        return in.fail("bad gpu line");
    if (!record::parse_int(t[1], &tr.gpu.num_sms, 1, 1000000))
        return in.fail("bad gpu num_sms");
    double* gpu_f[5] = {&tr.gpu.flops_per_sm_ns, &tr.gpu.hbm_gbps,
                        &tr.gpu.launch_overhead_ns,
                        &tr.gpu.event_record_ns,
                        &tr.gpu.event_enqueue_ns};
    for (size_t i = 0; i < 5; ++i)
        if (!record::parse_finite(t[i + 2], gpu_f[i], 0.0))
            return in.fail("bad gpu timing constant");
    tr.gpu = sanitize_device(tr.gpu);

    if (!in.next() || t.size() != 2 || t[0] != "total_ns" ||
        !record::parse_finite(t[1], &tr.total_ns, 0.0))
        return in.fail("bad total_ns line");

    if (!count("num_streams", 1, 1024))
        return in.fail("bad num_streams line");
    tr.num_streams = static_cast<int>(n);
    tr.program.num_streams = tr.num_streams;

    if (!count("config", 0, record::kMaxCount))
        return in.fail("bad config line");
    std::string cfg_text;
    for (long i = 0; i < n; ++i) {
        if (!in.next())
            return in.fail("unexpected end of input (config block)");
        cfg_text += in.line();
        cfg_text += '\n';
    }
    std::string cfg_err;
    if (!config_from_string(cfg_text, &tr.config, &cfg_err))
        return in.fail("bad config block (", cfg_err, ")");

    if (!count("steps", 0, record::kMaxCount))
        return in.fail("bad steps line");
    const long num_steps = n;
    for (long i = 0; i < num_steps; ++i) {
        if (!in.next())
            return in.fail("unexpected end of input (steps)");
        if (t.size() != 8 || t[0] != "step")
            return in.fail("bad step line");
        int barrier = 0;
        KernelDesc k;
        if (!record::parse_int(t[1], &barrier, 0, 1))
            return in.fail("bad step barrier flag");
        if (!record::parse_int(t[3], &k.blocks, 0,
                               std::numeric_limits<long>::max() / 2))
            return in.fail("bad step blocks");
        if (!record::parse_finite(t[4], &k.block_ns, 0.0))
            return in.fail("bad step block_ns");
        if (!record::parse_finite(t[5], &k.setup_ns, 0.0))
            return in.fail("bad step setup_ns");
        if (!record::parse_int(t[6], &k.max_sms, 0, 1000000))
            return in.fail("bad step max_sms");
        tr.program.is_barrier.push_back(static_cast<uint8_t>(barrier));
        tr.step_keys.push_back(dec_str(t[2]));
        k.key = tr.step_keys.back();
        k.name = dec_str(t[7]);
        tr.kernels.push_back(std::move(k));
    }

    if (!count("cmds", 0, record::kMaxCount))
        return in.fail("bad cmds line");
    const long num_cmds = n;
    for (long i = 0; i < num_cmds; ++i) {
        if (!in.next())
            return in.fail("unexpected end of input (cmds)");
        if (t.size() != 4 || t[0] != "cmd" || t[1].size() != 1)
            return in.fail("bad cmd line");
        WiredCmd c;
        switch (t[1][0]) {
          case 'L': c.op = WiredOp::Launch; break;
          case 'R': c.op = WiredOp::Record; break;
          case 'W': c.op = WiredOp::Wait; break;
          default: return in.fail("bad cmd op (want L, R or W)");
        }
        if (!record::parse_int(t[2], &c.stream, 0, tr.num_streams - 1))
            return in.fail("cmd stream out of range");
        if (!record::parse_int(t[3], &c.arg, 0, record::kMaxCount))
            return in.fail("bad cmd arg");
        if (c.op == WiredOp::Launch && c.arg >= num_steps)
            return in.fail("cmd launches a step out of range");
        tr.program.cmds.push_back(c);
    }

    if (!in.next() || t.empty() || t[0] != "step_begin")
        return in.fail("bad step_begin line");
    if (static_cast<long>(t.size()) != num_steps + 2)
        return in.fail("step_begin wants ", num_steps + 1, " entries");
    for (size_t i = 1; i < t.size(); ++i) {
        if (!record::parse_int(t[i], &n, 0, num_cmds))
            return in.fail("bad step_begin entry");
        tr.program.step_begin.push_back(static_cast<int32_t>(n));
    }
    // The walk issues each step's span in turn, so the spans must
    // tile the command array exactly once.
    if (tr.program.step_begin.front() != 0 ||
        tr.program.step_begin.back() != num_cmds ||
        !std::is_sorted(tr.program.step_begin.begin(),
                        tr.program.step_begin.end()))
        return in.fail("step_begin must rise from 0 to the command "
                       "count");

    if (!in.next() || t.empty() || t[0] != "barrier_slots")
        return in.fail("bad barrier_slots line");
    for (size_t i = 1; i < t.size(); ++i) {
        if (!record::parse_int(t[i], &n, 0, record::kMaxCount))
            return in.fail("bad barrier_slots entry");
        tr.program.barrier_slots.push_back(static_cast<int32_t>(n));
    }

    if (!count("num_events", 0, record::kMaxCount))
        return in.fail("bad num_events line");
    tr.program.num_events = static_cast<int32_t>(n);
    for (const WiredCmd& c : tr.program.cmds)
        if (c.op != WiredOp::Launch && c.arg >= tr.program.num_events)
            return in.fail("cmd references an event out of range");
    for (int32_t s : tr.program.barrier_slots)
        if (s >= tr.program.num_events)
            return in.fail("barrier slot out of range");

    if (!count("profiling", 0, 1))
        return in.fail("bad profiling line");
    tr.program.profiling = n != 0;

    if (!count("profiles", 0, record::kMaxCount))
        return in.fail("bad profiles line");
    const long num_profiles = n;
    const int32_t num_slots =
        static_cast<int32_t>(tr.program.barrier_slots.size());
    for (long i = 0; i < num_profiles; ++i) {
        if (!in.next())
            return in.fail("unexpected end of input (profiles)");
        if (t.size() != 8 || t[0] != "profile")
            return in.fail("bad profile line");
        WiredProfile p;
        int epoch = 0;
        if (!record::parse_int(t[1], &epoch, 0, 1) ||
            !record::parse_int(t[2], &p.step, 0,
                               static_cast<int32_t>(num_steps - 1)) ||
            !record::parse_int(t[3], &p.start_slot, -1,
                               tr.program.num_events - 1) ||
            !record::parse_int(t[4], &p.end_slot, 0,
                               tr.program.num_events - 1) ||
            !record::parse_int(t[5], &p.barrier_begin, 0, num_slots) ||
            !record::parse_int(t[6], &p.barrier_end, 0, num_slots) ||
            p.barrier_begin > p.barrier_end)
            return in.fail("bad profile entry");
        if (epoch == 0 && p.start_slot < 0)
            return in.fail("non-epoch profile wants a start slot");
        p.epoch_metric = epoch != 0;
        p.key = dec_str(t[7]);
        tr.program.profiles.push_back(std::move(p));
    }

    if (!count("profile_ns", 0, record::kMaxCount))
        return in.fail("bad profile_ns line");
    const long num_pns = n;
    for (long i = 0; i < num_pns; ++i) {
        double f = 0.0;
        if (!in.next())
            return in.fail("unexpected end of input (profile_ns)");
        if (t.size() != 3 || t[0] != "pns" ||
            !record::parse_finite(t[1], &f))
            return in.fail("bad pns line");
        tr.profile_ns[dec_str(t[2])] = f;
    }

    if (!count("spans", 0, record::kMaxCount))
        return in.fail("bad spans line");
    const long num_spans = n;
    for (long i = 0; i < num_spans; ++i) {
        if (!in.next())
            return in.fail("unexpected end of input (spans)");
        if (t.size() != 6 || t[0] != "span")
            return in.fail("bad span line");
        TraceSpan s;
        if (!record::parse_int(t[1], &s.stream, 0, tr.num_streams - 1) ||
            !record::parse_finite(t[2], &s.start_ns) ||
            !record::parse_finite(t[3], &s.end_ns, s.start_ns))
            return in.fail("bad span entry");
        s.key = dec_str(t[4]);
        s.name = dec_str(t[5]);
        tr.spans.push_back(std::move(s));
    }

    if (!in.next() || t.size() != 1 || t[0] != "end")
        return in.fail("missing end marker");

    *trace = std::move(tr);
    return true;
}

}  // namespace astra
