#include "core/whatif.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "core/config_io.h"
#include "runtime/dispatcher.h"
#include "runtime/executor.h"
#include "support/logging.h"

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
            const std::map<std::string, double>* override_ns,
            std::vector<TraceSpan>* spans_out)
{
    GpuConfig gpu_cfg = cfg;
    gpu_cfg.collect_trace = spans_out != nullptr;
    SimGpu gpu(gpu_cfg);
    for (int s = 1; s < prog.num_streams; ++s)
        gpu.create_stream();
    std::vector<EventId> events(static_cast<size_t>(prog.num_events));
    for (int32_t e = 0; e < prog.num_events; ++e)
        events[static_cast<size_t>(e)] = gpu.create_event();
    // The exact command walk of replay_wired (PR 7), which is gated
    // bit-identical to the generic dispatcher in CI — the replay and a
    // real dispatch diverge by construction nowhere.
    for (const WiredCmd& cmd : prog.cmds) {
        switch (cmd.op) {
          case WiredOp::Launch: {
            const KernelDesc& k = kernels[static_cast<size_t>(cmd.arg)];
            if (override_ns != nullptr && !k.key.empty()) {
                if (const auto it = override_ns->find(k.key);
                    it != override_ns->end()) {
                    // A substituted cost is a pure-serial kernel of
                    // exactly that duration: zero blocks hold no SMs,
                    // so on a serial schedule the total shifts by
                    // exactly the substituted delta.
                    KernelDesc sub;
                    sub.name = k.name;
                    sub.key = k.key;
                    sub.blocks = 0;
                    sub.setup_ns = it->second;
                    gpu.launch(cmd.stream, std::move(sub));
                    break;
                }
            }
            gpu.launch(cmd.stream, k);
            break;
          }
          case WiredOp::Record:
            gpu.record_event(cmd.stream,
                             events[static_cast<size_t>(cmd.arg)]);
            break;
          case WiredOp::Wait:
            gpu.wait_event(cmd.stream,
                           events[static_cast<size_t>(cmd.arg)]);
            break;
        }
    }
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
    return run_program(trace.program, trace.kernels, trace.gpu,
                       override_ns.empty() ? nullptr : &override_ns,
                       nullptr);
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
    // The scheduler keeps only its last plan per strategy, so a fetch
    // hits only when this strategy's previous fetch was the same
    // config. Anything else is built — for a stage-C trial that is
    // just the epoch walk over the binding's cached plan skeleton.
    const std::shared_ptr<const ExecutionPlan> plan =
        scheduler_.build_cached(config);
    const WiredProgram prog =
        compile_plan(*plan, graph_, /*profiling=*/true);
    std::vector<KernelDesc> kernels(plan->steps.size());
    for (size_t i = 0; i < plan->steps.size(); ++i)
        if (plan->steps[i].kind != StepKind::Barrier)
            kernels[i] = build_step_kernel(plan->steps[i], graph_,
                                           tmap_, gpu_);
    return run_program(prog, kernels, gpu_, nullptr, nullptr);
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
    trace.program = compile_plan(*plan, graph_, /*profiling=*/true);
    trace.kernels.resize(plan->steps.size());
    trace.step_keys.resize(plan->steps.size());
    for (size_t i = 0; i < plan->steps.size(); ++i) {
        if (plan->steps[i].kind != StepKind::Barrier)
            trace.kernels[i] =
                build_step_kernel(plan->steps[i], graph_, tmap_, gpu_);
        trace.step_keys[i] = plan->steps[i].profile_key;
    }
    const ReplayResult r = run_program(trace.program, trace.kernels,
                                       gpu_, nullptr, &trace.spans);
    trace.total_ns = r.total_ns;
    trace.profile_ns = r.profile_ns;
    return trace;
}

// ---- serialization -------------------------------------------------------

namespace {

// Local copies of config_io's locale-proof token parsers (they are
// file-private there by design; the formats stay independently
// evolvable).

bool
wi_parse_int(const std::string& s, long lo, long hi, long* out)
{
    if (s.empty())
        return false;
    long v = 0;
    const char* last = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), last, v, 10);
    if (ec != std::errc() || ptr != last || v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

bool
wi_parse_f64(const std::string& s, double* out)
{
    const char* first = s.data();
    const char* last = s.data() + s.size();
    bool neg = false;
    if (first != last && (*first == '+' || *first == '-')) {
        neg = *first == '-';
        ++first;
    }
    std::chars_format fmt = std::chars_format::general;
    if (last - first > 2 && first[0] == '0' &&
        (first[1] == 'x' || first[1] == 'X')) {
        fmt = std::chars_format::hex;
        first += 2;
    }
    if (first == last)
        return false;
    double v = 0.0;
    std::from_chars_result r = std::from_chars(first, last, v, fmt);
    if (fmt == std::chars_format::general &&
        (r.ec != std::errc() || r.ptr != last))
        r = std::from_chars(first, last, v, std::chars_format::hex);
    if (r.ec != std::errc() || r.ptr != last)
        return false;
    *out = neg ? -v : v;
    return true;
}

/** "line N: reason" accumulator, mirroring config_io's reader style. */
class Diag
{
  public:
    explicit Diag(std::string* error)
        : error_(error)
    {
    }

    void
    advance()
    {
        ++line_;
    }

    bool
    fail(const std::string& reason)
    {
        if (error_ != nullptr)
            *error_ = "line " + std::to_string(line_) + ": " + reason;
        return false;
    }

  private:
    std::string* error_;
    int line_ = 0;
};

/** Empty strings travel as "-" (keys/names never contain spaces). */
std::string
enc_str(const std::string& s)
{
    return s.empty() ? "-" : s;
}

std::string
dec_str(const std::string& s)
{
    return s == "-" ? "" : s;
}

std::vector<std::string>
split_ws(const std::string& line)
{
    std::vector<std::string> out;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

constexpr long kMaxCount = 10000000;  // counts are untrusted input

}  // namespace

void
write_trace(std::ostream& os, const RecordedTrace& trace)
{
    os << "astra-whatif-trace v1\n";
    os << std::hexfloat;
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
    os << std::defaultfloat;
}

bool
read_trace(std::istream& is, RecordedTrace* trace, std::string* error)
{
    Diag diag(error);
    std::string line;
    const auto next = [&](std::vector<std::string>* toks) {
        if (!std::getline(is, line))
            return false;
        diag.advance();
        *toks = split_ws(line);
        return true;
    };

    std::vector<std::string> t;
    if (!next(&t))
        return diag.fail("unexpected end of input (missing header)");
    if (t.size() != 2 || t[0] != "astra-whatif-trace" || t[1] != "v1")
        return diag.fail("bad header (want \"astra-whatif-trace v1\")");

    RecordedTrace tr;
    double f = 0.0;
    long n = 0;

    if (!next(&t) || t.size() != 7 || t[0] != "gpu")
        return diag.fail("bad gpu line");
    if (!wi_parse_int(t[1], 1, 1000000, &n))
        return diag.fail("bad gpu num_sms");
    tr.gpu.num_sms = static_cast<int>(n);
    double* gpu_f[5] = {&tr.gpu.flops_per_sm_ns, &tr.gpu.hbm_gbps,
                        &tr.gpu.launch_overhead_ns,
                        &tr.gpu.event_record_ns,
                        &tr.gpu.event_enqueue_ns};
    for (int i = 0; i < 5; ++i) {
        if (!wi_parse_f64(t[static_cast<size_t>(i) + 2], gpu_f[i]) ||
            !std::isfinite(*gpu_f[i]) || *gpu_f[i] < 0.0)
            return diag.fail("bad gpu timing constant");
    }
    tr.gpu = sanitize_device(tr.gpu);

    if (!next(&t) || t.size() != 2 || t[0] != "total_ns" ||
        !wi_parse_f64(t[1], &f) || !std::isfinite(f) || f < 0.0)
        return diag.fail("bad total_ns line");
    tr.total_ns = f;

    if (!next(&t) || t.size() != 2 || t[0] != "num_streams" ||
        !wi_parse_int(t[1], 1, 1024, &n))
        return diag.fail("bad num_streams line");
    tr.num_streams = static_cast<int>(n);
    tr.program.num_streams = tr.num_streams;

    if (!next(&t) || t.size() != 2 || t[0] != "config" ||
        !wi_parse_int(t[1], 0, kMaxCount, &n))
        return diag.fail("bad config line");
    std::string cfg_text;
    for (long i = 0; i < n; ++i) {
        if (!std::getline(is, line))
            return diag.fail("unexpected end of input (config block)");
        diag.advance();
        cfg_text += line;
        cfg_text += '\n';
    }
    std::string cfg_err;
    if (!config_from_string(cfg_text, &tr.config, &cfg_err))
        return diag.fail("bad config block (" + cfg_err + ")");

    if (!next(&t) || t.size() != 2 || t[0] != "steps" ||
        !wi_parse_int(t[1], 0, kMaxCount, &n))
        return diag.fail("bad steps line");
    const long num_steps = n;
    for (long i = 0; i < num_steps; ++i) {
        if (!next(&t))
            return diag.fail("unexpected end of input (steps)");
        if (t.size() != 8 || t[0] != "step")
            return diag.fail("bad step line");
        long barrier = 0, blocks = 0, max_sms = 0;
        KernelDesc k;
        if (!wi_parse_int(t[1], 0, 1, &barrier))
            return diag.fail("bad step barrier flag");
        if (!wi_parse_int(t[3], 0, std::numeric_limits<long>::max() / 2,
                          &blocks))
            return diag.fail("bad step blocks");
        if (!wi_parse_f64(t[4], &k.block_ns) ||
            !std::isfinite(k.block_ns) || k.block_ns < 0.0)
            return diag.fail("bad step block_ns");
        if (!wi_parse_f64(t[5], &k.setup_ns) ||
            !std::isfinite(k.setup_ns) || k.setup_ns < 0.0)
            return diag.fail("bad step setup_ns");
        if (!wi_parse_int(t[6], 0, 1000000, &max_sms))
            return diag.fail("bad step max_sms");
        tr.program.is_barrier.push_back(static_cast<uint8_t>(barrier));
        tr.step_keys.push_back(dec_str(t[2]));
        k.key = tr.step_keys.back();
        k.blocks = blocks;
        k.max_sms = static_cast<int>(max_sms);
        k.name = dec_str(t[7]);
        tr.kernels.push_back(std::move(k));
    }

    if (!next(&t) || t.size() != 2 || t[0] != "cmds" ||
        !wi_parse_int(t[1], 0, kMaxCount, &n))
        return diag.fail("bad cmds line");
    const long num_cmds = n;
    for (long i = 0; i < num_cmds; ++i) {
        if (!next(&t))
            return diag.fail("unexpected end of input (cmds)");
        if (t.size() != 4 || t[0] != "cmd" || t[1].size() != 1)
            return diag.fail("bad cmd line");
        WiredCmd c;
        switch (t[1][0]) {
          case 'L': c.op = WiredOp::Launch; break;
          case 'R': c.op = WiredOp::Record; break;
          case 'W': c.op = WiredOp::Wait; break;
          default: return diag.fail("bad cmd op (want L, R or W)");
        }
        long stream = 0, arg = 0;
        if (!wi_parse_int(t[2], 0, tr.num_streams - 1, &stream))
            return diag.fail("cmd stream out of range");
        if (!wi_parse_int(t[3], 0, kMaxCount, &arg))
            return diag.fail("bad cmd arg");
        if (c.op == WiredOp::Launch && arg >= num_steps)
            return diag.fail("cmd launches a step out of range");
        c.stream = static_cast<int32_t>(stream);
        c.arg = static_cast<int32_t>(arg);
        tr.program.cmds.push_back(c);
    }

    if (!next(&t) || t.empty() || t[0] != "step_begin")
        return diag.fail("bad step_begin line");
    if (static_cast<long>(t.size()) != num_steps + 2)
        return diag.fail("step_begin wants " +
                         std::to_string(num_steps + 1) + " entries");
    for (size_t i = 1; i < t.size(); ++i) {
        if (!wi_parse_int(t[i], 0, num_cmds, &n))
            return diag.fail("bad step_begin entry");
        tr.program.step_begin.push_back(static_cast<int32_t>(n));
    }

    if (!next(&t) || t.empty() || t[0] != "barrier_slots")
        return diag.fail("bad barrier_slots line");
    for (size_t i = 1; i < t.size(); ++i) {
        if (!wi_parse_int(t[i], 0, kMaxCount, &n))
            return diag.fail("bad barrier_slots entry");
        tr.program.barrier_slots.push_back(static_cast<int32_t>(n));
    }

    if (!next(&t) || t.size() != 2 || t[0] != "num_events" ||
        !wi_parse_int(t[1], 0, kMaxCount, &n))
        return diag.fail("bad num_events line");
    tr.program.num_events = static_cast<int32_t>(n);
    for (const WiredCmd& c : tr.program.cmds)
        if (c.op != WiredOp::Launch && c.arg >= tr.program.num_events)
            return diag.fail("cmd references an event out of range");
    for (int32_t s : tr.program.barrier_slots)
        if (s >= tr.program.num_events)
            return diag.fail("barrier slot out of range");

    if (!next(&t) || t.size() != 2 || t[0] != "profiling" ||
        !wi_parse_int(t[1], 0, 1, &n))
        return diag.fail("bad profiling line");
    tr.program.profiling = n != 0;

    if (!next(&t) || t.size() != 2 || t[0] != "profiles" ||
        !wi_parse_int(t[1], 0, kMaxCount, &n))
        return diag.fail("bad profiles line");
    const long num_profiles = n;
    for (long i = 0; i < num_profiles; ++i) {
        if (!next(&t))
            return diag.fail("unexpected end of input (profiles)");
        if (t.size() != 8 || t[0] != "profile")
            return diag.fail("bad profile line");
        WiredProfile p;
        long epoch = 0, step = 0, start = 0, end = 0, bb = 0, be = 0;
        if (!wi_parse_int(t[1], 0, 1, &epoch) ||
            !wi_parse_int(t[2], 0, num_steps - 1, &step) ||
            !wi_parse_int(t[3], -1, tr.program.num_events - 1, &start) ||
            !wi_parse_int(t[4], 0, tr.program.num_events - 1, &end) ||
            !wi_parse_int(t[5], 0,
                          static_cast<long>(
                              tr.program.barrier_slots.size()),
                          &bb) ||
            !wi_parse_int(t[6], 0,
                          static_cast<long>(
                              tr.program.barrier_slots.size()),
                          &be) ||
            bb > be)
            return diag.fail("bad profile entry");
        if (epoch == 0 && start < 0)
            return diag.fail("non-epoch profile wants a start slot");
        p.epoch_metric = epoch != 0;
        p.step = static_cast<int32_t>(step);
        p.start_slot = static_cast<int32_t>(start);
        p.end_slot = static_cast<int32_t>(end);
        p.barrier_begin = static_cast<int32_t>(bb);
        p.barrier_end = static_cast<int32_t>(be);
        p.key = dec_str(t[7]);
        tr.program.profiles.push_back(std::move(p));
    }

    if (!next(&t) || t.size() != 2 || t[0] != "profile_ns" ||
        !wi_parse_int(t[1], 0, kMaxCount, &n))
        return diag.fail("bad profile_ns line");
    const long num_pns = n;
    for (long i = 0; i < num_pns; ++i) {
        if (!next(&t))
            return diag.fail("unexpected end of input (profile_ns)");
        if (t.size() != 3 || t[0] != "pns" || !wi_parse_f64(t[1], &f) ||
            !std::isfinite(f))
            return diag.fail("bad pns line");
        tr.profile_ns[dec_str(t[2])] = f;
    }

    if (!next(&t) || t.size() != 2 || t[0] != "spans" ||
        !wi_parse_int(t[1], 0, kMaxCount, &n))
        return diag.fail("bad spans line");
    const long num_spans = n;
    for (long i = 0; i < num_spans; ++i) {
        if (!next(&t))
            return diag.fail("unexpected end of input (spans)");
        if (t.size() != 6 || t[0] != "span")
            return diag.fail("bad span line");
        TraceSpan s;
        long stream = 0;
        if (!wi_parse_int(t[1], 0, tr.num_streams - 1, &stream) ||
            !wi_parse_f64(t[2], &s.start_ns) ||
            !wi_parse_f64(t[3], &s.end_ns) ||
            !std::isfinite(s.start_ns) || !std::isfinite(s.end_ns) ||
            s.end_ns < s.start_ns)
            return diag.fail("bad span entry");
        s.stream = static_cast<int>(stream);
        s.key = dec_str(t[4]);
        s.name = dec_str(t[5]);
        tr.spans.push_back(std::move(s));
    }

    if (!next(&t) || t.size() != 1 || t[0] != "end")
        return diag.fail("missing end marker");

    *trace = std::move(tr);
    return true;
}

std::string
trace_to_string(const RecordedTrace& trace)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    write_trace(os, trace);
    return os.str();
}

bool
trace_from_string(const std::string& text, RecordedTrace* trace,
                  std::string* error)
{
    std::istringstream is(text);
    is.imbue(std::locale::classic());
    return read_trace(is, trace, error);
}

}  // namespace astra
