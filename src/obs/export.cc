#include "obs/export.h"

#include <array>
#include <map>
#include <ostream>

#include "support/record.h"

namespace astra {

namespace {

using record::Num;

/** Full JSON string escaping for span and counter names. */
std::string
escape(const std::string& s)
{
    static const char* hex = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            continue;
          case '\\':
            out += "\\\\";
            continue;
          case '\n':
            out += "\\n";
            continue;
          case '\r':
            out += "\\r";
            continue;
          case '\t':
            out += "\\t";
            continue;
          case '\b':
            out += "\\b";
            continue;
          case '\f':
            out += "\\f";
            continue;
          default:
            break;
        }
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
            out += "\\u00";
            out += hex[u >> 4];
            out += hex[u & 0xf];
        } else {
            out += c;
        }
    }
    return out;
}

void
emit_kernel_event(std::ostream& os, const TraceSpan& s, bool* first)
{
    if (!*first)
        os << ",";
    *first = false;
    // Durations in the chrome format are microseconds. The args block
    // carries what the event name cannot: the profile-index key the
    // span was measured under, the stream it ran on, and the fact that
    // the duration came from the (simulated) device clock.
    os << "{\"name\":\"" << escape(s.name)
       << "\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":"
       << Num(s.start_ns / 1e3)
       << ",\"dur\":" << Num((s.end_ns - s.start_ns) / 1e3)
       << ",\"pid\":0,\"tid\":" << Num(s.stream)
       << ",\"args\":{\"key\":\"" << to_string(s.key)
       << "\",\"stream\":" << Num(s.stream)
       << ",\"dur_src\":\"device\"}}";
}

void
emit_process_name(std::ostream& os, int pid, const char* name,
                  bool* first)
{
    if (!*first)
        os << ",";
    *first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << Num(pid)
       << ",\"tid\":0,\"args\":{\"name\":\"" << escape(name) << "\"}}";
}

}  // namespace

void
write_chrome_trace(std::ostream& os, const std::vector<TraceSpan>& spans)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceSpan& s : spans)
        emit_kernel_event(os, s, &first);
    os << "],\"displayTimeUnit\":\"ns\"}";
}

namespace obs {

void
write_chrome_trace(std::ostream& os, const std::vector<Span>& host,
                   const std::vector<TraceSpan>& kernels)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    emit_process_name(os, 0, "sim-gpu", &first);
    emit_process_name(os, 1, "host", &first);
    for (const Span& s : host) {
        os << ",{\"name\":\"" << escape(s.name) << "\",\"cat\":\""
           << category_name(s.cat) << "\",\"ph\":\"X\",\"ts\":"
           << Num(s.start_ns / 1e3) << ",\"dur\":"
           << Num((s.end_ns - s.start_ns) / 1e3)
           << ",\"pid\":1,\"tid\":" << Num(s.tid)
           << ",\"args\":{\"dur_src\":\"host\"}}";
    }
    for (const TraceSpan& s : kernels)
        emit_kernel_event(os, s, &first);
    os << "],\"displayTimeUnit\":\"ns\"}";
}

void
write_chrome_trace(std::ostream& os)
{
    write_chrome_trace(os, host_spans(), kernel_spans());
}

void
write_text_summary(std::ostream& os)
{
    const std::vector<Span> spans = host_spans();
    const std::vector<TraceSpan> kernels = kernel_spans();

    // Span count and total self-inclusive time per category.
    std::array<int64_t, kNumCategories> count{};
    std::array<double, kNumCategories> total_ns{};
    for (const Span& s : spans) {
        const auto c = static_cast<size_t>(s.cat);
        ++count[c];
        total_ns[c] += s.end_ns - s.start_ns;
    }
    os << "== obs summary ==\n";
    os << "spans by category:\n";
    for (size_t c = 0; c < count.size(); ++c) {
        if (count[c] == 0)
            continue;
        os << "  " << category_name(static_cast<Category>(c)) << ": "
           << count[c] << " spans, " << total_ns[c] / 1e6
           << " ms inclusive\n";
    }
    os << "  kernel (device): " << kernels.size() << " spans";
    if (dropped_kernel_spans() > 0)
        os << " (+" << dropped_kernel_spans() << " dropped at cap)";
    os << "\n";

    const auto counters = counter_values();
    if (!counters.empty()) {
        os << "counters:\n";
        for (const auto& [name, v] : counters)
            os << "  " << name << " = " << v << "\n";
    }
    const auto hists = histogram_values();
    if (!hists.empty()) {
        os << "histograms:\n";
        for (const auto& [name, st] : hists)
            os << "  " << name << ": n=" << st.count() << " mean="
               << st.mean() << " min=" << st.min() << " max=" << st.max()
               << "\n";
    }
}

}  // namespace obs
}  // namespace astra
