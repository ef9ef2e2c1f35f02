#include "obs/convergence.h"

#include <ostream>

#include "support/record.h"

namespace astra {

using record::Num;

int64_t
ConvergenceReport::pruned_by(const std::string& mode) const
{
    int64_t total = 0;
    for (const ConvergenceEpoch& e : epochs)
        if (e.mode == mode)
            total += e.pruned;
    return total;
}

int64_t
ConvergenceReport::exhaustive_total() const
{
    int64_t total = 0;
    for (const ConvergenceEpoch& e : epochs)
        total += e.exhaustive;
    return total;
}

namespace {

/** Minimal JSON string escaping (store errors carry file paths). */
std::string
json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

}  // namespace

void
ConvergenceReport::write_json(std::ostream& os) const
{
    os << "{\"best_ns\":" << Num(best_ns) << ",\"minibatches\":"
       << Num(minibatches) << ",\"whatif_evals\":" << Num(whatif_evals)
       << ",\"termination\":\"" << termination << "\"";
    if (!store_tier.empty()) {
        os << ",\"store\":{\"tier\":\"" << store_tier
           << "\",\"transferred_bindings\":"
           << Num(store_transferred_bindings) << ",\"errors\":[";
        bool first = true;
        for (const std::string& e : store_errors) {
            if (!first)
                os << ",";
            first = false;
            os << "\"" << json_escape(e) << "\"";
        }
        os << "]";
        if (store_drift_demotions > 0)
            os << ",\"drift_demotions\":" << Num(store_drift_demotions);
        os << "}";
    }
    os << ",\"fault_report\":{\"injected_kernel_faults\":"
       << Num(faults.injected_kernel_faults)
       << ",\"straggler_events\":" << Num(faults.straggler_events)
       << ",\"faulted_minibatches\":" << Num(faults.faulted_minibatches)
       << ",\"dispatch_retries\":" << Num(faults.dispatch_retries)
       << ",\"wirer_retries\":" << Num(faults.wirer_retries)
       << ",\"quarantined_keys\":" << Num(faults.quarantined_keys)
       << ",\"backoff_ns\":" << Num(faults.backoff_ns) << "}"
       << ",\"epochs\":[";
    bool first = true;
    for (const ConvergenceEpoch& e : epochs) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"strategy\":" << Num(e.strategy) << ",\"stage\":\""
           << e.stage << "\",\"mode\":\"" << e.mode
           << "\",\"trials\":" << Num(e.trials) << ",\"exhaustive\":"
           << Num(e.exhaustive) << ",\"pruned\":" << Num(e.pruned)
           << ",\"best_ns\":" << Num(e.best_ns)
           << ",\"minibatches_total\":" << Num(e.minibatches_total)
           << ",\"whatif_evals\":" << Num(e.whatif_evals) << "}";
    }
    os << "]}";
}

}  // namespace astra
