#include "obs/convergence.h"

#include <ostream>

namespace astra {

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
    os << "{\"best_ns\":" << best_ns << ",\"minibatches\":"
       << minibatches << ",\"whatif_evals\":" << whatif_evals
       << ",\"termination\":\"" << termination << "\"";
    if (!store_tier.empty()) {
        os << ",\"store\":{\"tier\":\"" << store_tier
           << "\",\"transferred_bindings\":" << store_transferred_bindings
           << ",\"errors\":[";
        bool first = true;
        for (const std::string& e : store_errors) {
            if (!first)
                os << ",";
            first = false;
            os << "\"" << json_escape(e) << "\"";
        }
        os << "]";
        if (store_drift_demotions > 0)
            os << ",\"drift_demotions\":" << store_drift_demotions;
        os << "}";
    }
    if (!dp_skipped.empty()) {
        os << ",\"dp_skipped\":[";
        bool sfirst = true;
        for (const std::string& s : dp_skipped) {
            if (!sfirst)
                os << ",";
            sfirst = false;
            os << "\"" << json_escape(s) << "\"";
        }
        os << "]";
    }
    if (bucket_overflows > 0)
        os << ",\"bucket_overflows\":" << bucket_overflows;
    os << ",\"fault_report\":{\"injected_kernel_faults\":"
       << faults.injected_kernel_faults
       << ",\"straggler_events\":" << faults.straggler_events
       << ",\"faulted_minibatches\":" << faults.faulted_minibatches
       << ",\"dispatch_retries\":" << faults.dispatch_retries
       << ",\"wirer_retries\":" << faults.wirer_retries
       << ",\"quarantined_keys\":" << faults.quarantined_keys
       << ",\"backoff_ns\":" << faults.backoff_ns << "}"
       << ",\"epochs\":[";
    bool first = true;
    for (const ConvergenceEpoch& e : epochs) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"strategy\":" << e.strategy << ",\"stage\":\"" << e.stage
           << "\",\"mode\":\"" << e.mode << "\",\"trials\":" << e.trials
           << ",\"exhaustive\":" << e.exhaustive << ",\"pruned\":"
           << e.pruned << ",\"best_ns\":" << e.best_ns
           << ",\"minibatches_total\":" << e.minibatches_total
           << ",\"whatif_evals\":" << e.whatif_evals << "}";
    }
    os << "]}";
}

void
ConvergenceReport::write_csv(std::ostream& os) const
{
    os << "strategy,stage,mode,trials,exhaustive,pruned,best_ns,"
          "minibatches_total,whatif_evals\n";
    for (const ConvergenceEpoch& e : epochs)
        os << e.strategy << "," << e.stage << "," << e.mode << ","
           << e.trials << "," << e.exhaustive << "," << e.pruned << ","
           << e.best_ns << "," << e.minibatches_total << ","
           << e.whatif_evals << "\n";
}

}  // namespace astra
