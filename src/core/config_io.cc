#include "core/config_io.h"

#include <iterator>
#include <sstream>
#include <utility>

#include "support/record.h"

namespace astra {

void
write_config(std::ostream& os, const ScheduleConfig& config)
{
    const record::WriteGuard pin(os);
    os << "astra-config v1\n";
    os << "strategy " << config.strategy << "\n";
    os << "elementwise_fusion " << (config.elementwise_fusion ? 1 : 0)
       << "\n";
    os << "use_streams " << (config.use_streams ? 1 : 0) << "\n";
    os << "num_streams " << config.num_streams << "\n";
    os << "group_chunk";
    for (int c : config.group_chunk)
        os << " " << c;
    os << "\n";
    os << "group_lib";
    for (GemmLib lib : config.group_lib)
        os << " " << static_cast<int>(lib);
    os << "\n";
    os << "single_lib";
    for (const auto& [node, lib] : config.single_lib)
        os << " " << node << ":" << static_cast<int>(lib);
    os << "\n";
    os << "epoch_choice";
    for (const auto& [key, choice] : config.epoch_choice)
        os << " " << key.first << "," << key.second << ":" << choice;
    os << "\n";
}

bool
read_config(std::istream& is, ScheduleConfig* config, std::string* error)
{
    const std::string text(std::istreambuf_iterator<char>(is), {});
    return config_from_string(text, config, error);
}

std::string
config_to_string(const ScheduleConfig& config)
{
    std::ostringstream os;
    write_config(os, config);
    return os.str();
}

bool
config_from_string(std::string_view text, ScheduleConfig* config,
                   std::string* error)
{
    record::LineReader in(text, error);
    const std::vector<std::string_view>& t = in.tokens();
    if (!in.next())
        return in.fail("empty input (expected 'astra-config v1')");
    if (in.line() != "astra-config v1")
        return in.fail("bad header '", in.line(),
                       "' (expected 'astra-config v1')");
    ScheduleConfig out;
    while (in.next()) {
        if (t.empty())
            continue;
        const std::string_view key = t[0];
        // Scalar keys take exactly one value: "strategy 1x" and
        // "num_streams 2 3" are corrupt, not 1 and 2.
        int v = 0;
        const auto scalar = [&] {
            return t.size() == 2 && record::parse_int(t[1], &v);
        };
        if (key == "strategy") {
            if (!scalar())
                return in.fail("malformed strategy value");
            out.strategy = v;
        } else if (key == "elementwise_fusion") {
            if (!scalar())
                return in.fail("malformed elementwise_fusion value");
            out.elementwise_fusion = v != 0;
        } else if (key == "use_streams") {
            if (!scalar())
                return in.fail("malformed use_streams value");
            out.use_streams = v != 0;
        } else if (key == "num_streams") {
            if (!scalar())
                return in.fail("malformed num_streams value");
            if (v < 1)
                return in.fail("num_streams ", v, " below 1");
            out.num_streams = v;
        } else if (key == "group_chunk") {
            for (size_t i = 1; i < t.size(); ++i) {
                if (!record::parse_int(t[i], &v))
                    return in.fail("malformed group_chunk value '", t[i],
                                   "'");
                out.group_chunk.push_back(v);
            }
        } else if (key == "group_lib") {
            for (size_t i = 1; i < t.size(); ++i) {
                if (!record::parse_int(t[i], &v))
                    return in.fail("malformed group_lib value '", t[i],
                                   "'");
                if (v < 0 || v >= kNumGemmLibs)
                    return in.fail("group_lib index ", v,
                                   " out of range [0,", kNumGemmLibs, ")");
                out.group_lib.push_back(static_cast<GemmLib>(v));
            }
        } else if (key == "single_lib") {
            for (size_t i = 1; i < t.size(); ++i) {
                const std::string_view pair = t[i];
                const auto colon = pair.find(':');
                if (colon == std::string_view::npos)
                    return in.fail("single_lib token '", pair,
                                   "' missing ':'");
                int node = 0;
                int lib = 0;
                if (!record::parse_int(pair.substr(0, colon), &node) ||
                    !record::parse_int(pair.substr(colon + 1), &lib))
                    return in.fail("malformed single_lib token '", pair,
                                   "'");
                if (node < 0 || lib < 0 || lib >= kNumGemmLibs)
                    return in.fail("single_lib token '", pair,
                                   "' out of range");
                out.single_lib[static_cast<NodeId>(node)] =
                    static_cast<GemmLib>(lib);
            }
        } else if (key == "epoch_choice") {
            for (size_t i = 1; i < t.size(); ++i) {
                const std::string_view triple = t[i];
                const auto comma = triple.find(',');
                const auto colon = triple.find(':');
                if (comma == std::string_view::npos ||
                    colon == std::string_view::npos || colon < comma)
                    return in.fail("malformed epoch_choice token '",
                                   triple,
                                   "' (expected se,level:choice)");
                int se = 0;
                int level = 0;
                int choice = 0;
                if (!record::parse_int(triple.substr(0, comma), &se) ||
                    !record::parse_int(
                        triple.substr(comma + 1, colon - comma - 1),
                        &level) ||
                    !record::parse_int(triple.substr(colon + 1), &choice))
                    return in.fail("malformed epoch_choice token '",
                                   triple, "'");
                out.epoch_choice[{se, level}] = choice;
            }
        } else {
            // Unknown key: refuse rather than guess.
            return in.fail("unknown key '", key, "'");
        }
    }
    *config = std::move(out);
    return true;
}

void
write_checkpoint(std::ostream& os, const WirerCheckpoint& cp)
{
    const record::WriteGuard pin(os);
    os << "astra-checkpoint v1\n";
    os << "strategies " << cp.strategies.size() << "\n";
    for (size_t sid = 0; sid < cp.strategies.size(); ++sid) {
        const auto& recs = cp.strategies[sid];
        os << "strategy " << sid << " " << recs.size() << "\n";
        for (const DispatchRecord& r : recs) {
            os << "record " << r.total_ns << " " << r.clock_multiplier
               << " " << (r.faulted ? 1 : 0) << " " << r.fault_attempts
               << " " << r.faults_seen << " " << r.straggler_events
               << " " << r.backoff_ns << " " << r.profile.size()
               << "\n";
            // The key goes last so it may contain any character but a
            // newline; the value parses no matter what the key is.
            for (const auto& [key, ns] : r.profile)
                os << "prof " << ns << " " << key << "\n";
        }
    }
}

std::string
checkpoint_to_string(const WirerCheckpoint& cp)
{
    std::ostringstream os;
    write_checkpoint(os, cp);
    return os.str();
}

bool
checkpoint_from_string(std::string_view text, WirerCheckpoint* cp,
                       std::string* error)
{
    record::LineReader in(text, error);
    const std::vector<std::string_view>& t = in.tokens();
    if (!in.next())
        return in.fail("empty input (expected 'astra-checkpoint v1')");
    if (in.line() != "astra-checkpoint v1")
        return in.fail("bad header '", in.line(),
                       "' (expected 'astra-checkpoint v1')");

    int64_t num_strategies = 0;
    if (!in.next())
        return in.fail("missing strategies line");
    if (t.size() != 2 || t[0] != "strategies" ||
        !record::parse_int(t[1], &num_strategies, 0,
                           record::kMaxCount))
        return in.fail("malformed strategies line");

    WirerCheckpoint out;
    for (int64_t sid = 0; sid < num_strategies; ++sid) {
        int64_t got_sid = 0;
        int64_t num_records = 0;
        if (!in.next())
            return in.fail("truncated: missing strategy ", sid,
                           " header");
        if (t.size() != 3 || t[0] != "strategy" ||
            !record::parse_int(t[1], &got_sid, sid, sid) ||
            !record::parse_int(t[2], &num_records, 0, record::kMaxCount))
            return in.fail("malformed strategy header (expected "
                           "'strategy ",
                           sid, " <count>')");
        auto& recs = out.strategies.emplace_back();
        for (int64_t i = 0; i < num_records; ++i) {
            DispatchRecord r;
            if (!in.next())
                return in.fail("truncated: strategy ", sid,
                               " missing record ", i);
            if (t.size() != 9 || t[0] != "record")
                return in.fail("malformed record line");
            int64_t faulted = 0;
            int64_t num_profiles = 0;
            if (!record::parse_f64(t[1], &r.total_ns) ||
                !record::parse_f64(t[2], &r.clock_multiplier) ||
                !record::parse_int(t[3], &faulted) ||
                !record::parse_int(t[4], &r.fault_attempts) ||
                !record::parse_int(t[5], &r.faults_seen) ||
                !record::parse_int(t[6], &r.straggler_events) ||
                !record::parse_f64(t[7], &r.backoff_ns) ||
                !record::parse_int(t[8], &num_profiles, 0,
                                   record::kMaxCount))
                return in.fail("malformed record fields");
            r.faulted = faulted != 0;
            for (int64_t p = 0; p < num_profiles; ++p) {
                double ns = 0.0;
                if (!in.next())
                    return in.fail("truncated: record ", i,
                                   " missing prof ", p);
                if (t.size() < 2 || t[0] != "prof" ||
                    !record::parse_f64(t[1], &ns))
                    return in.fail("malformed prof line");
                std::string_view key;
                if (!in.after(1, &key))
                    return in.fail("missing profile key on prof line");
                r.profile.emplace_back(std::string(key), ns);
            }
            recs.push_back(std::move(r));
        }
    }
    *cp = std::move(out);
    return true;
}

}  // namespace astra
