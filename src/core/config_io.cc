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

}  // namespace astra
