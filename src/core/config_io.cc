#include "core/config_io.h"

#include <charconv>
#include <limits>
#include <locale>
#include <sstream>
#include <system_error>
#include <utility>

namespace astra {

namespace {

/**
 * All parsers here use std::from_chars, never strtol/strtod or bare
 * stream extraction with the ambient locale: a checkpoint written on
 * one host must load on a host whose global C/C++ locale uses ','
 * as the decimal separator (de_DE-style), and locale-sensitive
 * conversions silently misparse "1.5" there. from_chars is defined to
 * be locale-independent ("C" semantics), whole-string match enforced.
 */

/**
 * Parse an entire string as a decimal integer into [lo, hi]; false on
 * empty input, trailing junk, or overflow — never throws (config files
 * are untrusted input; a malformed token must fail the load, not crash
 * the process).
 */
bool
parse_int(const std::string& s, long lo, long hi, long* out)
{
    if (s.empty())
        return false;
    long v = 0;
    const char* last = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), last, v, 10);
    if (ec != std::errc() || ptr != last)
        return false;
    if (v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

bool
parse_int(const std::string& s, int* out)
{
    long v = 0;
    if (!parse_int(s, std::numeric_limits<int>::min(),
                   std::numeric_limits<int>::max(), &v))
        return false;
    *out = static_cast<int>(v);
    return true;
}

/**
 * Parse an entire string as a double. Accepts hexfloat ("0x1.8p+3",
 * with or without the "0x" prefix), which is how checkpoints store
 * every measurement — the only text form guaranteed to round-trip a
 * double bit-exactly. from_chars itself takes hex digits without the
 * prefix, so the prefix (and a leading sign, which from_chars also
 * rejects for '+') is stripped by hand.
 */
bool
parse_f64(const std::string& s, double* out)
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
        // to_chars-style hexfloat omits the "0x" prefix ("1.8p+3");
        // when the general parse can't consume the whole token, retry
        // it as prefix-less hex before giving up.
        r = std::from_chars(first, last, v, std::chars_format::hex);
    if (r.ec != std::errc() || r.ptr != last)
        return false;
    *out = neg ? -v : v;
    return true;
}

bool
parse_i64(const std::string& s, int64_t* out)
{
    if (s.empty())
        return false;
    int64_t v = 0;
    const char* last = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), last, v, 10);
    if (ec != std::errc() || ptr != last)
        return false;
    *out = v;
    return true;
}

/**
 * Diagnosis accumulator for the readers: tracks the current line
 * number and formats "line N: reason" into the caller's error slot
 * (when one was provided). fail() always returns false so parse code
 * can `return diag.fail(...)`.
 */
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

    int line() const { return line_; }

    template <typename... Args>
    bool
    fail(Args&&... args)
    {
        if (error_ != nullptr) {
            std::ostringstream os;
            os << "line " << line_ << ": ";
            (os << ... << std::forward<Args>(args));
            *error_ = os.str();
        }
        return false;
    }

  private:
    std::string* error_;
    int line_ = 0;
};

}  // namespace

void
write_config(std::ostream& os, const ScheduleConfig& config)
{
    // Classic-locale output: a caller's imbued locale must not inject
    // digit grouping ("1,234") into what read_config later parses.
    const std::locale prev = os.imbue(std::locale::classic());
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
    os.imbue(prev);
}

bool
read_config(std::istream& is, ScheduleConfig* config, std::string* error)
{
    Diag diag(error);
    std::string header;
    diag.advance();
    if (!std::getline(is, header))
        return diag.fail("empty input (expected 'astra-config v1')");
    if (header != "astra-config v1")
        return diag.fail("bad header '", header,
                         "' (expected 'astra-config v1')");
    ScheduleConfig out;
    std::string line;
    while (std::getline(is, line)) {
        diag.advance();
        std::istringstream ls(line);
        // Classic-locale extraction: `ls >> int` honors the stream's
        // locale, and a grouping-aware global locale would stop at the
        // first separator character.
        ls.imbue(std::locale::classic());
        std::string key;
        if (!(ls >> key))
            continue;
        if (key == "strategy") {
            if (!(ls >> out.strategy))
                return diag.fail("malformed strategy value");
        } else if (key == "elementwise_fusion") {
            int v;
            if (!(ls >> v))
                return diag.fail("malformed elementwise_fusion value");
            out.elementwise_fusion = v != 0;
        } else if (key == "use_streams") {
            int v;
            if (!(ls >> v))
                return diag.fail("malformed use_streams value");
            out.use_streams = v != 0;
        } else if (key == "num_streams") {
            if (!(ls >> out.num_streams))
                return diag.fail("malformed num_streams value");
            if (out.num_streams < 1)
                return diag.fail("num_streams ", out.num_streams,
                                 " below 1");
        } else if (key == "group_chunk") {
            int c;
            while (ls >> c)
                out.group_chunk.push_back(c);
        } else if (key == "group_lib") {
            int lib;
            while (ls >> lib) {
                if (lib < 0 || lib >= kNumGemmLibs)
                    return diag.fail("group_lib index ", lib,
                                     " out of range [0,", kNumGemmLibs,
                                     ")");
                out.group_lib.push_back(static_cast<GemmLib>(lib));
            }
        } else if (key == "single_lib") {
            std::string pair;
            while (ls >> pair) {
                const auto colon = pair.find(':');
                if (colon == std::string::npos)
                    return diag.fail("single_lib token '", pair,
                                     "' missing ':'");
                int node = 0;
                int lib = 0;
                if (!parse_int(pair.substr(0, colon), &node) ||
                    !parse_int(pair.substr(colon + 1), &lib))
                    return diag.fail("malformed single_lib token '",
                                     pair, "'");
                if (node < 0 || lib < 0 || lib >= kNumGemmLibs)
                    return diag.fail("single_lib token '", pair,
                                     "' out of range");
                out.single_lib[static_cast<NodeId>(node)] =
                    static_cast<GemmLib>(lib);
            }
        } else if (key == "epoch_choice") {
            std::string triple;
            while (ls >> triple) {
                const auto comma = triple.find(',');
                const auto colon = triple.find(':');
                if (comma == std::string::npos ||
                    colon == std::string::npos || colon < comma)
                    return diag.fail("malformed epoch_choice token '",
                                     triple,
                                     "' (expected se,level:choice)");
                int se = 0;
                int level = 0;
                int choice = 0;
                if (!parse_int(triple.substr(0, comma), &se) ||
                    !parse_int(
                        triple.substr(comma + 1, colon - comma - 1),
                        &level) ||
                    !parse_int(triple.substr(colon + 1), &choice))
                    return diag.fail("malformed epoch_choice token '",
                                     triple, "'");
                out.epoch_choice[{se, level}] = choice;
            }
        } else {
            // Unknown key: refuse rather than guess.
            return diag.fail("unknown key '", key, "'");
        }
    }
    *config = std::move(out);
    return true;
}

bool
read_config(std::istream& is, ScheduleConfig* config)
{
    return read_config(is, config, nullptr);
}

std::string
config_to_string(const ScheduleConfig& config)
{
    std::ostringstream os;
    write_config(os, config);
    return os.str();
}

bool
config_from_string(const std::string& text, ScheduleConfig* config,
                   std::string* error)
{
    std::istringstream is(text);
    return read_config(is, config, error);
}

bool
config_from_string(const std::string& text, ScheduleConfig* config)
{
    return config_from_string(text, config, nullptr);
}

void
write_profile_index(std::ostream& os, const ProfileIndex& index)
{
    const std::locale prev = os.imbue(std::locale::classic());
    os << "astra-profile v1\n";
    os << "entries " << index.entries().size() << "\n";
    const std::ios_base::fmtflags flags = os.flags();
    os << std::hexfloat;
    for (const auto& [key, s] : index.entries()) {
        os << "stat " << s.count << " " << s.rejected << " " << s.faults
           << " " << s.min << " " << s.max << " " << s.mean << " "
           << s.m2 << " " << s.window().size();
        for (double w : s.window())
            os << " " << w;
        // The key goes last so it may contain any character but a
        // newline (profile keys embed '|', '%', context mangles, ...).
        os << " " << key << "\n";
    }
    os.flags(flags);
    os.imbue(prev);
}

bool
read_profile_index(std::istream& is, ProfileIndex* index,
                   std::string* error)
{
    Diag diag(error);
    std::string header;
    diag.advance();
    if (!std::getline(is, header))
        return diag.fail("empty input (expected 'astra-profile v1')");
    if (header != "astra-profile v1")
        return diag.fail("bad header '", header,
                         "' (expected 'astra-profile v1')");

    std::string line;
    diag.advance();
    if (!std::getline(is, line))
        return diag.fail("missing entries line");
    std::istringstream ls(line);
    ls.imbue(std::locale::classic());
    std::string tag;
    std::string tok;
    int64_t num_entries = 0;
    if (!(ls >> tag >> tok) || tag != "entries" ||
        !parse_i64(tok, &num_entries) || num_entries < 0)
        return diag.fail("malformed entries line '", line, "'");

    ProfileIndex out(index->policy());
    for (int64_t i = 0; i < num_entries; ++i) {
        diag.advance();
        if (!std::getline(is, line))
            return diag.fail("truncated: expected ", num_entries,
                             " stat lines, got ", i);
        ls.clear();
        ls.str(line);
        std::string f[8];
        if (!(ls >> tag >> f[0] >> f[1] >> f[2] >> f[3] >> f[4] >> f[5] >>
              f[6] >> f[7]) ||
            tag != "stat")
            return diag.fail("malformed stat line '", line, "'");
        int64_t count = 0;
        int64_t rejected = 0;
        int64_t faults = 0;
        double mn = 0.0;
        double mx = 0.0;
        double mean = 0.0;
        double m2 = 0.0;
        int64_t num_window = 0;
        if (!parse_i64(f[0], &count) || count < 0 ||
            !parse_i64(f[1], &rejected) || rejected < 0 ||
            !parse_i64(f[2], &faults) || faults < 0 ||
            !parse_f64(f[3], &mn) || !parse_f64(f[4], &mx) ||
            !parse_f64(f[5], &mean) || !parse_f64(f[6], &m2) ||
            !parse_i64(f[7], &num_window) || num_window < 0)
            return diag.fail("malformed stat fields in '", line, "'");
        std::vector<double> window;
        window.reserve(static_cast<size_t>(num_window));
        for (int64_t w = 0; w < num_window; ++w) {
            double v = 0.0;
            if (!(ls >> tok) || !parse_f64(tok, &v))
                return diag.fail("malformed window sample ", w, " in '",
                                 line, "'");
            window.push_back(v);
        }
        std::string key;
        std::getline(ls, key);
        if (key.empty() || key[0] != ' ')
            return diag.fail("missing profile key in '", line, "'");
        key = key.substr(1);
        out.restore_entry(key,
                          ProfileStats::restore(count, rejected, faults,
                                                mn, mx, mean, m2,
                                                std::move(window)));
    }
    *index = std::move(out);
    return true;
}

std::string
profile_index_to_string(const ProfileIndex& index)
{
    std::ostringstream os;
    write_profile_index(os, index);
    return os.str();
}

bool
profile_index_from_string(const std::string& text, ProfileIndex* index,
                          std::string* error)
{
    std::istringstream is(text);
    return read_profile_index(is, index, error);
}

void
write_checkpoint(std::ostream& os, const WirerCheckpoint& cp)
{
    const std::locale prev = os.imbue(std::locale::classic());
    os << "astra-checkpoint v1\n";
    os << "strategies " << cp.strategies.size() << "\n";
    const std::ios_base::fmtflags flags = os.flags();
    os << std::hexfloat;
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
    os.flags(flags);
    os.imbue(prev);
}

bool
read_checkpoint(std::istream& is, WirerCheckpoint* cp, std::string* error)
{
    Diag diag(error);
    std::string header;
    diag.advance();
    if (!std::getline(is, header))
        return diag.fail("empty input (expected 'astra-checkpoint v1')");
    if (header != "astra-checkpoint v1")
        return diag.fail("bad header '", header,
                         "' (expected 'astra-checkpoint v1')");

    auto next_line = [&is, &diag](std::istringstream* ls) {
        std::string line;
        if (!std::getline(is, line))
            return false;
        diag.advance();
        ls->clear();
        ls->str(line);
        return true;
    };

    std::istringstream ls;
    ls.imbue(std::locale::classic());
    std::string tag;
    std::string tok;
    int64_t num_strategies = 0;
    if (!next_line(&ls))
        return diag.fail("missing strategies line");
    if (!(ls >> tag >> tok) || tag != "strategies" ||
        !parse_i64(tok, &num_strategies) || num_strategies < 0)
        return diag.fail("malformed strategies line");

    WirerCheckpoint out;
    out.strategies.resize(static_cast<size_t>(num_strategies));
    for (int64_t sid = 0; sid < num_strategies; ++sid) {
        int64_t got_sid = 0;
        int64_t num_records = 0;
        std::string sid_tok;
        std::string cnt_tok;
        if (!next_line(&ls))
            return diag.fail("truncated: missing strategy ", sid,
                             " header");
        if (!(ls >> tag >> sid_tok >> cnt_tok) || tag != "strategy" ||
            !parse_i64(sid_tok, &got_sid) || got_sid != sid ||
            !parse_i64(cnt_tok, &num_records) || num_records < 0)
            return diag.fail("malformed strategy header (expected "
                             "'strategy ",
                             sid, " <count>')");
        auto& recs = out.strategies[static_cast<size_t>(sid)];
        recs.reserve(static_cast<size_t>(num_records));
        for (int64_t i = 0; i < num_records; ++i) {
            DispatchRecord r;
            std::string f[8];
            if (!next_line(&ls))
                return diag.fail("truncated: strategy ", sid,
                                 " missing record ", i);
            if (!(ls >> tag >> f[0] >> f[1] >> f[2] >> f[3] >> f[4] >>
                  f[5] >> f[6] >> f[7]) ||
                tag != "record")
                return diag.fail("malformed record line");
            int64_t faulted = 0;
            int64_t attempts = 0;
            int64_t num_profiles = 0;
            if (!parse_f64(f[0], &r.total_ns) ||
                !parse_f64(f[1], &r.clock_multiplier) ||
                !parse_i64(f[2], &faulted) ||
                !parse_i64(f[3], &attempts) ||
                !parse_i64(f[4], &r.faults_seen) ||
                !parse_i64(f[5], &r.straggler_events) ||
                !parse_f64(f[6], &r.backoff_ns) ||
                !parse_i64(f[7], &num_profiles) || num_profiles < 0)
                return diag.fail("malformed record fields");
            r.faulted = faulted != 0;
            r.fault_attempts = static_cast<int>(attempts);
            r.profile.reserve(static_cast<size_t>(num_profiles));
            for (int64_t p = 0; p < num_profiles; ++p) {
                double ns = 0.0;
                if (!next_line(&ls))
                    return diag.fail("truncated: record ", i,
                                     " missing prof ", p);
                if (!(ls >> tag >> tok) || tag != "prof" ||
                    !parse_f64(tok, &ns))
                    return diag.fail("malformed prof line");
                std::string key;
                std::getline(ls, key);
                if (key.empty() || key[0] != ' ')
                    return diag.fail("missing profile key on prof line");
                r.profile.emplace_back(key.substr(1), ns);
            }
            recs.push_back(std::move(r));
        }
    }
    *cp = std::move(out);
    return true;
}

bool
read_checkpoint(std::istream& is, WirerCheckpoint* cp)
{
    return read_checkpoint(is, cp, nullptr);
}

std::string
checkpoint_to_string(const WirerCheckpoint& cp)
{
    std::ostringstream os;
    write_checkpoint(os, cp);
    return os.str();
}

bool
checkpoint_from_string(const std::string& text, WirerCheckpoint* cp,
                       std::string* error)
{
    std::istringstream is(text);
    return read_checkpoint(is, cp, error);
}

bool
checkpoint_from_string(const std::string& text, WirerCheckpoint* cp)
{
    return checkpoint_from_string(text, cp, nullptr);
}

}  // namespace astra
