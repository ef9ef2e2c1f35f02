#include "support/record.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "support/logging.h"

namespace astra::record {

namespace {

bool
is_space(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

}  // namespace

bool
detail::parse_i64(std::string_view tok, int64_t* out, int64_t lo, int64_t hi)
{
    int64_t v = 0;
    const char* last = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), last, v, 10);
    if (ec != std::errc() || ptr != last || v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

bool
parse_finite(std::string_view tok, double* out, double lo, double hi)
{
    // from_chars rejects a leading '+' and reads hex digits only
    // without their "0x" prefix, so the sign and the prefix are
    // stripped by hand.
    const char* first = tok.data();
    const char* last = tok.data() + tok.size();
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
    if (first == last || *first == '+' || *first == '-')
        return false;
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, v, fmt);
    if (ec != std::errc() || ptr != last)
        return false;
    if (neg)
        v = -v;
    if (!std::isfinite(v) || v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

std::vector<std::string_view>
split(std::string_view s, char sep)
{
    std::vector<std::string_view> out;
    size_t begin = 0;
    for (size_t end; (end = s.find(sep, begin)) != std::string_view::npos;
         begin = end + 1)
        out.push_back(s.substr(begin, end - begin));
    out.push_back(s.substr(begin));
    return out;
}

WriteGuard::WriteGuard(std::ostream& os)
    : os_(os), locale_(os.imbue(std::locale::classic())),
      flags_(os.flags())
{
    os_ << std::hexfloat;
}

WriteGuard::~WriteGuard()
{
    os_.flags(flags_);
    os_.imbue(locale_);
}

bool
LineReader::next()
{
    ++diag_.at;
    if (pos_ >= text_.size()) {
        line_ = {};
        tokens_.clear();
        return false;
    }
    const size_t nl = text_.find('\n', pos_);
    const size_t end = nl == std::string_view::npos ? text_.size() : nl;
    line_ = text_.substr(pos_, end - pos_);
    pos_ = nl == std::string_view::npos ? text_.size() : nl + 1;
    tokens_.clear();
    for (size_t i = 0; i < line_.size();) {
        if (is_space(line_[i])) {
            ++i;
            continue;
        }
        size_t j = i;
        while (j < line_.size() && !is_space(line_[j]))
            ++j;
        tokens_.push_back(line_.substr(i, j - i));
        i = j;
    }
    return true;
}

int64_t
int_arg(std::string_view flag, std::string_view value, int64_t lo,
        int64_t hi)
{
    int64_t v = 0;
    if (!parse_int(value, &v, lo, hi))
        fatal(flag, " wants an integer in [", lo, ", ", hi, "], got '",
              value, "'");
    return v;
}

}  // namespace astra::record
