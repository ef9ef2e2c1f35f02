/**
 * @file
 * The record layer: how every text format read from outside the
 * program turns a token into a number, says where a parse failed, and
 * writes numbers back. Configurations, plan-store entries, fault
 * specs and command-line arguments all go through it, so one module
 * decides the grammar.
 *
 * Tokens. A number is a whole token: leading whitespace, a trailing
 * character, overflow or an empty token all reject. Integers are
 * base 10 with an optional '-'. Doubles take an optional sign, then
 * decimal or "0x" hexfloat, and must be finite.
 *
 * Locale. Numbers are read with std::from_chars, which ignores the
 * locale, and written through a WriteGuard, which pins the classic
 * locale. A record written on a host whose global locale writes "1,5"
 * for 1.5 and groups thousands as "1.234" therefore loads on every
 * other host, and in the process that wrote it. Text other programs
 * read (JSON, CSV) writes its numbers as Num, with std::to_chars.
 *
 * Counts. No reader sizes a container from a count it read:
 * containers grow only as records actually arrive, so a hostile count
 * fails on the first missing record instead of allocating.
 *
 * Diagnostics. A reader that fails says "<unit> N: reason": unit
 * "line" for the line formats, "token" for the ';'-separated fault
 * spec. Numbering starts at 1, and a line missing at the end of the
 * input is numbered one past the last line read.
 */
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <ios>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace astra::record {

namespace detail {
bool parse_i64(std::string_view tok, int64_t* out, int64_t lo, int64_t hi);
}  // namespace detail

/**
 * Whole token as a base-10 integer in [lo, hi] (default: the full range
 * of T).
 */
template <std::signed_integral T>
bool
parse_int(std::string_view tok, T* out,
          std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
          std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    int64_t v = 0;
    if (!detail::parse_i64(tok, &v, lo, hi))
        return false;
    *out = static_cast<T>(v);
    return true;
}

/** Whole token as a finite double in [lo, hi]: decimal or "0x" hex. */
bool parse_finite(std::string_view tok, double* out,
                  double lo = std::numeric_limits<double>::lowest(),
                  double hi = std::numeric_limits<double>::max());

/** Split at every `sep`, keeping empty fields ("a;;b" has three). */
std::vector<std::string_view> split(std::string_view s, char sep);

/**
 * Pins the classic locale and std::hexfloat on a stream for one
 * writer's scope, and restores the caller's locale and flags after.
 * Integers are unaffected by hexfloat; every double a record holds is
 * written in hexfloat because it is the only text form that
 * round-trips a double bit-exactly.
 */
class WriteGuard
{
  public:
    explicit WriteGuard(std::ostream& os);
    ~WriteGuard();

    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

  private:
    std::ostream& os_;
    std::locale locale_;
    std::ios_base::fmtflags flags_;
};

/**
 * A number written as std::to_chars' shortest text that reads back to
 * the same value, whatever the stream's locale, precision and flags:
 * `os << record::Num(x)`. For JSON and CSV, which take no hexfloat.
 */
class Num
{
  public:
    template <typename T>
        requires std::is_arithmetic_v<T>
    explicit Num(T v)
        : len_(static_cast<int>(
              std::to_chars(buf_, buf_ + sizeof buf_, v).ptr - buf_))
    {
    }

    friend std::ostream&
    operator<<(std::ostream& os, const Num& n)
    {
        return os.write(n.buf_, n.len_);
    }

  private:
    char buf_[32];
    int len_;
};

/**
 * Formats "<unit> N: reason" into the caller's error slot, when one
 * was given. fail() always returns false, so a parser can
 * `return diag.fail(...)`.
 */
class Diag
{
  public:
    explicit Diag(std::string* error, const char* unit = "line")
        : error_(error), unit_(unit)
    {
    }

    /** The 1-based number of the line or token being read. */
    int at = 0;

    template <typename... Args>
    bool
    fail(const Args&... args) const
    {
        if (error_ != nullptr) {
            std::ostringstream os;
            const WriteGuard pin(os);
            os << unit_ << " " << at << ": ";
            (os << ... << args);
            *error_ = os.str();
        }
        return false;
    }

  private:
    std::string* error_;
    const char* unit_;
};

/**
 * Walks a text line by line (std::getline's split: a final line
 * without '\n' still counts, an empty text has no lines), numbering
 * the lines and splitting each into whitespace-separated tokens.
 * The views it returns point into the caller's text.
 */
class LineReader
{
  public:
    LineReader(std::string_view text, std::string* error)
        : text_(text), diag_(error)
    {
    }

    /**
     * Move to the next line. The line number advances even at the end
     * of the input, so a failure there names the missing line.
     * @return false at the end of the input.
     */
    bool next();

    /** The current line, without its '\n'. */
    std::string_view line() const { return line_; }

    /**
     * Whitespace-separated tokens of the current line. The reference
     * stays valid for the reader's lifetime and follows next().
     */
    const std::vector<std::string_view>& tokens() const
    {
        return tokens_;
    }

    /** Input after the current line. */
    std::string_view rest() const { return text_.substr(pos_); }

    /** "line N: reason" for the current line; always false. */
    template <typename... Args>
    bool
    fail(const Args&... args) const
    {
        return diag_.fail(args...);
    }

  private:
    std::string_view text_;
    size_t pos_ = 0;
    std::string_view line_;
    std::vector<std::string_view> tokens_;
    Diag diag_;
};

/**
 * A command-line integer in [lo, hi]. On anything else it calls
 * fatal(), naming the flag and the accepted range.
 */
int64_t int_arg(std::string_view flag, std::string_view value,
                int64_t lo, int64_t hi);

}  // namespace astra::record
