/**
 * @file
 * Profile keys (paper §4.6): the identity of one measurement in the
 * profile index, packed into one 64-bit integer.
 *
 * A key names one choice of one adaptive variable under one context.
 * The context stands for every higher-level binding the measurement
 * depends on (the allocation strategy, a group's bound chunk, the
 * frozen prefix of earlier epochs). core/profile_index.h interns
 * contexts (ContextTable), so a key is three integers:
 *
 *   bits 63..32  context id
 *   bits 31..12  variable id  (< 2^20)
 *   bits 11..0   choice       (< 2^12)
 *
 * Keys compare, order and hash as their packed value. The default key
 * is "no key" (a step nothing measures); its context field is all
 * ones, which no valid key carries.
 */
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace astra {

/** An interned context (core/profile_index.h, ContextTable). */
using ContextId = uint32_t;

namespace detail {
[[noreturn]] void bad_profile_key(int64_t context, int64_t variable,
                                  int64_t choice);
}  // namespace detail

/** One (context, variable, choice) measurement identity. */
class ProfileKey
{
  public:
    static constexpr int kVariableBits = 20;
    static constexpr int kChoiceBits = 12;
    static constexpr int64_t kMaxContext = 0xfffffffe;
    static constexpr int64_t kMaxVariable = (int64_t{1} << kVariableBits) - 1;
    static constexpr int64_t kMaxChoice = (int64_t{1} << kChoiceBits) - 1;

    /** No key. */
    constexpr ProfileKey() = default;

    /** Pack the three fields; panics unless fits(). */
    ProfileKey(int64_t context, int64_t variable, int64_t choice)
    {
        if (!fits(context, variable, choice))
            detail::bad_profile_key(context, variable, choice);
        bits_ = static_cast<uint64_t>(context) << 32 |
                static_cast<uint64_t>(variable) << kChoiceBits |
                static_cast<uint64_t>(choice);
    }

    /** True when every field is in range (nonnegative, under its cap). */
    static constexpr bool
    fits(int64_t context, int64_t variable, int64_t choice)
    {
        return context >= 0 && context <= kMaxContext && variable >= 0 &&
               variable <= kMaxVariable && choice >= 0 &&
               choice <= kMaxChoice;
    }

    bool valid() const { return bits_ != kNone; }
    ContextId context() const { return static_cast<ContextId>(bits_ >> 32); }
    uint32_t
    variable() const
    {
        return static_cast<uint32_t>(bits_ >> kChoiceBits) &
               static_cast<uint32_t>(kMaxVariable);
    }
    int choice() const { return static_cast<int>(bits_ & kMaxChoice); }
    uint64_t bits() const { return bits_; }

    friend constexpr bool operator==(ProfileKey, ProfileKey) = default;
    friend constexpr std::strong_ordering operator<=>(ProfileKey,
                                                      ProfileKey) = default;

  private:
    static constexpr uint64_t kNone = ~uint64_t{0};
    uint64_t bits_ = kNone;
};

/** Readable form, "c<context>/v<variable>=<choice>"; "" for no key. */
std::string to_string(ProfileKey key);

/** Writes to_string(key). */
std::ostream& operator<<(std::ostream& os, ProfileKey key);

}  // namespace astra

template <>
struct std::hash<astra::ProfileKey>
{
    size_t
    operator()(astra::ProfileKey k) const noexcept
    {
        return std::hash<uint64_t>{}(k.bits());
    }
};
