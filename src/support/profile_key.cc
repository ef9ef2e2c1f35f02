#include "support/profile_key.h"

#include <ostream>

#include "support/logging.h"

namespace astra {

namespace detail {

void
bad_profile_key(int64_t context, int64_t variable, int64_t choice)
{
    panic("profile key field out of range: context ", context,
          " variable ", variable, " choice ", choice);
}

}  // namespace detail

std::string
to_string(ProfileKey key)
{
    if (!key.valid())
        return "";
    return "c" + std::to_string(key.context()) + "/v" +
           std::to_string(key.variable()) + "=" +
           std::to_string(key.choice());
}

std::ostream&
operator<<(std::ostream& os, ProfileKey key)
{
    return os << to_string(key);
}

}  // namespace astra
