#include "common/env.h"

#include <cstdlib>

#include "common/error.h"
#include "common/string_util.h"

namespace mystique {

std::optional<uint64_t>
env_u64(const char* name, uint64_t max)
{
    const std::string v = env_string(name);
    if (v.empty())
        return std::nullopt;
    const std::optional<uint64_t> n = parse_u64(v);
    if (!n.has_value() || *n > max)
        MYST_THROW(ConfigError, name << "='" << v << "': expected a base-10 integer in [0, "
                                     << max << "]");
    return n;
}

bool
env_flag(const char* name)
{
    const std::string v = env_string(name);
    if (v.empty() || v == "0")
        return false;
    if (v == "1")
        return true;
    MYST_THROW(ConfigError, name << "='" << v << "': expected 0 or 1");
}

std::string
env_string(const char* name)
{
    const char* v = std::getenv(name);
    return v != nullptr ? v : "";
}

} // namespace mystique
