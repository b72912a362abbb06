#pragma once

/// @file
/// The one reader of the process environment.  Every runtime knob
/// (docs/env_vars.md) goes through these helpers, so a value is either used
/// as written or rejected: a typo never silently reads as 0, off or the
/// built-in default.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace mystique {

/// Unsigned integer knob.  Unset or empty gives nullopt; anything but a
/// complete base-10 number in [0, @p max] throws ConfigError naming the
/// variable and its value.
std::optional<uint64_t> env_u64(const char* name,
                                uint64_t max = std::numeric_limits<uint64_t>::max());

/// On/off knob.  Unset, empty or "0" is false and "1" is true; anything
/// else throws ConfigError naming the variable and its value.
bool env_flag(const char* name);

/// String knob: the value, or "" when unset.
std::string env_string(const char* name);

} // namespace mystique
