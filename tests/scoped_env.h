#pragma once

/// @file
/// Test helper shared by the suites that change an environment variable.

#include <cstdlib>
#include <optional>
#include <string>

namespace mystique {

/// Sets (or unsets, for nullopt) one variable for the test's scope and
/// restores the previous value afterwards.  The suite also runs under
/// MYST_ARENA_POISON=1, MYST_OPT_LEVEL=0 and MYST_ASYNC=0, so a test that
/// only unset the variable would change what every later test runs with.
class ScopedEnv {
  public:
    ScopedEnv(const char* name, std::optional<std::string> value) : name_(name)
    {
        if (const char* old = std::getenv(name))
            old_ = old;
        set(value);
    }
    ~ScopedEnv() { set(old_); }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    void set(const std::optional<std::string>& value)
    {
        if (value.has_value())
            ::setenv(name_, value->c_str(), 1);
        else
            ::unsetenv(name_);
    }

    const char* name_;
    std::optional<std::string> old_;
};

} // namespace mystique
