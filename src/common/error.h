#pragma once

/// @file
/// Error types and invariant-checking macros used across the library.
///
/// Following the gem5 fatal()/panic() distinction:
///  - MystiqueError (and subclasses) are *user-facing* errors: bad traces,
///    unsupported schemas, invalid configuration.  Catchable, recoverable.
///  - MYST_CHECK failures are *internal* invariant violations (library bugs);
///    they throw InternalError carrying file:line.

#include <sstream>
#include <stdexcept>
#include <string>

namespace mystique {

/// Base class for all user-facing errors thrown by the library.
class MystiqueError : public std::runtime_error {
  public:
    explicit MystiqueError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Malformed input: JSON, ET files, schema strings, IR text.
class ParseError : public MystiqueError {
  public:
    explicit ParseError(const std::string& msg) : MystiqueError(kPrefix + msg) {}
    /// @p inner with @p where (say, "node 7") in front of its message.
    ParseError(const std::string& where, const ParseError& inner)
        : MystiqueError(kPrefix + where + ": " + (inner.what() + sizeof(kPrefix) - 1)) {}

  private:
    static constexpr char kPrefix[] = "parse error: ";
};

/// Problems encountered while reconstructing or replaying a trace.
class ReplayError : public MystiqueError {
  public:
    explicit ReplayError(const std::string& msg) : MystiqueError("replay error: " + msg) {}
};

/// Invalid user configuration (bad platform name, rank counts, etc.).
class ConfigError : public MystiqueError {
  public:
    explicit ConfigError(const std::string& msg) : MystiqueError("config error: " + msg) {}
};

/// Internal invariant violation — a bug in the library, not in user input.
class InternalError : public std::logic_error {
  public:
    explicit InternalError(const std::string& msg) : std::logic_error(msg) {}
};

namespace detail {

[[noreturn]] inline void
check_failed(const char* cond, const char* file, int line, const std::string& msg)
{
    std::ostringstream os;
    os << "MYST_CHECK failed: (" << cond << ") at " << file << ":" << line;
    if (!msg.empty())
        os << " — " << msg;
    throw InternalError(os.str());
}

} // namespace detail

} // namespace mystique

/// Assert an internal invariant; throws InternalError on failure.
#define MYST_CHECK(cond)                                                            \
    do {                                                                            \
        if (!(cond))                                                                \
            ::mystique::detail::check_failed(#cond, __FILE__, __LINE__, "");        \
    } while (0)

/// Assert an internal invariant with a streamable message.
#define MYST_CHECK_MSG(cond, msg)                                                   \
    do {                                                                            \
        if (!(cond)) {                                                              \
            std::ostringstream myst_os_;                                            \
            myst_os_ << msg;                                                        \
            ::mystique::detail::check_failed(#cond, __FILE__, __LINE__,             \
                                             myst_os_.str());                       \
        }                                                                           \
    } while (0)

/// Throw a user-facing error of the given type with a streamable message.
#define MYST_THROW(ErrType, msg)                                                    \
    do {                                                                            \
        std::ostringstream myst_os_;                                                \
        myst_os_ << msg;                                                            \
        throw ErrType(myst_os_.str());                                              \
    } while (0)
