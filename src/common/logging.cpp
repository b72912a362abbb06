#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "common/env.h"
#include "common/error.h"

namespace mystique::log {

namespace {

Level
initial_level()
{
    // Read on the first log call, often on an error path: a bad value falls
    // back to warn instead of throwing.
    const std::string env = env_string("MYSTIQUE_LOG_LEVEL");
    if (!env.empty()) {
        try {
            return parse_level(env);
        } catch (const MystiqueError&) {
            // fall through to default
        }
    }
    return Level::kWarn;
}

std::atomic<Level>&
level_storage()
{
    static std::atomic<Level> lvl{initial_level()};
    return lvl;
}

const char*
level_name(Level lvl)
{
    switch (lvl) {
      case Level::kTrace: return "TRACE";
      case Level::kDebug: return "DEBUG";
      case Level::kInfo: return "INFO";
      case Level::kWarn: return "WARN";
      case Level::kError: return "ERROR";
      case Level::kOff: return "OFF";
    }
    return "?";
}

} // namespace

void
set_level(Level lvl)
{
    level_storage().store(lvl, std::memory_order_relaxed);
}

Level
level()
{
    return level_storage().load(std::memory_order_relaxed);
}

bool
enabled(Level lvl)
{
    return lvl >= level() && lvl != Level::kOff;
}

void
write(Level lvl, const std::string& msg)
{
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    std::fprintf(stderr, "[mystique %s] %s\n", level_name(lvl), msg.c_str());
}

Level
parse_level(const std::string& name)
{
    if (name == "trace") return Level::kTrace;
    if (name == "debug") return Level::kDebug;
    if (name == "info") return Level::kInfo;
    if (name == "warn") return Level::kWarn;
    if (name == "error") return Level::kError;
    if (name == "off") return Level::kOff;
    MYST_THROW(ConfigError, "unknown log level '" << name << "'");
}

} // namespace mystique::log
