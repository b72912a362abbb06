/// Strict environment parsing (common/env.h): each helper's accepted and
/// rejected spellings, and the knobs that used to misread a typo silently —
/// MYST_OPT_LEVEL=abc turned the optimizer off, MYST_ARENA_POISON=yes left
/// poisoning off — now throwing ConfigError naming the variable.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/env.h"
#include "common/error.h"
#include "core/replay_plan.h"
#include "framework/storage_arena.h"
#include "scoped_env.h"

namespace mystique {
namespace {

constexpr const char* kVar = "MYST_ENV_TEST_KNOB";

/// The ConfigError message of @p fn, or "" when it does not throw one.
template <typename Fn>
std::string
config_error_of(Fn&& fn)
{
    try {
        fn();
    } catch (const ConfigError& e) {
        return e.what();
    }
    return {};
}

TEST(Env, U64AcceptsCompleteBase10Numbers)
{
    {
        ScopedEnv env(kVar, std::nullopt);
        EXPECT_EQ(env_u64(kVar), std::nullopt);
    }
    {
        ScopedEnv env(kVar, "");
        EXPECT_EQ(env_u64(kVar), std::nullopt);
    }
    {
        ScopedEnv env(kVar, "0");
        EXPECT_EQ(env_u64(kVar), 0u);
    }
    {
        ScopedEnv env(kVar, "42");
        EXPECT_EQ(env_u64(kVar), 42u);
    }
    {
        ScopedEnv env(kVar, "18446744073709551615");
        EXPECT_EQ(env_u64(kVar), UINT64_MAX);
    }
    {
        ScopedEnv env(kVar, "7");
        EXPECT_EQ(env_u64(kVar, 7), 7u);
    }
}

TEST(Env, U64RejectsEverythingElseNamingTheVariable)
{
    for (const char* bad : {"abc", "12x", "-1", "+1", " 1", "1 ", "1.5", "0x10",
                            "18446744073709551616"}) {
        ScopedEnv env(kVar, bad);
        const std::string what = config_error_of([] { (void)env_u64(kVar); });
        EXPECT_NE(what.find(kVar), std::string::npos) << "'" << bad << "': " << what;
        EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos) << what;
    }
    ScopedEnv env(kVar, "8");
    EXPECT_THROW((void)env_u64(kVar, 7), ConfigError);
}

TEST(Env, FlagAcceptsOnlyZeroAndOne)
{
    {
        ScopedEnv env(kVar, std::nullopt);
        EXPECT_FALSE(env_flag(kVar));
    }
    {
        ScopedEnv env(kVar, "");
        EXPECT_FALSE(env_flag(kVar));
    }
    {
        ScopedEnv env(kVar, "0");
        EXPECT_FALSE(env_flag(kVar));
    }
    {
        ScopedEnv env(kVar, "1");
        EXPECT_TRUE(env_flag(kVar));
    }
    for (const char* bad : {"yes", "true", "on", "2", "01", "10", " 1"}) {
        ScopedEnv env(kVar, bad);
        const std::string what = config_error_of([] { (void)env_flag(kVar); });
        EXPECT_NE(what.find(kVar), std::string::npos) << "'" << bad << "': " << what;
    }
}

TEST(Env, StringReadsTheValueOrEmpty)
{
    {
        ScopedEnv env(kVar, std::nullopt);
        EXPECT_EQ(env_string(kVar), "");
    }
    ScopedEnv env(kVar, "/some/dir with spaces");
    EXPECT_EQ(env_string(kVar), "/some/dir with spaces");
}

TEST(Env, MalformedOptLevelFailsReplayConfigConstruction)
{
    ScopedEnv env("MYST_OPT_LEVEL", "abc");
    const std::string what = config_error_of([] { core::ReplayConfig cfg; });
    EXPECT_NE(what.find("MYST_OPT_LEVEL"), std::string::npos) << what;
}

TEST(Env, MalformedAsyncLevelFailsReplayConfigConstruction)
{
    ScopedEnv env("MYST_ASYNC", "abc");
    const std::string what = config_error_of([] { core::ReplayConfig cfg; });
    EXPECT_NE(what.find("MYST_ASYNC"), std::string::npos) << what;
}

TEST(Env, MalformedArenaPoisonFailsArenaConstruction)
{
    ScopedEnv env("MYST_ARENA_POISON", "yes");
    const std::string what = config_error_of([] { fw::StorageArena arena; });
    EXPECT_NE(what.find("MYST_ARENA_POISON"), std::string::npos) << what;
}

} // namespace
} // namespace mystique
