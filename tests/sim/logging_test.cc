/**
 * @file
 * Unit tests for the logger's quiet mode and severity split.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

namespace siopmp {
namespace {

TEST(Logger, QuietModeToggles)
{
    EXPECT_FALSE(Logger::quiet());
    Logger::setQuiet(true);
    EXPECT_TRUE(Logger::quiet());
    warn("this warn is suppressed by quiet mode: %d", 2);
    Logger::setQuiet(false);
    EXPECT_FALSE(Logger::quiet());
}

TEST(LoggerDeath, PanicAborts)
{
    EXPECT_DEATH(panic("intentional test panic %d", 42), "intentional");
}

TEST(LoggerDeath, FatalExitsWithCodeOne)
{
    EXPECT_EXIT(fatal("intentional test fatal"),
                ::testing::ExitedWithCode(1), "intentional");
}

TEST(LoggerDeath, AssertMacroReportsCondition)
{
    EXPECT_DEATH(SIOPMP_ASSERT(1 == 2, "math broke"), "1 == 2");
}

} // namespace
} // namespace siopmp
