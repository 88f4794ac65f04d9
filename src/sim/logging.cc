/**
 * @file
 * Logger implementation.
 */

#include "sim/logging.hh"

#include <atomic>
#include <cstdlib>

namespace siopmp {

namespace {

//! Atomic: replay workers (siopmp_fuzz --jobs) save/restore quiet
//! state concurrently; a torn read here would be UB for no benefit.
std::atomic<bool> quiet_mode{false};

void
vlog(const char *prefix, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
}

} // namespace

void
Logger::setQuiet(bool quiet)
{
    quiet_mode.store(quiet, std::memory_order_relaxed);
}

bool
Logger::quiet()
{
    return quiet_mode.load(std::memory_order_relaxed);
}

void
warn(const char *fmt, ...)
{
    if (quiet_mode)
        return;
    va_list args;
    va_start(args, fmt);
    vlog("warn: ", fmt, args);
    va_end(args);
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlog("fatal: ", fmt, args);
    va_end(args);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vlog("panic: ", fmt, args);
    va_end(args);
    std::abort();
}

} // namespace siopmp
