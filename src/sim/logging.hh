/**
 * @file
 * Logging and error reporting, following the gem5 severity split:
 * panic() for simulator bugs, fatal() for user errors, warn() for
 * status.
 */

#ifndef SIM_LOGGING_HH
#define SIM_LOGGING_HH

#include <cstdarg>
#include <cstdio>

namespace siopmp {

/**
 * Process-wide logger state. Quiet mode suppresses warn(); trace output
 * goes through trace::Tracer, not here.
 */
class Logger
{
  public:
    /** Enable/disable warn() output. */
    static void setQuiet(bool quiet);
    static bool quiet();
};

/** Something may be wrong but simulation can continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Unrecoverable user error (bad configuration); exits with code 1. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Simulator bug: should never happen regardless of input; aborts. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** panic() unless the condition holds. */
#define SIOPMP_ASSERT(cond, ...)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::siopmp::panic("assertion '%s' failed at %s:%d: " __VA_ARGS__,\
                            #cond, __FILE__, __LINE__);                    \
        }                                                                  \
    } while (0)

} // namespace siopmp

#endif // SIM_LOGGING_HH
