/**
 * @file
 * Strict flag parser shared by siopmp-cli and siopmp_fuzz: `--name
 * value` or a bare `--name` switch. The caller names every flag the
 * command reads (Args::Spec). A token that is none of them, a valued
 * flag with nothing after it, and a value that does not parse
 * (choice(), number(), count(), real()) exit with status 2 and a
 * message that names the flag — never silently replaced by a default.
 */

#ifndef TOOLS_ARGS_HH
#define TOOLS_ARGS_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace siopmp {
namespace tools {

class Args
{
  public:
    /** The flags one command reads. */
    struct Spec {
        std::vector<std::string> valued;   //!< `--name value`
        std::vector<std::string> switches; //!< bare `--name`
    };

    /**
     * Parse @p argc tokens at @p argv against @p spec. @p program
     * prefixes every message. A repeated flag keeps its first value.
     */
    Args(std::string program, int argc, char **argv, const Spec &spec)
        : program_(std::move(program))
    {
        for (int i = 0; i < argc; ++i) {
            const std::string token = argv[i];
            if (contains(spec.switches, token)) {
                values_.emplace(token, "");
            } else if (!contains(spec.valued, token)) {
                fail("unknown flag '" + token + "'");
            } else if (i + 1 == argc) {
                fail(token + ": needs a value");
            } else {
                values_.emplace(token, argv[++i]);
            }
        }
    }

    /** True iff @p name was given (a switch, or a valued flag). */
    bool flag(const char *name) const { return values_.count(name) != 0; }

    std::string
    value(const char *name, const std::string &fallback) const
    {
        const auto it = values_.find(name);
        return it == values_.end() ? fallback : it->second;
    }

    /** The value of @p name, which must be one of @p choices. */
    std::string
    choice(const char *name, const char *fallback,
           std::initializer_list<const char *> choices) const
    {
        const std::string v = value(name, fallback);
        std::string want;
        for (const char *c : choices) {
            if (v == c)
                return v;
            want += want.empty() ? "one of " : "|";
            want += c;
        }
        reject(name, v, want);
    }

    /** A whole non-negative number no larger than @p max. */
    std::uint64_t
    number(const char *name, std::uint64_t fallback,
           std::uint64_t max = std::numeric_limits<unsigned>::max()) const
    {
        const auto it = values_.find(name);
        if (it == values_.end())
            return fallback;
        const std::string &v = it->second;
        char *end = nullptr;
        errno = 0;
        const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(v[0])) ||
            *end != '\0')
            reject(name, v, "a whole non-negative number");
        if (errno == ERANGE || n > max)
            reject(name, v, "at most " + std::to_string(max));
        return n;
    }

    /** A whole number from @p min to @p max: a count the run cannot do
     * without (a divisor, a per-CPU index bound, a population, a tree
     * arity). */
    std::uint64_t
    count(const char *name, std::uint64_t fallback,
          std::uint64_t max = std::numeric_limits<unsigned>::max(),
          std::uint64_t min = 1) const
    {
        const std::uint64_t n = number(name, fallback, max);
        if (n < min)
            reject(name, value(name, ""), "at least " + std::to_string(min));
        return n;
    }

    /** A finite non-negative real. */
    double
    real(const char *name, double fallback) const
    {
        const auto it = values_.find(name);
        if (it == values_.end())
            return fallback;
        const std::string &v = it->second;
        char *end = nullptr;
        const double x = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0' || !std::isfinite(x) || x < 0)
            reject(name, v, "a non-negative number");
        return x;
    }

    /** Refuse @p value for flag @p name: a message, then exit 2. */
    [[noreturn]] void
    reject(const char *name, const std::string &value,
           const std::string &want) const
    {
        fail(std::string(name) + ": '" + value + "' is not " + want);
    }

  private:
    static bool
    contains(const std::vector<std::string> &names, const std::string &token)
    {
        return std::find(names.begin(), names.end(), token) != names.end();
    }

    [[noreturn]] void
    fail(const std::string &message) const
    {
        std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
        std::exit(2);
    }

    std::string program_;
    std::map<std::string, std::string> values_;
};

} // namespace tools
} // namespace siopmp

#endif // TOOLS_ARGS_HH
