/**
 * @file
 * Provenance header shared by the bench binaries that write a
 * BENCH_*.json file: what produced the numbers below it. The
 * checkout's commit ("+dirty" when tracked files differ from it, so a
 * file committed with its change names the parent), the CMake build
 * type, the compiler and the host's core count. The caller adds the
 * run size it was given. Needs SIOPMP_SOURCE_DIR, SIOPMP_BUILD_TYPE
 * and SIOPMP_COMPILER (bench/CMakeLists.txt defines them).
 */

#ifndef BENCH_PROVENANCE_HH
#define BENCH_PROVENANCE_HH

#include <cstdio>
#include <string>
#include <thread>

namespace siopmp {
namespace bench {

/** First line of `command`'s output, or "" when it fails. */
inline std::string
firstLine(const char *command)
{
    std::FILE *pipe = popen(command, "r");
    if (pipe == nullptr)
        return "";
    char buf[256] = {};
    const bool got = std::fgets(buf, sizeof buf, pipe) != nullptr;
    const int status = pclose(pipe);
    std::string line = got && status == 0 ? buf : "";
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    return line;
}

/** The checkout's HEAD, "+dirty" when tracked files differ from it. */
inline std::string
commitId()
{
    const std::string git = "git -C '" SIOPMP_SOURCE_DIR "' ";
    std::string commit =
        firstLine((git + "rev-parse --short=12 HEAD 2>/dev/null").c_str());
    if (commit.empty())
        return "unknown";
    if (!firstLine((git + "status --porcelain --untracked-files=no "
                          "2>/dev/null").c_str())
             .empty())
        commit += "+dirty";
    return commit;
}

/**
 * Open the JSON object: the "benchmark" name, then the commit,
 * build_type, compiler and host_cores keys, each line ending in a
 * comma so the caller's run-size key follows.
 */
inline void
writeProvenance(std::FILE *f, const char *benchmark)
{
    const char *build_type =
        SIOPMP_BUILD_TYPE[0] != '\0' ? SIOPMP_BUILD_TYPE : "none";
    std::fprintf(f,
                 "{\n  \"benchmark\": \"%s\",\n"
                 "  \"commit\": \"%s\",\n"
                 "  \"build_type\": \"%s\",\n"
                 "  \"compiler\": \"%s\",\n"
                 "  \"host_cores\": %u,\n",
                 benchmark, commitId().c_str(), build_type, SIOPMP_COMPILER,
                 std::thread::hardware_concurrency());
}

} // namespace bench
} // namespace siopmp

#endif // BENCH_PROVENANCE_HH
