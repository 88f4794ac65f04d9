/**
 * @file
 * Tracing subsystem implementation: the global tracer and the Chrome
 * trace-event JSON sink.
 */

#include "sim/trace.hh"

#include <cinttypes>
#include <cstdio>

#include "sim/logging.hh"

namespace siopmp {
namespace trace {

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

// ---- ChromeTraceSink ----------------------------------------------------

namespace {

/** JSON string escaping for the few names that could need it. */
std::string
jsonEscape(const char *s)
{
    std::string out;
    for (; *s; ++s) {
        switch (*s) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(*s) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", *s);
                out += buf;
            } else {
                out += *s;
            }
        }
    }
    return out;
}

} // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream &os) : os_(os)
{
    os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

ChromeTraceSink::~ChromeTraceSink()
{
    flush();
}

std::uint32_t
ChromeTraceSink::trackId(const char *track)
{
    auto [it, inserted] = tracks_.try_emplace(
        track, static_cast<std::uint32_t>(tracks_.size() + 1));
    if (inserted) {
        // Metadata record naming the new track (Perfetto row label).
        os_ << (first_ ? "\n" : ",\n");
        first_ = false;
        os_ << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << it->second
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << jsonEscape(track) << "\"}}";
    }
    return it->second;
}

void
ChromeTraceSink::writeCommon(const Event &event, const char *ph,
                             std::uint32_t tid)
{
    os_ << "{\"ph\":\"" << ph << "\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":" << event.when << ",\"cat\":\""
        << jsonEscape(event.category) << "\",\"name\":\""
        << jsonEscape(event.name) << '"';
}

void
ChromeTraceSink::record(const Event &event)
{
    SIOPMP_ASSERT(!closed_, "record() on a flushed ChromeTraceSink");
    const std::uint32_t tid = trackId(event.track);
    os_ << (first_ ? "\n" : ",\n");
    first_ = false;

    const char *ph = "i";
    switch (event.phase) {
      case Phase::SpanBegin: ph = "b"; break;
      case Phase::SpanEnd: ph = "e"; break;
      case Phase::Instant: ph = "i"; break;
      case Phase::Counter: ph = "C"; break;
    }
    writeCommon(event, ph, tid);

    if (event.phase == Phase::SpanBegin || event.phase == Phase::SpanEnd) {
        char idbuf[32];
        std::snprintf(idbuf, sizeof(idbuf), "0x%" PRIx64, event.id);
        os_ << ",\"id\":\"" << idbuf << '"';
    }
    if (event.phase == Phase::Instant)
        os_ << ",\"s\":\"t\""; // thread-scoped instant

    os_ << ",\"args\":{\"device\":" << event.device << ",\"addr\":"
        << event.addr << ",\"arg0\":" << event.arg0 << ",\"arg1\":"
        << event.arg1;
    if (event.label != nullptr)
        os_ << ",\"label\":\"" << jsonEscape(event.label) << '"';
    os_ << "}}";
    ++events_written_;
}

void
ChromeTraceSink::flush()
{
    if (closed_)
        return;
    closed_ = true;
    os_ << "\n]}\n";
    os_.flush();
}

} // namespace trace
} // namespace siopmp
