/**
 * @file
 * Trace sink for tests: keeps every event it receives, in arrival
 * order, for assertions after the run. Install it with
 * trace::tracer().setSink(&sink) and clear the tracer before the sink
 * dies.
 */

#ifndef TESTS_SUPPORT_CAPTURE_SINK_HH
#define TESTS_SUPPORT_CAPTURE_SINK_HH

#include <vector>

#include "sim/trace.hh"

namespace siopmp {
namespace trace {

class CaptureSink : public Sink
{
  public:
    void record(const Event &event) override { events_.push_back(event); }

    /** Every recorded event, oldest first. */
    const std::vector<Event> &events() const { return events_; }

  private:
    std::vector<Event> events_;
};

} // namespace trace
} // namespace siopmp

#endif // TESTS_SUPPORT_CAPTURE_SINK_HH
