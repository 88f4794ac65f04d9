/**
 * @file
 * Event tracing subsystem. Components emit timestamped events — async
 * spans correlated by id (a bus transaction crossing the fabric, a
 * read burst inside the memory controller, a blocking window draining
 * the checker pipeline) and instants (a check verdict, a violation, an
 * IOTLB walk) — through a process-wide Tracer into a pluggable Sink.
 *
 * Cost model: tracing is OFF unless a sink is installed, and the off
 * path is a single inline null-pointer test — no virtual call, no
 * Event construction (call sites guard with `if (trace::on())`). The
 * simulator's timing is never affected either way: sinks only observe.
 *
 * Two concrete sinks ship with the simulator:
 *
 *  - ChromeTraceSink streams Chrome trace-event JSON ("traceEvents")
 *    that loads directly in Perfetto / chrome://tracing, one track
 *    (tid) per component, async spans per transaction;
 *  - RingBufferSink keeps the last N events in a circular buffer for
 *    post-mortem dumps when a violation fires mid-run.
 *
 * Event taxonomy and field conventions are documented in
 * docs/OBSERVABILITY.md.
 */

#ifndef SIM_TRACE_HH
#define SIM_TRACE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace siopmp {
namespace trace {

/** Event flavour, mapping onto Chrome trace-event phases. */
enum class Phase : std::uint8_t {
    SpanBegin, //!< async span start ("b"); paired by (category, id)
    SpanEnd,   //!< async span end ("e")
    Instant,   //!< point event ("i")
    Counter,   //!< sampled value ("C")
};

const char *phaseName(Phase phase);

/**
 * One trace record. String fields are borrowed, not owned: category,
 * name and label must be string literals (static storage); track
 * points at the emitting component's name and must outlive any sink
 * that stores events verbatim (RingBufferSink) — which holds for the
 * supported use, dumping the ring while the simulation is alive.
 */
struct Event {
    Cycle when = 0;            //!< timestamp, in simulated cycles
    Phase phase = Phase::Instant;
    const char *track = "";    //!< component name (one Perfetto track)
    const char *category = ""; //!< subsystem: bus/checker/mem/iommu...
    const char *name = "";     //!< event name within the category
    std::uint64_t id = 0;      //!< span correlation id (0 for instants)
    DeviceId device = 0;       //!< originating device (SID source)
    Addr addr = 0;             //!< target address, if meaningful
    std::uint64_t arg0 = 0;    //!< event-specific (beats, stage, cost)
    std::uint64_t arg1 = 0;    //!< event-specific (duration, entry)
    const char *label = nullptr; //!< optional verdict/opcode tag
};

/** Destination for trace events. */
class Sink
{
  public:
    virtual ~Sink() = default;
    virtual void record(const Event &event) = 0;
    /** Finalize output (close JSON arrays, fsync...). Idempotent. */
    virtual void flush() {}
};

/**
 * Process-wide tracer. Sinks are single-threaded, like the simulation
 * that feeds them. The sink is not owned; installers must clear it
 * (setSink(nullptr)) before the sink dies.
 */
class Tracer
{
  public:
    /** Install (or, with nullptr, remove) the active sink. */
    void setSink(Sink *sink) { sink_ = sink; }
    Sink *sink() const { return sink_; }

    bool enabled() const { return sink_ != nullptr; }

    /** Forward one event to the sink; no-op when disabled. */
    void
    emit(const Event &event)
    {
        if (sink_ != nullptr)
            sink_->record(event);
    }

  private:
    Sink *sink_ = nullptr;
};

/** The process-wide tracer instance. */
Tracer &tracer();

/** True iff a sink is installed — the hot-path guard. */
inline bool
on()
{
    return tracer().enabled();
}

/** Emit through the global tracer (call sites guard with on()). */
inline void
emit(const Event &event)
{
    tracer().emit(event);
}

/**
 * Chrome trace-event JSON writer. Events are streamed to the ostream
 * as they arrive; flush() (or destruction) closes the JSON document.
 * One metadata "thread_name" record is emitted the first time each
 * track appears, so Perfetto labels the rows. Timestamps map one
 * simulated cycle to one microsecond of trace time.
 */
class ChromeTraceSink : public Sink
{
  public:
    explicit ChromeTraceSink(std::ostream &os);
    ~ChromeTraceSink() override;

    void record(const Event &event) override;
    void flush() override;

    std::uint64_t eventsWritten() const { return events_written_; }

  private:
    std::uint32_t trackId(const char *track);
    void writeCommon(const Event &event, const char *ph,
                     std::uint32_t tid);

    std::ostream &os_;
    std::map<std::string, std::uint32_t> tracks_;
    std::uint64_t events_written_ = 0;
    bool first_ = true;
    bool closed_ = false;
};

/**
 * Bounded post-mortem buffer: keeps the most recent @p capacity events.
 * Intended to run cheaply for a whole experiment and be dumped when
 * something interesting (a violation) happens.
 */
class RingBufferSink : public Sink
{
  public:
    explicit RingBufferSink(std::size_t capacity);

    void record(const Event &event) override;

    /** Events in arrival order, oldest first. */
    std::vector<Event> events() const;

    std::size_t size() const;
    std::size_t capacity() const { return ring_.size(); }
    std::uint64_t totalRecorded() const { return total_; }
    void clear();

    /** Human-readable dump, one line per event, oldest first. */
    void dump(std::ostream &os) const;

  private:
    std::vector<Event> ring_;
    std::size_t next_ = 0;     //!< slot the next event lands in
    std::size_t count_ = 0;    //!< valid events in the ring
    std::uint64_t total_ = 0;  //!< lifetime record() calls
};

} // namespace trace
} // namespace siopmp

#endif // SIM_TRACE_HH
