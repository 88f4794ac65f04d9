/**
 * @file
 * Programmable DMA engine (Table 2's "DMA Device": a dummy node for
 * memory copy). A job describes a stream of fixed-size bursts — pure
 * reads, pure writes or read-then-write copies — with a configurable
 * outstanding-transaction limit:
 *
 *  - max_outstanding = 1 reproduces Fig 11's worst case (consecutive
 *    bursts, no pipelining between transactions);
 *  - larger limits enable the outstanding/out-of-order behaviour that
 *    saturates the bus for Fig 12.
 *
 * The engine measures total job latency and per-burst latency and
 * performs genuinely functional transfers (copy jobs move real bytes
 * through the simulated memory).
 */

#ifndef DEVICES_DMA_ENGINE_HH
#define DEVICES_DMA_ENGINE_HH

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "devices/device.hh"

namespace siopmp {
namespace dev {

/** What a DMA job does. */
enum class DmaKind { Read, Write, Copy };

struct DmaJob {
    DmaKind kind = DmaKind::Read;
    Addr src = 0;           //!< read base (Read/Copy)
    Addr dst = 0;           //!< write base (Write/Copy)
    std::uint64_t bytes = 0;
    unsigned burst_beats = bus::kBurstBeats;
    unsigned max_outstanding = 1;
    std::uint64_t fill_pattern = 0xdeadbeefcafef00dULL; //!< Write data

    /**
     * Scatter-gather list (§2 motivation: DMA controllers support
     * 512-1024 scatter buffers, hence the >1000-entry requirement).
     * When non-empty it overrides src/bytes (Read) or dst/bytes
     * (Write): the engine streams each {addr, bytes} segment in order.
     * Segment sizes must be multiples of the burst size. Copy jobs do
     * not take a scatter list.
     */
    std::vector<std::pair<Addr, std::uint64_t>> segments;
};

class DmaEngine : public DmaMaster
{
  public:
    DmaEngine(std::string name, DeviceId device, bus::Link *link);

    /** Start a job; any previous job must have completed. */
    void start(const DmaJob &job, Cycle now);

    /**
     * Rebind the engine to a different source device id. Fleet
     * workloads reuse one engine per port across many short-lived
     * tenants instead of rebuilding the SoC per tenant; only legal
     * between jobs (no beats in flight carrying the old id).
     */
    void setDeviceId(DeviceId device);

    /**
     * Abort the current job: stop issuing new bursts and let what is
     * already on the bus drain. A half-emitted write burst still
     * finishes its beats (the fabric owns a partial burst and must see
     * `last`); staged copy write-outs are dropped. done() becomes true
     * once every in-flight response lands — tenant teardown races this
     * drain in the churn workload.
     */
    void abort(Cycle now);

    /**
     * Per-burst completion hook: called with the burst's latency and
     * whether it was denied, at the same points the burst_latency stat
     * samples. Lets a workload keep its own deterministic per-port
     * latency series without a registry detour.
     */
    void
    setBurstObserver(std::function<void(Cycle latency, bool denied)> fn)
    {
        burst_observer_ = std::move(fn);
    }

    bool done() const;

    /** Cycle the final response arrived (valid once done()). */
    Cycle completedAt() const { return completed_at_; }
    Cycle startedAt() const { return started_at_; }

    /** Total burst transactions completed over the engine's life. */
    std::uint64_t burstsCompleted() const { return bursts_completed_; }

    void evaluate(Cycle now) override;
    bool quiescent(Cycle now) const override;

  private:
    struct Outstanding {
        std::uint64_t txn = 0;
        Addr addr = 0;   //!< burst base
        unsigned beats = 0;
        Cycle issued_at = 0;
        std::vector<std::uint64_t> data; //!< read data (Copy jobs only)
    };

    void issueNext(Cycle now);
    void collectResponses(Cycle now);
    void issueWrites(Cycle now);

    bool jobActive() const { return job_.bytes > 0 && !done_; }

    /** Map a linear stream offset to a bus address through the
     * scatter-gather list (identity when the list is empty). */
    Addr streamAddr(Addr base, std::uint64_t offset) const;

    DmaJob job_;
    bool done_ = true;
    bool aborted_ = false;
    Cycle started_at_ = 0;
    Cycle completed_at_ = 0;
    std::function<void(Cycle, bool)> burst_observer_;

    std::uint64_t issued_bytes_ = 0;    //!< request stream progress
    std::uint64_t completed_bytes_ = 0; //!< fully-acknowledged bytes

    //! In-flight bursts, at most job_.max_outstanding, searched by txn;
    //! a completed one is swapped out with the last. Reserved per job,
    //! so a burst allocates nothing beyond a Copy burst's read data.
    std::vector<Outstanding> outstanding_;
    std::uint64_t bursts_completed_ = 0;
    stats::LazyAverage burst_latency_{stats_, "burst_latency"};

    // Copy staging: read bursts that finished and await write-out.
    std::deque<Outstanding> write_queue_;
    // In-progress write burst emission.
    bool writing_ = false;
    Outstanding write_current_;
    unsigned write_beat_ = 0;
    std::uint64_t write_txn_ = 0;
    Addr write_addr_ = 0;
};

} // namespace dev
} // namespace siopmp

#endif // DEVICES_DMA_ENGINE_HH
