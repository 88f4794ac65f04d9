/**
 * @file
 * CheckerNode: the bus-facing cycle model of the sIOPMP checker. Sits
 * between a DMA master (uplink) and the system fabric (downlink),
 * intercepting every A beat, authorizing it against the SIopmp state
 * and applying the configured violation policy:
 *
 *  - BusError: the offending burst is diverted to the error link where
 *    a bus::ErrorNode terminates it with an immediate denied response.
 *  - PacketMasking: illegal writes are strobe-masked and forwarded;
 *    read responses pass back through the node, which clears data for
 *    transactions the SID2Addr table marked as violating (costing one
 *    extra cycle on each path for the table access).
 *
 * Burst verdicts: a burst is authorized once, at its head beat, over
 * all its bytes [addr, addr + num_beats x 8). A Get is one beat; a Put
 * burst's head latches its verdict (forward, mask or divert) for the
 * burst's later beats, keyed by (device, txn), so every write burst
 * lands all or nothing and the fabric always sees its last beat. This
 * is §4.1's bracket: a burst admitted before a block finishes under
 * the rules it was admitted with. A latched beat makes no authorize()
 * call and counts nothing. A later beat that strays from its head's
 * range (its address is not head.addr + beat_idx x 8) is authorized on
 * its own, and masked when denied, since the burst is already
 * downstream; a write beat with no latch is authorized on its own too.
 *
 * Pipeline timing: a checker with S stages delays each request beat by
 * S-1 cycles (the intermediate-result registers of Fig 3a) without
 * limiting throughput — one beat still enters per cycle. The block-
 * state monitor (bus::BusMonitor) is updated at burst start/end so the
 * firmware's per-SID blocking can wait for pipeline drain.
 *
 * Stalls: a head beat stalled on a SID miss or a block bit, or holding
 * an Allow (or a latched mask) its full downlink cannot take, parks the
 * node (quiescent()) once its response path is idle and its uplink
 * cannot feed it. The node is an SIopmp stall waiter, so every move of
 * the unit's state version wakes it to re-poll, and it is its
 * downlink's bound producer (bus::Fifo::bindProducer), so the pop that
 * frees a slot wakes a held beat.
 *
 * Held verdicts: a head beat stalled on its block bit, or allowed and
 * held by backpressure (downlink full), keeps the verdict authorize()
 * gave it while SIopmp::stateVersion() stands still, and its polls do
 * not call authorize() again. The version moves on every change that
 * can alter a verdict: config-epoch bumps (eSID and every MMIO path),
 * entry and MDCFG table mutations, and CAM, SRC2MD and block-bitmap
 * mutations, direct calls included. So the unit's "checks", "allows"
 * and "blocked_stalls" and the node's "block_stalls" count authorize()
 * calls, not polls: a head beat parked on its block bit counts one
 * however long it waits, and one more per version move that leaves it
 * blocked. How long it waited is the block window (bus::BusMonitor).
 * Only a denied head its error link or downlink cannot take
 * re-authorizes on every poll.
 *
 * A node is a port onto its SIopmp: all nodes of a unit authorize
 * through it and share its "siopmp" stats. The unit's checker
 * geometry and the node's violation policy are fixed when they are
 * built, and so are the pipe delays they set.
 */

#ifndef IOPMP_CHECKER_NODE_HH
#define IOPMP_CHECKER_NODE_HH

#include <optional>
#include <vector>

#include "bus/link.hh"
#include "bus/monitor.hh"
#include "iopmp/siopmp.hh"
#include "sim/stats.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace iopmp {

class CheckerNode : public Tickable
{
  public:
    /**
     * @param up       link from the DMA master
     * @param down     link toward the xbar/memory
     * @param err      link toward the error node (BusError policy);
     *                 may be null under PacketMasking
     * @param unit     the sIOPMP functional state and checker geometry;
     *                 must outlive the node (it holds the node as a
     *                 stall waiter)
     * @param monitor  block-state consistency monitor (may be null)
     */
    CheckerNode(std::string name, bus::Link *up, bus::Link *down,
                bus::Link *err, SIopmp *unit, bus::BusMonitor *monitor,
                ViolationPolicy policy);
    ~CheckerNode() override;

    void evaluate(Cycle now) override;
    bool quiescent(Cycle now) const override;

    ViolationPolicy policy() const { return policy_; }

    /** The verdict the head beat holds (see "Held verdicts" above);
     * empty when none is held. */
    const std::optional<AuthResult> &heldVerdict() const { return held_; }

    stats::Group &statsGroup() { return stats_; }

  private:
    /** Fixed-latency pipeline register chain: a ring of delay + 2
     * slots, which is all canPush() admits. */
    class DelayPipe
    {
      public:
        void
        configure(Cycle delay)
        {
            SIOPMP_ASSERT(size_ == 0, "reconfiguring a busy delay pipe");
            delay_ = delay;
            slots_.assign(delay + 2, Slot{});
            head_ = 0;
        }

        bool canPush() const { return size_ < slots_.size(); }

        void
        push(const bus::Beat &beat, Cycle now)
        {
            SIOPMP_ASSERT(canPush(), "push on full delay pipe");
            std::size_t slot = head_ + size_;
            if (slot >= slots_.size())
                slot -= slots_.size();
            slots_[slot] = Slot{beat, now + delay_};
            ++size_;
        }

        bool
        ready(Cycle now) const
        {
            return size_ != 0 && slots_[head_].ready_at <= now;
        }

        const bus::Beat &front() const { return slots_[head_].beat; }

        void
        pop()
        {
            if (++head_ == slots_.size())
                head_ = 0;
            --size_;
        }

        bool empty() const { return size_ == 0; }

      private:
        struct Slot {
            bus::Beat beat;
            Cycle ready_at = 0;
        };
        std::vector<Slot> slots_;
        std::size_t head_ = 0; //!< slot of the oldest beat
        std::size_t size_ = 0;
        Cycle delay_ = 0;
    };

    void acceptRequests(Cycle now);
    void dispatchRequests(Cycle now);
    void forwardResponses(Cycle now);

    Cycle requestDelay() const;
    Cycle responseDelay() const;

    /** What a write burst's later beats do, as its head decided. */
    enum class Verdict : std::uint8_t { Allow, Mask, Divert };

    /** A write burst whose head left and whose last beat has not. */
    struct Latch {
        DeviceId device;
        std::uint64_t txn;
        Addr addr;        //!< the head's address
        unsigned beats;   //!< the head's num_beats
        Verdict verdict;
        int entry;        //!< deciding entry, for the trace

        /** True iff @p beat lies where the head's check covered it. */
        bool
        covers(const bus::Beat &beat) const
        {
            return beat.beat_idx < beats &&
                   beat.addr ==
                       addr + static_cast<Addr>(beat.beat_idx) *
                                  bus::kBeatBytes;
        }
    };

    /** Latch of @p beat's burst, by (device, txn); null if none. */
    Latch *findLatch(const bus::Beat &beat);

    /** Latch @p verdict for @p beat's burst, replacing any latch its
     * device still holds. */
    void openLatch(const bus::Beat &beat, Verdict verdict, int entry);

    /** @p beat left with @p verdict: drop its burst's @p latch (null if
     * none) after the last beat, or latch the verdict for the later
     * beats of a write burst it leads. */
    void left(Latch *latch, const bus::Beat &beat, Verdict verdict,
              int entry);

    /** Send @p beat, the request pipe's front, on by @p latch's
     * verdict. */
    void streamLatched(Latch *latch, bus::Beat beat, Cycle now);

    /** Emit the verdict instant (and span end on the last beat) for a
     * beat leaving the request pipe; closes an open blocking window
     * (window stats record even with tracing off). Call sites keep the
     * hot path call-free: `if (block_window_start_ || trace::on())`. */
    void traceResolved(const bus::Beat &beat, Cycle now,
                       const char *verdict, int entry);

    bus::Link *up_;
    bus::Link *down_;
    bus::Link *err_;
    SIopmp *unit_;
    bus::BusMonitor *monitor_;
    ViolationPolicy policy_;

    DelayPipe req_pipe_;
    DelayPipe resp_pipe_;
    Sid2AddrTable sid2addr_;

    //! Open write bursts, at most one per device (see Latch).
    std::vector<Latch> latches_;
    //! Edge trigger for SID-missing: avoid re-raising the interrupt
    //! every cycle while the monitor services the mount.
    std::optional<DeviceId> pending_miss_;
    //! sIOPMP config epoch captured when the miss was raised. If the
    //! config changes without resolving our SID, a concurrent miss's
    //! mount evicted ours from the eSID slot — the stall must re-arm
    //! (re-authorize and re-raise) or two cold devices livelock.
    std::uint64_t pending_miss_epoch_ = 0;
    //! Open blocking window (§4.1): cycle the head-of-line beat first
    //! stalled on its SID block bit; closed when the head resolves.
    std::optional<Cycle> block_window_start_;

    //! SIopmp::stateVersion() when the held verdict was last checked
    //! against it: the verdict stands while the version does.
    std::uint64_t version_ = 0;
    //! Blocked verdict of the head beat, or the Allow of one the
    //! downlink could not take; its polls reuse it until the beat
    //! leaves or the version moves.
    std::optional<AuthResult> held_;

    //! Why the head beat did not leave in the last dispatch: a SID
    //! miss, a block bit or a held or latched Allow or mask behind a
    //! full downlink lets the node park (see quiescent()).
    enum class Stall : std::uint8_t { None, SidMiss, Blocked, Held };
    Stall stall_ = Stall::None;

    stats::Group stats_;
    stats::LazyScalar beats_forwarded_{stats_, "beats_forwarded"};
    stats::LazyScalar block_stalls_{stats_, "block_stalls"};
    stats::LazyScalar sid_miss_stalls_{stats_, "sid_miss_stalls"};
    stats::LazyScalar violations_{stats_, "violations"};
    stats::LazyScalar read_clears_{stats_, "read_clears"};
    stats::LazyScalar sid_miss_rearms_{stats_, "sid_miss_rearms"};
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_CHECKER_NODE_HH
