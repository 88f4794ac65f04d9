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
 * Pipeline timing: a checker with S stages delays each request beat by
 * S-1 cycles (the intermediate-result registers of Fig 3a) without
 * limiting throughput — one beat still enters per cycle. The block-
 * state monitor (bus::BusMonitor) is updated at burst start/end so the
 * firmware's per-SID blocking can wait for pipeline drain.
 *
 * Stalls: a head beat stalled on a SID miss or a block bit parks the
 * node (quiescent()) once its response path is idle and its uplink
 * cannot feed it. The node is an SIopmp stall waiter, so every move of
 * the unit's state version wakes it to re-poll. The first evaluate
 * after a block-bit park credits the polls it skipped (see
 * evaluate()), so stats match the tick-every-cycle loop.
 *
 * Held verdicts: a head beat held by backpressure (allowed, downlink
 * full) still polls every cycle, but reuses its held Allow instead of
 * re-running authorize() while SIopmp::stateVersion() stands still,
 * crediting the counters the call would have made
 * (SIopmp::creditHeldAllow). The version moves on every change that
 * can alter a verdict: config-epoch bumps (eSID and every MMIO path),
 * setChecker/setAccelMode, entry and MDCFG table mutations, and CAM,
 * SRC2MD and block-bitmap mutations, direct calls included. The same
 * version gates the resync of the pipes and of the node's checker.
 *
 * Checker instances: each node checks through its own CheckerLogic
 * (one per master port), built from the unit's configured checker.
 * Verdicts are bit-identical by construction — the check is a pure
 * function of the shared tables — while the accelerator's plans,
 * verdict cache and stats ("<node>.accel") are per node.
 */

#ifndef IOPMP_CHECKER_NODE_HH
#define IOPMP_CHECKER_NODE_HH

#include <deque>
#include <memory>
#include <optional>

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
     * @param unit     the sIOPMP functional state and checker logic;
     *                 must outlive the node (it holds the node as a
     *                 stall waiter)
     * @param monitor  block-state consistency monitor (may be null)
     */
    CheckerNode(std::string name, bus::Link *up, bus::Link *down,
                bus::Link *err, SIopmp *unit, bus::BusMonitor *monitor,
                ViolationPolicy policy);
    ~CheckerNode() override;

    void evaluate(Cycle now) override;
    void advance(Cycle now) override;
    bool quiescent(Cycle now) const override;

    ViolationPolicy policy() const { return policy_; }
    void
    setPolicy(ViolationPolicy policy)
    {
        policy_ = policy;
        resp_pipe_.configure(responseDelay());
    }

    stats::Group &statsGroup() { return stats_; }

  private:
    /** Fixed-latency pipeline register chain. */
    class DelayPipe
    {
      public:
        void
        configure(Cycle delay)
        {
            delay_ = delay;
        }

        bool
        canPush() const
        {
            return q_.size() < delay_ + 2;
        }

        void
        push(const bus::Beat &beat, Cycle now)
        {
            q_.push_back(Slot{beat, now + delay_});
        }

        bool
        ready(Cycle now) const
        {
            return !q_.empty() && q_.front().ready_at <= now;
        }

        const bus::Beat &front() const { return q_.front().beat; }
        void pop() { q_.pop_front(); }
        bool empty() const { return q_.empty(); }

      private:
        struct Slot {
            bus::Beat beat;
            Cycle ready_at;
        };
        std::deque<Slot> q_;
        Cycle delay_ = 0;
    };

    void acceptRequests(Cycle now);
    void dispatchRequests(Cycle now);
    void forwardResponses(Cycle now);

    /**
     * Keep the node's checker in sync with the unit's configured
     * checker (kind, stages, accelerator enablement). Runs when the
     * unit's state version moved (acceptRequests), which
     * setChecker/setAccelMode do.
     */
    void syncLogic();

    Cycle requestDelay() const;
    Cycle responseDelay() const;

    /** Pipeline stage whose entry window decided the check (trace
     * attribution); 0 for non-pipelined checkers or no-match denials. */
    unsigned decidingStage(int entry) const;

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

    //! The node's own instance of the unit's checker (see syncLogic).
    std::unique_ptr<CheckerLogic> logic_;

    DelayPipe req_pipe_;
    DelayPipe resp_pipe_;
    Sid2AddrTable sid2addr_;

    //! Divert latch: while a denied write burst drains under BusError,
    //! its remaining beats must follow it to the error node.
    std::optional<std::uint64_t> diverting_txn_;
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

    //! SIopmp::stateVersion() at the last resync. The held verdict
    //! dates from no earlier, so it stands while the version does.
    std::uint64_t version_ = 0;
    //! Allow verdict of a head beat the downlink could not take; its
    //! polls reuse it until the beat leaves or the version moves.
    std::optional<AuthResult> held_;

    //! Why the head beat did not leave in the last dispatch: a SID
    //! miss or block-bit stall lets the node park (see quiescent()).
    enum class Stall : std::uint8_t { None, SidMiss, Blocked };
    Stall stall_ = Stall::None;
    //! Cycle of the last block-bit poll. While stall_ is Blocked it
    //! was the last evaluate(), so a gap before the next one is the
    //! run of polls the node skipped while parked.
    Cycle blocked_poll_ = 0;

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
