/**
 * @file
 * CheckerNode implementation.
 */

#include "iopmp/checker_node.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace siopmp {
namespace iopmp {

namespace {

/** Span correlation id for a transaction seen at the checker. The
 * route tag is not stamped yet (the xbar sits downstream in the
 * per-device topology), so key by originating device instead. */
std::uint64_t
checkSpanId(const bus::Beat &beat)
{
    return ((static_cast<std::uint64_t>(beat.device) + 1) << 32) ^
           beat.txn;
}

} // namespace

CheckerNode::CheckerNode(std::string name, bus::Link *up, bus::Link *down,
                         bus::Link *err, SIopmp *unit,
                         bus::BusMonitor *monitor, ViolationPolicy policy)
    : Tickable(std::move(name)),
      up_(up),
      down_(down),
      err_(err),
      unit_(unit),
      monitor_(monitor),
      policy_(policy),
      stats_(this->name())
{
    SIOPMP_ASSERT(up_ && down_ && unit_, "checker node wiring incomplete");
    if (policy_ == ViolationPolicy::BusError)
        SIOPMP_ASSERT(err_ != nullptr, "bus-error policy needs error link");
    req_pipe_.configure(requestDelay());
    resp_pipe_.configure(responseDelay());
    up_->a.bindWake(this);
    down_->a.bindProducer(this);
    down_->d.bindWake(this);
    if (err_ != nullptr)
        err_->d.bindWake(this);
    version_ = unit_->stateVersion();
    unit_->addStallWaiter(this);
}

CheckerNode::~CheckerNode()
{
    unit_->removeStallWaiter(this);
}

bool
CheckerNode::quiescent(Cycle) const
{
    // Ordered so a busy node exits on its first test: a beat in the
    // request pipe that is not parked (in flight, or its stall cannot
    // wait for a wake) keeps the node polling.
    if (stall_ == Stall::None && !req_pipe_.empty())
        return false;
    // A held beat parks only behind a downlink that stays full after
    // this cycle's clock edge, whose next pop wakes the node; a pop
    // this cycle already made room.
    if (stall_ == Stall::Held && down_->a.canPushNext())
        return false;
    if (!resp_pipe_.empty() || !down_->d.settled() ||
        (err_ != nullptr && !err_->d.settled()))
        return false;
    // Empty, or the head is parked: SIopmp wakes the node on any
    // change that can decide its stall. Either way the uplink must
    // not be able to feed the pipe, or accept would do work.
    return up_->a.settled() || !req_pipe_.canPush();
}

Cycle
CheckerNode::requestDelay() const
{
    // Pipeline registers only; the SID2Addr record under packet
    // masking happens in parallel with the forwarded request.
    return unit_->geometry().extraLatency();
}

Cycle
CheckerNode::responseDelay() const
{
    // Packet masking interposes the response path for the read-clear
    // table lookup; bus-error handling leaves responses untouched.
    return policy_ == ViolationPolicy::PacketMasking ? 1 : 0;
}

void
CheckerNode::acceptRequests(Cycle now)
{
    // Any change that can alter a verdict moves the version: drop the
    // held verdict.
    if (unit_->stateVersion() != version_) {
        version_ = unit_->stateVersion();
        held_.reset();
    }

    if (up_->a.empty() || !req_pipe_.canPush())
        return;
    const bus::Beat &beat = up_->a.front();
    if (beat.beat_idx == 0) {
        if (monitor_)
            monitor_->onRequestStart(beat.device);
        if (trace::on()) {
            trace::Event ev;
            ev.when = now;
            ev.phase = trace::Phase::SpanBegin;
            ev.track = name().c_str();
            ev.category = "checker";
            ev.name = "check";
            ev.id = checkSpanId(beat);
            ev.device = beat.device;
            ev.addr = beat.addr;
            ev.arg0 = unit_->geometry().stages;
            ev.arg1 = beat.num_beats;
            ev.label = bus::opcodeName(beat.opcode);
            trace::emit(ev);
        }
    }
    req_pipe_.push(beat, now);
    up_->a.pop();
}

void
CheckerNode::traceResolved(const bus::Beat &beat, Cycle now,
                           const char *verdict, int entry)
{
    // Close an open blocking window: the stalled head beat finally
    // resolved, so the §4.1 drain wait is over. This is stats-level
    // bookkeeping and runs whether or not a trace sink is installed.
    if (block_window_start_) {
        const Cycle duration = now - *block_window_start_;
        if (monitor_)
            monitor_->recordBlockWindow(beat.device, duration);
        if (trace::on()) {
            trace::Event ev;
            ev.when = now;
            ev.phase = trace::Phase::SpanEnd;
            ev.track = name().c_str();
            ev.category = "checker";
            ev.name = "block_window";
            ev.id = beat.device + 1;
            ev.device = beat.device;
            ev.arg1 = duration;
            trace::emit(ev);
        }
        block_window_start_.reset();
    }

    if (!trace::on())
        return;

    trace::Event ev;
    ev.when = now;
    ev.phase = trace::Phase::Instant;
    ev.track = name().c_str();
    ev.category = "checker";
    ev.name = "verdict";
    ev.device = beat.device;
    ev.addr = beat.addr;
    // The pipeline stage whose window decided; 0 for a no-match deny.
    ev.arg0 = entry < 0 ? 0 : unit_->geometry().stageOf(entry);
    ev.arg1 = static_cast<std::uint64_t>(entry < 0 ? ~0ull : entry);
    ev.label = verdict;
    trace::emit(ev);

    if (verdict[0] == 'd') { // deny / deny-drain
        ev.name = "violation";
        ev.label = permName(beat.requiredPerm());
        trace::emit(ev);
    }

    if (beat.last) {
        ev.phase = trace::Phase::SpanEnd;
        ev.name = "check";
        ev.id = checkSpanId(beat);
        ev.label = verdict;
        trace::emit(ev);
    }
}

CheckerNode::Latch *
CheckerNode::findLatch(const bus::Beat &beat)
{
    for (Latch &latch : latches_) {
        if (latch.device == beat.device && latch.txn == beat.txn)
            return &latch;
    }
    return nullptr;
}

void
CheckerNode::openLatch(const bus::Beat &beat, Verdict verdict, int entry)
{
    const Latch latch{beat.device, beat.txn, beat.addr, beat.num_beats,
                      verdict, entry};
    // One open burst per device: a device that opens a new one before
    // the last beat of the old leaves the old one's beats unlatched.
    for (Latch &open : latches_) {
        if (open.device == beat.device) {
            open = latch;
            return;
        }
    }
    latches_.push_back(latch);
}

void
CheckerNode::left(Latch *latch, const bus::Beat &beat, Verdict verdict,
                  int entry)
{
    if (latch != nullptr) {
        if (beat.last) {
            *latch = latches_.back();
            latches_.pop_back();
        }
    } else if (bus::isWrite(beat.opcode) && !beat.last &&
               (verdict != Verdict::Allow || beat.beat_idx == 0)) {
        // Only a head's Allow covers the burst's later beats: its
        // check covered all of the burst's bytes.
        openLatch(beat, verdict, entry);
    }
}

void
CheckerNode::streamLatched(Latch *latch, bus::Beat beat, Cycle now)
{
    const Verdict verdict = latch->verdict;
    const int entry = latch->entry;
    if (verdict == Verdict::Divert) {
        if (!err_->a.canPush())
            return;
        err_->a.push(beat);
    } else {
        if (!down_->a.canPush()) {
            // Parks like a held Allow, but the poll counts nothing.
            stall_ = Stall::Held;
            return;
        }
        if (verdict == Verdict::Mask) {
            beat.strobe = 0;
            beat.masked = true;
        } else {
            ++beats_forwarded_;
        }
        down_->a.push(beat);
    }
    req_pipe_.pop();
    left(latch, beat, verdict, entry);
    if (block_window_start_ || trace::on()) {
        traceResolved(beat, now,
                      verdict == Verdict::Allow  ? "allow"
                      : verdict == Verdict::Mask ? "deny"
                                                 : "deny-drain",
                      entry);
    }
}

void
CheckerNode::dispatchRequests(Cycle now)
{
    stall_ = Stall::None;
    if (!req_pipe_.ready(now))
        return;
    bus::Beat beat = req_pipe_.front();

    // A later beat of a write burst streams on the verdict its head
    // latched, unless it strays from the range the head was checked
    // for: then it is authorized on its own, below.
    const bool write = bus::isWrite(beat.opcode);
    Latch *latch = write && beat.beat_idx != 0 ? findLatch(beat) : nullptr;
    if (latch && (latch->verdict != Verdict::Allow || latch->covers(beat))) {
        streamLatched(latch, beat, now);
        return;
    }

    // A burst is checked once, at its head, over all its bytes; a write
    // beat without a latch, on its own.
    const Addr len = !write || beat.beat_idx == 0
                         ? static_cast<Addr>(beat.num_beats) *
                               bus::kBeatBytes
                         : bus::kBeatBytes;
    const Perm perm = beat.requiredPerm();

    // SID-missing handling: while the monitor mounts the device, poll
    // without re-raising the interrupt. The poll has no side effect,
    // so a parked node just re-runs it when SIopmp wakes it.
    if (pending_miss_ && *pending_miss_ == beat.device) {
        if (unit_->resolveSid(beat.device)) {
            pending_miss_.reset();
        } else if (unit_->configEpoch() != pending_miss_epoch_) {
            // The monitor did reconfigure since our raise, yet our SID
            // is still unresolved: a concurrent miss's mount took the
            // eSID slot (its interrupt drained in the same batch as
            // ours). Clear the edge trigger and fall through to
            // authorize again, re-raising SidMiss — otherwise two cold
            // devices trading the slot stall each other forever.
            pending_miss_.reset();
            ++sid_miss_rearms_;
        } else {
            stall_ = Stall::SidMiss;
            return; // still cold and unmounted; stall
        }
    }

    // A held verdict is this head beat's, and acceptRequests() dropped
    // it if the version moved since: authorize() would repeat it.
    const bool held = held_.has_value();
    const AuthResult auth =
        held ? *held_
             : unit_->authorize(beat.device, beat.addr, len, perm, now);

    switch (auth.status) {
      case AuthStatus::SidMiss:
        stall_ = Stall::SidMiss;
        pending_miss_ = beat.device;
        pending_miss_epoch_ = unit_->configEpoch();
        ++sid_miss_stalls_;
        if (trace::on()) {
            trace::Event ev;
            ev.when = now;
            ev.track = name().c_str();
            ev.category = "checker";
            ev.name = "sid_miss";
            ev.device = beat.device;
            ev.addr = beat.addr;
            trace::emit(ev);
        }
        return; // stall until mounted

      case AuthStatus::Blocked:
        stall_ = Stall::Blocked;
        if (held)
            return;
        held_ = auth;
        ++block_stalls_;
        // Edge: open the §4.1 blocking window on the first stalled
        // cycle; traceResolved() closes it when the head resolves.
        if (!block_window_start_) {
            block_window_start_ = now;
            if (trace::on()) {
                trace::Event ev;
                ev.when = now;
                ev.phase = trace::Phase::SpanBegin;
                ev.track = name().c_str();
                ev.category = "checker";
                ev.name = "block_window";
                ev.id = beat.device + 1;
                ev.device = beat.device;
                ev.addr = beat.addr;
                trace::emit(ev);
            }
        }
        return; // per-SID block: stall (head of this device's stream)

      case AuthStatus::Deny:
        ++violations_;
        if (policy_ == ViolationPolicy::BusError && latch == nullptr) {
            if (!err_->a.canPush())
                return;
            err_->a.push(beat);
            req_pipe_.pop();
            left(latch, beat, Verdict::Divert, -1);
            if (block_window_start_ || trace::on())
                traceResolved(beat, now, "deny", auth.entry);
            return;
        }
        // Packet masking: writes lose their strobe; reads are recorded
        // as violating so the response data gets cleared. A straying
        // beat of a burst already downstream is masked whatever the
        // policy: the fabric must see the burst's last beat.
        if (write) {
            if (!down_->a.canPush())
                return;
            beat.strobe = 0;
            beat.masked = true;
            down_->a.push(beat);
            req_pipe_.pop();
            left(latch, beat, Verdict::Mask, auth.entry);
            if (block_window_start_ || trace::on())
                traceResolved(beat, now, "deny", auth.entry);
            return;
        }
        if (!down_->a.canPush())
            return;
        sid2addr_.record(beat.route, beat.txn,
                         {beat.device, beat.addr, /*violated=*/true});
        down_->a.push(beat);
        req_pipe_.pop();
        if (block_window_start_ || trace::on())
            traceResolved(beat, now, "deny", auth.entry);
        return;

      case AuthStatus::Allow:
        if (!down_->a.canPush()) {
            stall_ = Stall::Held;
            held_ = auth;
            return;
        }
        held_.reset();
        if (policy_ == ViolationPolicy::PacketMasking &&
            beat.opcode == bus::Opcode::Get) {
            sid2addr_.record(beat.route, beat.txn,
                             {beat.device, beat.addr, /*violated=*/false});
        }
        down_->a.push(beat);
        ++beats_forwarded_;
        req_pipe_.pop();
        left(latch, beat, Verdict::Allow, auth.entry);
        if (block_window_start_ || trace::on())
            traceResolved(beat, now, "allow", auth.entry);
        return;
    }
}

void
CheckerNode::forwardResponses(Cycle now)
{
    // Error-node responses take priority (rare, single beat).
    if (err_ && !err_->d.empty() && up_->d.canPush()) {
        const bus::Beat &beat = err_->d.front();
        if (beat.last && monitor_)
            monitor_->onResponseEnd(beat.device);
        up_->d.push(beat);
        err_->d.pop();
        return;
    }

    // Move fabric responses into the response pipe (masking delay).
    if (!down_->d.empty() && resp_pipe_.canPush()) {
        resp_pipe_.push(down_->d.front(), now);
        down_->d.pop();
    }

    if (!resp_pipe_.ready(now) || !up_->d.canPush())
        return;
    bus::Beat beat = resp_pipe_.front();
    resp_pipe_.pop();

    if (policy_ == ViolationPolicy::PacketMasking &&
        beat.opcode == bus::Opcode::AccessAckData) {
        if (auto info = sid2addr_.lookup(beat.route, beat.txn)) {
            if (info->violated) {
                beat.data = 0; // read clear
                beat.masked = true;
                ++read_clears_;
            }
            if (beat.last)
                sid2addr_.release(beat.route, beat.txn);
        }
    }

    if (beat.last && monitor_)
        monitor_->onResponseEnd(beat.device);
    up_->d.push(beat);
}

void
CheckerNode::evaluate(Cycle now)
{
    acceptRequests(now);
    dispatchRequests(now);
    forwardResponses(now);
}

} // namespace iopmp
} // namespace siopmp
