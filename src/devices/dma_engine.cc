/**
 * @file
 * DmaEngine implementation.
 */

#include "devices/dma_engine.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace siopmp {
namespace dev {

DmaEngine::DmaEngine(std::string name, DeviceId device, bus::Link *link)
    : DmaMaster(std::move(name), device, link)
{
    link_->a.bindProducer(this);
}

void
DmaEngine::start(const DmaJob &job, Cycle now)
{
    SIOPMP_ASSERT(done_, "DMA job started while another is active");
    job_ = job;
    if (!job_.segments.empty()) {
        SIOPMP_ASSERT(job_.kind != DmaKind::Copy,
                      "scatter-gather copy jobs are not supported");
        job_.bytes = 0;
        for (const auto &[addr, len] : job_.segments) {
            SIOPMP_ASSERT(len > 0 &&
                              len % (job.burst_beats * bus::kBeatBytes) ==
                                  0,
                          "segment size must be a burst multiple");
            job_.bytes += len;
        }
    }
    SIOPMP_ASSERT(job_.bytes % (job.burst_beats * bus::kBeatBytes) == 0,
                  "job size must be a multiple of the burst size");
    done_ = job_.bytes == 0;
    aborted_ = false;
    started_at_ = now;
    completed_at_ = now;
    issued_bytes_ = 0;
    completed_bytes_ = 0;
    outstanding_.clear();
    outstanding_.reserve(job_.max_outstanding);
    write_queue_.clear();
    writing_ = false;
    write_beat_ = 0;
    wake();
}

void
DmaEngine::setDeviceId(DeviceId device)
{
    SIOPMP_ASSERT(done_ && outstanding_.empty(),
                  "device id rebound with a job in flight");
    device_ = device;
}

void
DmaEngine::abort(Cycle now)
{
    if (done_)
        return;
    aborted_ = true;
    // Truncate the stream at what has already been issued. A pure
    // write burst mid-emission is not yet counted in issued_bytes_,
    // so keep its bytes in the job: issueNext() finishes its beats.
    job_.bytes = issued_bytes_;
    if (writing_ && job_.kind != DmaKind::Copy) {
        job_.bytes += static_cast<std::uint64_t>(job_.burst_beats) *
                      bus::kBeatBytes;
    }
    // Staged copy write-outs are dropped: their reads completed, the
    // writes never start, so credit the bytes now.
    for (const auto &out : write_queue_) {
        completed_bytes_ += static_cast<std::uint64_t>(out.beats) *
                            bus::kBeatBytes;
    }
    write_queue_.clear();
    if (!writing_ && outstanding_.empty()) {
        done_ = true;
        completed_at_ = now;
    }
    wake();
}

bool
DmaEngine::quiescent(Cycle) const
{
    if (!link_->d.settled())
        return false; // responses to collect
    if (done_)
        return true;
    // Opening a write burst stamps its issue cycle, so the engine stays
    // hot until it has opened the next one, whether or not the uplink
    // can take a beat.
    const bool room = outstanding_.size() < job_.max_outstanding;
    if (!writing_ && room &&
        (job_.kind == DmaKind::Copy
             ? !write_queue_.empty()
             : job_.kind == DmaKind::Write && issued_bytes_ < job_.bytes))
        return false;
    // All other issuing is a push. Behind an uplink the edge leaves full
    // it waits for the pop that frees a slot, which wakes the engine (its
    // uplink's bound producer); once everything issued merely awaits
    // responses, the D-channel wake re-arms it.
    if (!link_->a.canPushNext())
        return true;
    return !writing_ && !(job_.kind != DmaKind::Write && room &&
                          issued_bytes_ < job_.bytes);
}

bool
DmaEngine::done() const
{
    return done_;
}

Addr
DmaEngine::streamAddr(Addr base, std::uint64_t offset) const
{
    if (job_.segments.empty())
        return base + offset;
    for (const auto &[addr, len] : job_.segments) {
        if (offset < len)
            return addr + offset;
        offset -= len;
    }
    panic("stream offset beyond the scatter-gather list");
}

void
DmaEngine::issueNext(Cycle now)
{
    if (issued_bytes_ >= job_.bytes)
        return;
    const std::uint64_t burst_bytes =
        static_cast<std::uint64_t>(job_.burst_beats) * bus::kBeatBytes;

    if (job_.kind == DmaKind::Read || job_.kind == DmaKind::Copy) {
        if (outstanding_.size() >= job_.max_outstanding)
            return;
        const Addr addr = streamAddr(job_.src, issued_bytes_);
        if (!tryIssueGet(addr, job_.burst_beats))
            return;
        outstanding_.push_back(
            {last_get_txn_, addr, job_.burst_beats, now, {}});
        if (job_.kind == DmaKind::Copy)
            outstanding_.back().data.reserve(job_.burst_beats);
        issued_bytes_ += burst_bytes;
        return;
    }

    // Pure write job: stream one burst's beats contiguously.
    if (!writing_) {
        if (outstanding_.size() >= job_.max_outstanding)
            return;
        writing_ = true;
        write_beat_ = 0;
        write_txn_ = allocTxn();
        write_addr_ = streamAddr(job_.dst, issued_bytes_);
        outstanding_.push_back(
            {write_txn_, write_addr_, job_.burst_beats, now, {}});
    }
    const std::uint64_t data =
        job_.fill_pattern + issued_bytes_ / burst_bytes + write_beat_;
    if (!tryIssuePutBeat(write_addr_, write_beat_, job_.burst_beats, data,
                         write_txn_)) {
        return;
    }
    if (++write_beat_ == job_.burst_beats) {
        writing_ = false;
        issued_bytes_ += burst_bytes;
    }
}

void
DmaEngine::issueWrites(Cycle now)
{
    // Copy jobs: write out staged read data, one burst at a time.
    if (job_.kind != DmaKind::Copy)
        return;
    if (!writing_) {
        if (write_queue_.empty())
            return;
        if (outstanding_.size() >= job_.max_outstanding)
            return;
        write_current_ = std::move(write_queue_.front());
        write_queue_.pop_front();
        writing_ = true;
        write_beat_ = 0;
        write_txn_ = allocTxn();
        write_addr_ = job_.dst + (write_current_.addr - job_.src);
        outstanding_.push_back(
            {write_txn_, write_addr_, write_current_.beats, now, {}});
    }
    const std::uint64_t data = write_beat_ < write_current_.data.size()
                                   ? write_current_.data[write_beat_]
                                   : 0;
    if (!tryIssuePutBeat(write_addr_, write_beat_, write_current_.beats,
                         data, write_txn_)) {
        return;
    }
    if (++write_beat_ == write_current_.beats)
        writing_ = false;
}

void
DmaEngine::collectResponses(Cycle now)
{
    // Consume at most one D beat per cycle (one response port).
    if (link_->d.empty())
        return;
    const bus::Beat beat = link_->d.front();
    link_->d.pop();
    accountResponse(beat);

    auto it = std::find_if(
        outstanding_.begin(), outstanding_.end(),
        [&beat](const Outstanding &o) { return o.txn == beat.txn; });
    if (it == outstanding_.end())
        return; // stale response for a reset job
    Outstanding &out = *it;
    const auto release = [this, &it] {
        if (&*it != &outstanding_.back())
            *it = std::move(outstanding_.back());
        outstanding_.pop_back();
    };

    const std::uint64_t burst_bytes =
        static_cast<std::uint64_t>(out.beats) * bus::kBeatBytes;

    if (beat.denied) {
        // Bus-error termination: the burst is over immediately.
        completed_bytes_ += burst_bytes;
        ++bursts_completed_;
        burst_latency_.sample(static_cast<double>(now - out.issued_at));
        if (burst_observer_)
            burst_observer_(now - out.issued_at, true);
        release();
    } else if (beat.opcode == bus::Opcode::AccessAckData) {
        if (job_.kind == DmaKind::Copy)
            out.data.push_back(beat.data); // staged for the write-out
        if (beat.last) {
            ++bursts_completed_;
            burst_latency_.sample(static_cast<double>(now - out.issued_at));
            if (burst_observer_)
                burst_observer_(now - out.issued_at, false);
            if (job_.kind == DmaKind::Copy && !aborted_) {
                write_queue_.push_back(std::move(out));
            } else {
                // Aborted copies count the read as the burst's end:
                // the write-out never starts.
                completed_bytes_ += burst_bytes;
            }
            release();
        }
    } else if (beat.opcode == bus::Opcode::AccessAck) {
        completed_bytes_ += burst_bytes;
        ++bursts_completed_;
        burst_latency_.sample(static_cast<double>(now - out.issued_at));
        if (burst_observer_)
            burst_observer_(now - out.issued_at, false);
        release();
    }

    if (jobActive() && completed_bytes_ >= job_.bytes) {
        done_ = true;
        completed_at_ = now;
    }
}

void
DmaEngine::evaluate(Cycle now)
{
    if (!done_) {
        issueNext(now);
        issueWrites(now);
    }
    collectResponses(now);
}

} // namespace dev
} // namespace siopmp
