/**
 * @file
 * Accelerator implementation.
 */

#include "devices/accelerator.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace siopmp {
namespace dev {

Accelerator::Accelerator(std::string name, DeviceId device, bus::Link *link)
    : DmaMaster(std::move(name), device, link)
{
}

void
Accelerator::start(const LayerJob &job, Cycle now)
{
    SIOPMP_ASSERT(done_, "accelerator job started while active");
    SIOPMP_ASSERT(job.tile_bytes % (bus::kBurstBeats * bus::kBeatBytes) == 0,
                  "tile size must be a multiple of the burst size");
    job_ = job;
    done_ = job.tiles == 0;
    completed_at_ = now;
    tile_ = 0;
    tiles_done_ = 0;
    accumulator_ = 0;
    outstanding_.clear();
    startTile();
    wake();
}

bool
Accelerator::quiescent(Cycle) const
{
    // An active layer keeps the accelerator hot across all phases
    // (issue stalls, read waits, ack waits); only a finished layer with
    // drained responses sleeps.
    return done_ && link_->d.settled();
}

void
Accelerator::startTile()
{
    phase_ = Phase::ReadWeights;
    read_issued_ = 0;
    read_received_ = 0;
    write_issued_ = 0;
    write_beat_ = 0;
    write_burst_open_ = false;
    write_acks_pending_ = 0;
}

void
Accelerator::issue(Cycle)
{
    if (done_)
        return;

    const std::uint64_t burst_bytes =
        static_cast<std::uint64_t>(bus::kBurstBeats) * bus::kBeatBytes;

    if (phase_ == Phase::ReadWeights || phase_ == Phase::ReadInputs) {
        if (read_issued_ >= job_.tile_bytes)
            return; // wait for data
        if (outstanding_.size() >= job_.max_outstanding)
            return;
        const bool weights = phase_ == Phase::ReadWeights;
        const Addr base = weights ? job_.weights : job_.inputs;
        const Addr addr = base +
                          static_cast<Addr>(tile_) * job_.tile_bytes +
                          read_issued_;
        if (!tryIssueGet(addr, bus::kBurstBeats))
            return;
        outstanding_.emplace(last_get_txn_, Outstanding{weights});
        read_issued_ += burst_bytes;
        return;
    }

    // WriteOutput: stream bursts of the accumulated value.
    if (write_issued_ >= job_.tile_bytes)
        return; // waiting for acks
    if (!write_burst_open_) {
        write_txn_ = next_txn_++;
        write_beat_ = 0;
        write_burst_open_ = true;
    }
    // makePut derives each beat's address from the burst base.
    const Addr burst_base = job_.outputs +
                            static_cast<Addr>(tile_) * job_.tile_bytes +
                            write_issued_;
    if (!tryIssuePutBeat(burst_base, write_beat_, bus::kBurstBeats,
                         accumulator_ + write_beat_, write_txn_)) {
        return;
    }
    if (++write_beat_ == bus::kBurstBeats) {
        write_burst_open_ = false;
        ++write_acks_pending_;
        write_issued_ += burst_bytes;
    }
}

void
Accelerator::collect(Cycle now)
{
    if (link_->d.empty())
        return;
    const bus::Beat beat = link_->d.front();
    link_->d.pop();
    accountResponse(beat);

    if (beat.opcode == bus::Opcode::AccessAckData || beat.denied) {
        auto it = outstanding_.find(beat.txn);
        if (it != outstanding_.end()) {
            if (!beat.denied) {
                // Dummy MAC: fold the data into the accumulator.
                accumulator_ += beat.data * (it->second.is_weight ? 3 : 1);
                read_received_ += bus::kBeatBytes;
            } else {
                // Terminated burst: account the remainder as received
                // zeros so the tile can finish.
                read_received_ += bus::kBurstBeats * bus::kBeatBytes;
            }
            if (beat.last)
                outstanding_.erase(it);
        }
        if ((phase_ == Phase::ReadWeights ||
             phase_ == Phase::ReadInputs) &&
            read_received_ >= job_.tile_bytes && outstanding_.empty()) {
            if (phase_ == Phase::ReadWeights) {
                phase_ = Phase::ReadInputs;
            } else {
                phase_ = Phase::WriteOutput;
            }
            read_issued_ = 0;
            read_received_ = 0;
        }
        return;
    }

    if (beat.opcode == bus::Opcode::AccessAck &&
        phase_ == Phase::WriteOutput) {
        if (write_acks_pending_ > 0)
            --write_acks_pending_;
        if (write_issued_ >= job_.tile_bytes && write_acks_pending_ == 0 &&
            !write_burst_open_) {
            ++tiles_done_;
            if (++tile_ >= job_.tiles) {
                done_ = true;
                completed_at_ = now;
            } else {
                startTile();
            }
        }
    }
}

void
Accelerator::evaluate(Cycle now)
{
    issue(now);
    collect(now);
}

} // namespace dev
} // namespace siopmp
