/**
 * @file
 * Nic implementation.
 */

#include "devices/nic.hh"

#include <utility>

#include "sim/logging.hh"

namespace siopmp {
namespace dev {

namespace {

std::uint64_t
repeatByte(std::uint8_t b)
{
    std::uint64_t w = b;
    w |= w << 8;
    w |= w << 16;
    w |= w << 32;
    return w;
}

unsigned
beatsFor(std::uint64_t bytes)
{
    return static_cast<unsigned>(
        (bytes + bus::kBeatBytes - 1) / bus::kBeatBytes);
}

} // namespace

Nic::Nic(std::string name, DeviceId device, bus::Link *link, NicConfig cfg)
    : DmaMaster(std::move(name), device, link), cfg_(cfg)
{
}

bool
Nic::idle() const
{
    return tx_state_ == TxState::Idle && rx_state_ == RxState::Idle &&
           tx_posted_ == 0 && rx_pending_packets_.empty();
}

void
Nic::injectRxPacket(unsigned bytes, std::uint8_t fill)
{
    rx_pending_packets_.push_back(RxPacket{bytes, fill});
    wake();
}

bool
Nic::quiescent(Cycle) const
{
    // Mid-packet wait states keep the NIC hot (conservative: the D wake
    // would cover them, but polling through stalls is simpler to reason
    // about); only a truly idle NIC with drained responses sleeps.
    return idle() && link_->d.settled();
}

bool
Nic::tickTx(Cycle)
{
    switch (tx_state_) {
      case TxState::Idle:
        if (tx_posted_ == 0)
            return false;
        if (!tryIssueGet(txDescAddr(tx_head_), 2))
            return false;
        tx_desc_txn_ = last_get_txn_;
        tx_desc_ = NicDescriptor{};
        tx_state_ = TxState::FetchDesc;
        return true;

      case TxState::FetchDesc:
        return false; // waiting for descriptor beats in collect()

      case TxState::FetchPayload: {
        if (tx_payload_remaining_ == 0)
            return false; // waiting for data in collect()
        const unsigned beats =
            std::min<std::uint64_t>(bus::kBurstBeats,
                                    beatsFor(tx_payload_remaining_));
        if (!tryIssueGet(tx_payload_next_, beats))
            return false;
        tx_payload_txns_.insert(last_get_txn_);
        ++tx_payload_outstanding_;
        const std::uint64_t burst_bytes =
            static_cast<std::uint64_t>(beats) * bus::kBeatBytes;
        tx_payload_next_ += burst_bytes;
        tx_payload_remaining_ -=
            std::min<std::uint64_t>(burst_bytes, tx_payload_remaining_);
        return true;
      }

      case TxState::WriteBack:
        if (tx_wb_sent_)
            return false; // waiting for the ack
        {
            const std::uint64_t done_word =
                (tx_desc_.len & 0xffff'ffffULL) | (std::uint64_t{1} << 63) |
                (tx_aborted_ ? (std::uint64_t{1} << 62) : 0);
            const std::uint64_t txn = next_txn_;
            if (!tryIssuePutBeat(txDescAddr(tx_head_) + 8, 0, 1, done_word,
                                 txn)) {
                return false;
            }
            ++next_txn_;
            tx_wb_txn_ = txn;
            tx_wb_sent_ = true;
        }
        return true;
    }
    return false;
}

void
Nic::tickRx(Cycle)
{
    switch (rx_state_) {
      case RxState::Idle:
        if (rx_pending_packets_.empty())
            return;
        if (rx_posted_ == 0) {
            // No buffer available: drop (like a real NIC under
            // descriptor exhaustion).
            rx_pending_packets_.pop_front();
            ++rx_dropped_;
            return;
        }
        if (!tryIssueGet(rxDescAddr(rx_head_), 2))
            return;
        rx_desc_txn_ = last_get_txn_;
        rx_desc_ = NicDescriptor{};
        rx_cur_bytes_ = rx_pending_packets_.front().bytes;
        rx_fill_ = rx_pending_packets_.front().fill;
        rx_pending_packets_.pop_front();
        rx_state_ = RxState::FetchDesc;
        return;

      case RxState::FetchDesc:
        return; // waiting for descriptor in collect()

      case RxState::WritePayload: {
        if (rx_write_remaining_ == 0)
            return; // acks pending; collect() advances state
        if (!rx_burst_open_) {
            rx_write_beat_ = 0;
            rx_payload_txn_ = next_txn_++;
            rx_burst_open_ = true;
        }
        const unsigned beats =
            std::min<std::uint64_t>(bus::kBurstBeats,
                                    beatsFor(rx_write_remaining_));
        if (!tryIssuePutBeat(rx_write_next_, rx_write_beat_, beats,
                             repeatByte(rx_fill_), rx_payload_txn_)) {
            return;
        }
        if (++rx_write_beat_ == beats) {
            rx_burst_open_ = false;
            ++rx_acks_outstanding_;
            const std::uint64_t burst_bytes =
                static_cast<std::uint64_t>(beats) * bus::kBeatBytes;
            rx_write_next_ += burst_bytes;
            rx_write_remaining_ -=
                std::min<std::uint64_t>(burst_bytes, rx_write_remaining_);
        }
        return;
      }

      case RxState::WriteBack:
        if (rx_wb_sent_)
            return;
        {
            const std::uint64_t done_word =
                rx_cur_bytes_ | (std::uint64_t{1} << 63);
            const std::uint64_t txn = next_txn_;
            if (!tryIssuePutBeat(rxDescAddr(rx_head_) + 8, 0, 1, done_word,
                                 txn)) {
                return;
            }
            ++next_txn_;
            rx_wb_txn_ = txn;
            rx_wb_sent_ = true;
        }
        return;
    }
}

void
Nic::collect(Cycle)
{
    if (link_->d.empty())
        return;
    const bus::Beat beat = link_->d.front();
    link_->d.pop();
    accountResponse(beat);

    // ---- TX responses ---------------------------------------------------
    if (tx_state_ == TxState::FetchDesc && beat.txn == tx_desc_txn_) {
        if (beat.denied) {
            tx_aborted_ = true;
            tx_state_ = TxState::WriteBack;
            tx_wb_sent_ = false;
            return;
        }
        if (beat.beat_idx == 0)
            tx_desc_.buffer = beat.data;
        else
            tx_desc_.len = beat.data;
        if (beat.last) {
            tx_payload_next_ = tx_desc_.buffer;
            tx_payload_remaining_ = tx_desc_.len & 0xffff'ffffULL;
            tx_payload_outstanding_ = 0;
            tx_payload_txns_.clear();
            tx_aborted_ = false;
            tx_state_ = TxState::FetchPayload;
        }
        return;
    }
    if (tx_state_ == TxState::FetchPayload &&
        tx_payload_txns_.count(beat.txn)) {
        if (beat.denied) {
            tx_aborted_ = true;
            --tx_payload_outstanding_;
            tx_payload_txns_.erase(beat.txn);
        } else if (beat.opcode == bus::Opcode::AccessAckData) {
            tx_bytes_ += bus::kBeatBytes;
            if (beat.last) {
                --tx_payload_outstanding_;
                tx_payload_txns_.erase(beat.txn);
            }
        }
        if (tx_payload_remaining_ == 0 && tx_payload_outstanding_ == 0) {
            tx_state_ = TxState::WriteBack;
            tx_wb_sent_ = false;
        }
        return;
    }
    if (tx_state_ == TxState::WriteBack && beat.txn == tx_wb_txn_) {
        ++tx_packets_;
        ++tx_head_;
        --tx_posted_;
        tx_state_ = TxState::Idle;
        return;
    }

    // ---- RX responses ---------------------------------------------------
    if (rx_state_ == RxState::FetchDesc && beat.txn == rx_desc_txn_) {
        if (beat.denied) {
            ++rx_dropped_;
            rx_state_ = RxState::Idle;
            return;
        }
        if (beat.beat_idx == 0)
            rx_desc_.buffer = beat.data;
        else
            rx_desc_.len = beat.data;
        if (beat.last) {
            rx_write_next_ = rx_desc_.buffer;
            rx_write_remaining_ = rx_cur_bytes_;
            rx_acks_outstanding_ = 0;
            rx_burst_open_ = false;
            rx_state_ = RxState::WritePayload;
        }
        return;
    }
    if (rx_state_ == RxState::WritePayload &&
        beat.opcode == bus::Opcode::AccessAck) {
        if (rx_acks_outstanding_ > 0)
            --rx_acks_outstanding_;
        if (rx_write_remaining_ == 0 && rx_acks_outstanding_ == 0 &&
            !rx_burst_open_) {
            rx_state_ = RxState::WriteBack;
            rx_wb_sent_ = false;
        }
        return;
    }
    if (rx_state_ == RxState::WriteBack && beat.txn == rx_wb_txn_) {
        rx_bytes_ += rx_cur_bytes_;
        ++rx_packets_;
        ++rx_head_;
        --rx_posted_;
        rx_state_ = RxState::Idle;
        return;
    }
}

void
Nic::evaluate(Cycle now)
{
    // One A beat per cycle total: TX and RX engines alternate priority
    // by simply trying TX first (RX writes dominate ack traffic).
    if (!tickTx(now))
        tickRx(now);
    collect(now);
}

} // namespace dev
} // namespace siopmp
