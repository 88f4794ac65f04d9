/**
 * @file
 * IceNet-like NIC model (Table 2). Works against in-memory descriptor
 * rings like a real driver-facing NIC:
 *
 *  TX: the driver posts descriptors {buffer addr, length}; the NIC
 *      DMA-reads each descriptor, then DMA-reads the payload and
 *      "transmits" it (accumulating tx bytes), then writes a
 *      completion word back into the descriptor.
 *
 *  RX: incoming packets (injected by the testbench or a workload
 *      generator) consume posted RX descriptors; the NIC DMA-writes
 *      the payload into the posted buffer and writes a completion with
 *      the received length.
 *
 * All descriptor and payload traffic flows through the checker as
 * ordinary DMA, so a NIC bound to a TEE can only reach its granted
 * regions — including sub-page packet buffers (§2.2's NIC example:
 * RX region, TX region, control region).
 */

#ifndef DEVICES_NIC_HH
#define DEVICES_NIC_HH

#include <deque>
#include <unordered_set>
#include <vector>

#include "devices/device.hh"

namespace siopmp {
namespace dev {

/** Descriptor layout: two 64-bit words. */
struct NicDescriptor {
    static constexpr Addr kBytes = 16;
    Addr buffer = 0;        //!< payload buffer physical address
    std::uint64_t len = 0;  //!< word1 low 32: length; bit 63: done
};

struct NicConfig {
    Addr tx_ring = 0;       //!< TX descriptor ring base
    unsigned tx_ring_entries = 64;
    Addr rx_ring = 0;       //!< RX descriptor ring base
    unsigned rx_ring_entries = 64;
};

class Nic : public DmaMaster
{
  public:
    Nic(std::string name, DeviceId device, bus::Link *link, NicConfig cfg);

    /** Driver side: descriptors [tail, tail+count) are ready to send. */
    void postTx(unsigned count)
    {
        tx_posted_ += count;
        wake();
    }

    /** Driver side: RX descriptors available for incoming packets. */
    void postRx(unsigned count)
    {
        rx_posted_ += count;
        wake();
    }

    /** Network side: a packet arrives (payload filled with @p fill). */
    void injectRxPacket(unsigned bytes, std::uint8_t fill = 0xab);

    std::uint64_t txBytes() const { return tx_bytes_; }
    std::uint64_t txPackets() const { return tx_packets_; }
    std::uint64_t rxBytes() const { return rx_bytes_; }
    std::uint64_t rxPackets() const { return rx_packets_; }
    std::uint64_t rxDropped() const { return rx_dropped_; }

    /** True iff no work is pending or in flight. */
    bool idle() const;

    void evaluate(Cycle now) override;
    bool quiescent(Cycle now) const override;

  private:
    enum class TxState { Idle, FetchDesc, FetchPayload, WriteBack };
    enum class RxState { Idle, FetchDesc, WritePayload, WriteBack };

    /** Advance the TX engine; true iff it issued an A beat. */
    bool tickTx(Cycle now);
    void tickRx(Cycle now);
    void collect(Cycle now);

    Addr txDescAddr(unsigned idx) const
    {
        return cfg_.tx_ring + (idx % cfg_.tx_ring_entries) *
                                  NicDescriptor::kBytes;
    }

    Addr rxDescAddr(unsigned idx) const
    {
        return cfg_.rx_ring + (idx % cfg_.rx_ring_entries) *
                                  NicDescriptor::kBytes;
    }

    NicConfig cfg_;

    // TX engine.
    TxState tx_state_ = TxState::Idle;
    unsigned tx_head_ = 0;   //!< next descriptor to process
    unsigned tx_posted_ = 0; //!< descriptors ready beyond head
    NicDescriptor tx_desc_;
    std::uint64_t tx_desc_txn_ = 0;
    std::unordered_set<std::uint64_t> tx_payload_txns_;
    Addr tx_payload_next_ = 0;     //!< next burst address to request
    std::uint64_t tx_payload_remaining_ = 0;
    std::uint64_t tx_payload_outstanding_ = 0;
    std::uint64_t tx_wb_txn_ = 0;
    bool tx_wb_sent_ = false;
    bool tx_aborted_ = false;

    // RX engine.
    struct RxPacket {
        unsigned bytes;
        std::uint8_t fill;
    };

    RxState rx_state_ = RxState::Idle;
    unsigned rx_head_ = 0;
    unsigned rx_posted_ = 0;
    std::deque<RxPacket> rx_pending_packets_; //!< injected packets
    std::uint8_t rx_fill_ = 0; //!< fill byte of the packet in flight
    NicDescriptor rx_desc_;
    std::uint64_t rx_desc_txn_ = 0;
    unsigned rx_cur_bytes_ = 0;
    Addr rx_write_next_ = 0;
    std::uint64_t rx_write_remaining_ = 0;
    unsigned rx_write_beat_ = 0;
    std::uint64_t rx_payload_txn_ = 0;
    bool rx_burst_open_ = false;
    std::uint64_t rx_acks_outstanding_ = 0;
    std::uint64_t rx_wb_txn_ = 0;
    bool rx_wb_sent_ = false;

    // Counters.
    std::uint64_t tx_bytes_ = 0;
    std::uint64_t tx_packets_ = 0;
    std::uint64_t rx_bytes_ = 0;
    std::uint64_t rx_packets_ = 0;
    std::uint64_t rx_dropped_ = 0;
};

} // namespace dev
} // namespace siopmp

#endif // DEVICES_NIC_HH
