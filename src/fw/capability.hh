/**
 * @file
 * Capability abstraction for the secure monitor (§5.4, Fig 9). Every
 * hardware resource — a memory range, a device, an interrupt line —
 * is represented by a capability. Two operations exist:
 *
 *  - derive: create a child capability with a narrower scope (smaller
 *    memory range) or fewer rights; the child remembers its parent,
 *    forming the ownership chain.
 *  - transfer: move ownership (or grant a read-only copy) to another
 *    entity (the boot OS, a TEE, ...).
 *
 * The monitor validates every device-mapping request against this
 * chain: only the owner of both the device capability and the memory
 * capability may bind them.
 */

#ifndef FW_CAPABILITY_HH
#define FW_CAPABILITY_HH

#include <cstdint>

#include "mem/range.hh"
#include "sim/types.hh"

namespace siopmp {
namespace fw {

/** Entities that can own capabilities. */
using OwnerId = std::uint32_t;

inline constexpr OwnerId kMonitorOwner = 0;

/** Resource category a capability covers. */
enum class CapKind : std::uint8_t {
    Memory,    //!< physical address range
    Device,    //!< a DMA master (by device id)
    Interrupt, //!< an interrupt line
};

/** Rights carried by a capability. */
enum class CapRights : std::uint8_t {
    None = 0x0,
    Read = 0x1,
    Write = 0x2,
    Map = 0x4,   //!< may be bound to a device / address space
    Grant = 0x8, //!< may be derived/transferred further
    Full = 0xf,
};

constexpr CapRights
operator&(CapRights a, CapRights b)
{
    return static_cast<CapRights>(static_cast<std::uint8_t>(a) &
                                  static_cast<std::uint8_t>(b));
}

constexpr CapRights
operator|(CapRights a, CapRights b)
{
    return static_cast<CapRights>(static_cast<std::uint8_t>(a) |
                                  static_cast<std::uint8_t>(b));
}

constexpr bool
hasRights(CapRights have, CapRights need)
{
    return (static_cast<std::uint8_t>(have) &
            static_cast<std::uint8_t>(need)) ==
           static_cast<std::uint8_t>(need);
}

/** Handle into the capability space. */
using CapId = std::uint64_t;
inline constexpr CapId kNoCap = 0;

/** One capability record. */
struct Capability {
    CapId id = kNoCap;
    CapId parent = kNoCap;  //!< ownership-chain link
    CapKind kind = CapKind::Memory;
    CapRights rights = CapRights::None;
    OwnerId owner = kMonitorOwner;
    bool revoked = false;

    // Kind-specific payload.
    mem::Range range;       //!< Memory
    DeviceId device = 0;    //!< Device
    unsigned irq_line = 0;  //!< Interrupt
};

} // namespace fw
} // namespace siopmp

#endif // FW_CAPABILITY_HH
