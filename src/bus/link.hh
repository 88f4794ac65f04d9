/**
 * @file
 * A Link bundles the two channels connecting a master-side component to
 * a slave-side component: the A channel (requests, master -> slave) and
 * the D channel (responses, slave -> master).
 *
 * Clocking: a link is built with the Simulator that clocks it. Both
 * channels are clocked at the edge that ends every cycle in which they
 * were pushed or popped (bus/fifo.hh); neither side clocks anything.
 */

#ifndef BUS_LINK_HH
#define BUS_LINK_HH

#include "bus/fifo.hh"
#include "bus/packet.hh"

namespace siopmp {
namespace bus {

struct Link {
    /** @param sim   the simulator whose clock edge clocks the channels
     *  @param depth per-channel fifo capacity */
    explicit Link(Simulator &sim, std::size_t depth = 2)
        : a(sim, depth), d(sim, depth)
    {
    }

    Fifo<Beat> a; //!< requests: master -> slave
    Fifo<Beat> d; //!< responses: slave -> master
};

} // namespace bus
} // namespace siopmp

#endif // BUS_LINK_HH
