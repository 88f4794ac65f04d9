/**
 * @file
 * A Link bundles the two channels connecting a master-side component to
 * a slave-side component: the A channel (requests, master -> slave) and
 * the D channel (responses, slave -> master).
 *
 * Clocking convention: the consumer of a channel clocks it. The slave
 * side consumes (and clocks) 'a'; the master side consumes (and clocks)
 * 'd'.
 */

#ifndef BUS_LINK_HH
#define BUS_LINK_HH

#include "bus/fifo.hh"
#include "bus/packet.hh"

namespace siopmp {
namespace bus {

struct Link {
    /** @param depth per-channel fifo capacity. */
    explicit Link(std::size_t depth = 2) : a(depth), d(depth) {}

    Fifo<Beat> a; //!< requests: master -> slave
    Fifo<Beat> d; //!< responses: slave -> master

    void
    reset()
    {
        a.reset();
        d.reset();
    }
};

} // namespace bus
} // namespace siopmp

#endif // BUS_LINK_HH
