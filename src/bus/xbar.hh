/**
 * @file
 * N-to-1 crossbar with per-burst round-robin arbitration on the A
 * channel and route-tag-based response steering on the D channel.
 * Models the system front bus that DMA masters share on the way to
 * memory.
 */

#ifndef BUS_XBAR_HH
#define BUS_XBAR_HH

#include <cstdint>
#include <vector>

#include "bus/link.hh"
#include "sim/stats.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace bus {

class Xbar : public Tickable
{
  public:
    /**
     * @param name     component name (stats prefix)
     * @param uplinks  one link per master port (xbar is their slave)
     * @param downlink link toward memory (xbar is its master)
     */
    Xbar(std::string name, std::vector<Link *> uplinks, Link *downlink);

    void evaluate(Cycle now) override;
    bool quiescent(Cycle now) const override;

    stats::Group &statsGroup() { return stats_; }

  private:
    /** Forward at most one A beat; keeps burst beats contiguous. */
    void forwardRequest();

    /** Route at most one D beat back to its master port. */
    void forwardResponse();

    /** Async-span trace events bracketing one bus transaction. */
    void traceTxnBegin(const Beat &beat);
    void traceTxnEnd(const Beat &beat);

    std::vector<Link *> up_;
    Link *down_;
    // A-channel arbitration state: which port holds the bus, and
    // whether a burst is mid-flight (beats must stay contiguous).
    std::size_t grant_ = 0;
    bool burst_locked_ = false;
    Cycle now_ = 0; //!< latched in evaluate() for trace timestamps
    stats::Group stats_;
    stats::LazyScalar a_beats_{stats_, "a_beats"};
    stats::LazyScalar d_beats_{stats_, "d_beats"};
};

} // namespace bus
} // namespace siopmp

#endif // BUS_XBAR_HH
