/**
 * @file
 * SoC assembly: builds the full simulated system of Fig 6 — DMA
 * master ports, per-device (or centralized) sIOPMP checker nodes with
 * their error nodes, the front-bus crossbar, the memory controller,
 * the periphery MMIO bus with the sIOPMP register window, and the
 * block-state bus monitor.
 *
 * The two supported topologies mirror Table 2's "Location" knob:
 *
 *  per-device:   master -> checker -> xbar -> memory
 *  centralized:  master -> xbar -> checker -> memory
 *
 * Either way every checker node is a port onto the one sIOPMP unit.
 */

#ifndef SOC_SOC_HH
#define SOC_SOC_HH

#include <memory>
#include <vector>

#include "bus/error_node.hh"
#include "bus/link.hh"
#include "bus/monitor.hh"
#include "bus/xbar.hh"
#include "iopmp/checker_node.hh"
#include "iopmp/siopmp.hh"
#include "mem/memory.hh"
#include "mem/mmio.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace siopmp {
namespace soc {

/** MMIO base of the sIOPMP register window on the periphery bus. */
inline constexpr Addr kIopmpMmioBase = 0x1000'0000;

/**
 * What to build. The checker knobs (kind, stages, policy) are fixed for
 * the life of the Soc; the sIOPMP unit rejects a kind and stage count
 * the hardware could not build (iopmp::CheckerGeometry::validate).
 */
struct SocConfig {
    unsigned num_masters = 1;
    iopmp::IopmpConfig iopmp;
    iopmp::CheckerKind checker_kind = iopmp::CheckerKind::PipelineTree;
    unsigned checker_stages = 1;
    iopmp::ViolationPolicy policy = iopmp::ViolationPolicy::BusError;
    bool centralized_checker = false;
};

class Soc
{
  public:
    explicit Soc(const SocConfig &cfg);

    Simulator &sim() { return sim_; }
    mem::Backing &memory() { return backing_; }
    iopmp::SIopmp &iopmp() { return *iopmp_; }
    bus::BusMonitor &monitor() { return monitor_; }
    mem::MmioBus &mmio() { return mmio_; }
    const SocConfig &config() const { return cfg_; }

    /** Link a device plugs into for master port @p i. */
    bus::Link *masterLink(unsigned i);

    /** Checker node @p i: one per master port, or the single node of
     * the centralized topology. */
    iopmp::CheckerNode &checkerNode(unsigned i) { return *checkers_.at(i); }

    /** Register a device (or any component) with the simulator. */
    void add(Tickable *component) { sim_.add(component); }

    /**
     * Visit the statistics groups of every component this Soc owns
     * (sIOPMP unit, checker nodes, xbar, memory controller, bus
     * monitor), in a stable order. Devices register their own groups
     * with stats::Registry::global().
     */
    void accept(stats::StatsVisitor &visitor);

  private:
    SocConfig cfg_;
    Simulator sim_;
    mem::Backing backing_;
    mem::MmioBus mmio_;
    bus::BusMonitor monitor_;

    std::unique_ptr<iopmp::SIopmp> iopmp_;

    // Links (stable addresses: unique_ptrs).
    std::vector<std::unique_ptr<bus::Link>> master_links_;
    std::vector<std::unique_ptr<bus::Link>> checked_links_;
    std::vector<std::unique_ptr<bus::Link>> error_links_;
    std::unique_ptr<bus::Link> mem_link_;

    std::vector<std::unique_ptr<iopmp::CheckerNode>> checkers_;
    std::vector<std::unique_ptr<bus::ErrorNode>> error_nodes_;
    std::unique_ptr<bus::Xbar> xbar_;
    std::unique_ptr<mem::MemoryNode> mem_node_;
};

} // namespace soc
} // namespace siopmp

#endif // SOC_SOC_HH
