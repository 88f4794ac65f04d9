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
 */

#ifndef SOC_SOC_HH
#define SOC_SOC_HH

#include <memory>
#include <optional>
#include <vector>

#include "bus/error_node.hh"
#include "bus/link.hh"
#include "bus/monitor.hh"
#include "bus/xbar.hh"
#include "iopmp/checker_node.hh"
#include "iopmp/siopmp.hh"
#include "mem/memmap.hh"
#include "mem/memory.hh"
#include "mem/mmio.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace siopmp {
namespace soc {

/** MMIO base of the sIOPMP register window on the periphery bus. */
inline constexpr Addr kIopmpMmioBase = 0x1000'0000;

/**
 * Topology-driven tick-domain plan (parallel engine, sim/domain.hh):
 *
 *  - domain 0 (control): CPU node, firmware-driven components and
 *    anything added through the generic add() — the conservative
 *    default for components whose sharing pattern is unknown;
 *  - domain 1 (fabric): xbar, memory controller, and under the
 *    centralized topology the checker + error node (they sit behind
 *    the xbar and share its traffic stream);
 *  - domains 2+i (master slice i): per-device checker i, its error
 *    node, and the device plugged into master port i (addDevice) —
 *    the device talks to its checker through the master link every
 *    cycle, so splitting them would buy nothing and cost a fifo
 *    boundary; the slice <-> fabric crossing is a registered link
 *    already, which is exactly the 1-cycle epoch boundary.
 */
inline constexpr unsigned kControlDomain = 0;
inline constexpr unsigned kFabricDomain = 1;

/** Tick domain of master-port slice @p i (device + its checker). */
inline constexpr unsigned
masterDomain(unsigned i)
{
    return 2 + i;
}

/**
 * Runtime-swappable checker configuration: microarchitecture, pipeline
 * depth and violation policy as one unit, validated together by
 * Soc::reconfigure (e.g. multi-stage pipelines require a pipelined
 * checker kind — combinations the old setChecker/setPolicy pair
 * silently accepted).
 */
struct CheckerConfig {
    iopmp::CheckerKind kind = iopmp::CheckerKind::PipelineTree;
    unsigned stages = 1;
    iopmp::ViolationPolicy policy = iopmp::ViolationPolicy::BusError;
};

struct SocConfig {
    unsigned num_masters = 1;
    iopmp::IopmpConfig iopmp;
    iopmp::CheckerKind checker_kind = iopmp::CheckerKind::PipelineTree;
    unsigned checker_stages = 1;
    iopmp::ViolationPolicy policy = iopmp::ViolationPolicy::BusError;
    mem::MemoryTiming mem_timing;
    bool centralized_checker = false;
    Cycle mmio_access_cost = 2;
    //! Register latency of every master-slice <-> fabric link (the
    //! checked links under the per-device topology, the master links
    //! under the centralized one). 1 models a combinational boundary
    //! (today's behaviour); L >= 2 inserts L-1 extra register stages
    //! per crossing *and* raises the parallel engine's epoch cap to L
    //! (see sim/domain.hh) — N <= L cycles run back-to-back per
    //! barrier pair. A timing model change: results differ from
    //! boundary_latency=1 runs but stay bit-identical between the
    //! sequential and parallel engines at the same value.
    Cycle boundary_latency = 1;
    //! Worker threads for the sharded parallel engine (0 = sequential
    //! loop; see Simulator::setThreads and sim/domain.hh).
    unsigned sim_threads = 0;
    //! Requested epoch length for the parallel engine (0 = derive
    //! from the topology, i.e. up to boundary_latency). Clamped by
    //! the derived cap, so any value is safe; only meaningful with
    //! sim_threads > 0. See Simulator::setEpoch.
    Cycle sim_epoch = 0;
    //! Check-path acceleration mode for the sIOPMP unit (and, via
    //! CheckerNode::syncLogic, every per-node replica). nullopt keeps
    //! the process default (CheckAccel::defaultMode()).
    std::optional<iopmp::AccelMode> accel;

    /** The checker knobs as a validatable unit. */
    CheckerConfig
    checkerConfig() const
    {
        return {checker_kind, checker_stages, policy};
    }
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
    mem::MemMap &memmap() { return memmap_; }
    const SocConfig &config() const { return cfg_; }

    /** Link a device plugs into for master port @p i. */
    bus::Link *masterLink(unsigned i);

    /** Checker node @p i: one per master port, or the single node of
     * the centralized topology. */
    iopmp::CheckerNode &checkerNode(unsigned i) { return *checkers_.at(i); }

    /** Register a device (or any component) with the simulator. Lands
     * in the control domain; prefer addDevice() for DMA masters. */
    void add(Tickable *component) { sim_.add(component); }

    /**
     * Register the device plugged into master port @p port and assign
     * it to that port's tick domain (same slice as its checker under
     * the per-device topology), so the device/checker handshake stays
     * thread-local under setThreads().
     */
    void
    addDevice(Tickable *device, unsigned port)
    {
        sim_.add(device);
        sim_.setDomain(device, masterDomain(port));
        // Complete the master link's endpoint attribution (the Soc
        // pre-attributed its own side at build time): the epoch-cap
        // derivation treats a partially-attributed channel as a
        // 1-cycle boundary, so a port without a device keeps the
        // conservative cap.
        bus::Link *link = masterLink(port);
        link->a.setProducer(device);
        link->d.setConsumer(device);
    }

    /** Enable the sharded parallel engine (see Simulator::setThreads). */
    void setThreads(unsigned n) { sim_.setThreads(n); }

    /**
     * Swap the checker configuration between experiments, validating
     * the combination (fatal() on an invalid one, e.g. stages > 1 with
     * a non-pipelined kind). Replaces setChecker() + setPolicy().
     */
    void reconfigure(const CheckerConfig &checker);

    [[deprecated("use reconfigure(CheckerConfig) — it validates the "
                 "kind/stages/policy combination")]]
    void setChecker(iopmp::CheckerKind kind, unsigned stages);
    [[deprecated("use reconfigure(CheckerConfig) — it validates the "
                 "kind/stages/policy combination")]]
    void setPolicy(iopmp::ViolationPolicy policy);

    /**
     * Visit the statistics groups of every component this Soc owns
     * (sIOPMP unit, checker nodes, xbar, memory controller, bus
     * monitor), in a stable order. Devices register their own groups
     * with stats::Registry::global().
     */
    void accept(stats::StatsVisitor &visitor);

    [[deprecated("use accept() with a stats::TextStatsWriter, or "
                 "stats::Registry::global(); see docs/OBSERVABILITY.md")]]
    void dumpStats(std::ostream &os);

  private:
    SocConfig cfg_;
    Simulator sim_;
    mem::Backing backing_;
    mem::MemMap memmap_;
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
