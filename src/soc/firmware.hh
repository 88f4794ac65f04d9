/**
 * @file
 * The firmware half of a SoC, wired in one place: the extended IOPMP
 * table in PMP-protected memory, the secure monitor booted over it and
 * the SoC's sIOPMP register window, and the CPU node that services the
 * unit's interrupts through the monitor.
 */

#ifndef SOC_FIRMWARE_HH
#define SOC_FIRMWARE_HH

#include "fw/monitor.hh"
#include "iopmp/mountable.hh"
#include "mem/range.hh"
#include "soc/cpu_node.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace soc {

/** DRAM the monitor's root memory capability covers. */
inline constexpr mem::Range kDram{0x8000'0000, 0x4000'0000};

/** PMP-protected region holding the extended IOPMP table. */
inline constexpr mem::Range kExtTable{0x7000'0000, 0x10000};

class Firmware
{
  public:
    /**
     * Build the extended table in @p soc's memory at kExtTable, one
     * record per cold device of at most @p cfg.cold_window_entries
     * entries (MD62's window); boot a monitor over it with @p cfg
     * (init: the MD partition, the PMP region, the kDram root); and
     * add a CPU node "cpu0" to @p soc.
     */
    explicit Firmware(Soc &soc, fw::MonitorConfig cfg = {})
        : ext_table_(&soc.memory(), kExtTable, cfg.cold_window_entries),
          monitor_(&soc.iopmp(), &soc.mmio(), kIopmpMmioBase, &ext_table_,
                   &soc.monitor(), cfg),
          cpu_("cpu0", &monitor_, &soc.iopmp(), &soc.sim())
    {
        monitor_.init(kDram, kExtTable);
        soc.add(&cpu_);
    }

    Firmware(const Firmware &) = delete;
    Firmware &operator=(const Firmware &) = delete;

    fw::SecureMonitor &monitor() { return monitor_; }
    iopmp::ExtendedTable &extTable() { return ext_table_; }

  private:
    iopmp::ExtendedTable ext_table_;
    fw::SecureMonitor monitor_;
    CpuNode cpu_;
};

} // namespace soc
} // namespace siopmp

#endif // SOC_FIRMWARE_HH
