/**
 * @file
 * Minimal CPU model: services sIOPMP interrupts through the secure
 * monitor. Handler work is applied at the interrupt's arrival cycle,
 * and the monitor-reported CPU cost is modelled as latency by holding
 * the cold SID blocked until the handler would have finished — so a
 * cold device's first DMA stalls for the full cold-switch latency
 * while hot devices keep running (§4.2, Fig 17).
 */

#ifndef SOC_CPU_NODE_HH
#define SOC_CPU_NODE_HH

#include "fw/monitor.hh"
#include "sim/simulator.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace soc {

class CpuNode : public Tickable
{
  public:
    CpuNode(std::string name, fw::SecureMonitor *monitor,
            iopmp::SIopmp *unit, Simulator *sim);

    void evaluate(Cycle now) override;
    bool quiescent(Cycle now) const override;

    Cycle busyUntil() const { return busy_until_; }
    std::uint64_t interruptsServiced() const { return serviced_; }

  private:
    fw::SecureMonitor *monitor_;
    iopmp::SIopmp *unit_;
    Simulator *sim_;
    Cycle busy_until_ = 0;
    std::uint64_t serviced_ = 0;
};

} // namespace soc
} // namespace siopmp

#endif // SOC_CPU_NODE_HH
