/**
 * @file
 * churn: the TEE lifecycle of wl::runChurn on its SoC (4 ports, 64
 * devices, 4 SIDs, 32 entries, pipelined tree x2, same arrival mean
 * and fractions), driven from here so every firmware and simulator
 * call can be timed. The tenant schedule is generated from the
 * repetition seed before timing starts and is the program's only
 * input. One op is one completed TEE lifecycle: createTee, deviceMap
 * or cold registration, DMA, a mid-flight remap, revoke or abort,
 * destroyTee.
 */

#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "devices/dma_engine.hh"
#include "fw/monitor.hh"
#include "iopmp/mountable.hh"
#include "sim/random.hh"
#include "soc/cpu_node.hh"
#include "soc/soc.hh"

namespace perfbench {

namespace {

using namespace siopmp;

constexpr unsigned kPorts = 4;
constexpr unsigned kDevices = 64;
constexpr unsigned kTenants = 300; //!< lifecycles per repetition
constexpr double kArrivalMean = 600.0;
constexpr unsigned kBurstsPerTenant = 4;
constexpr double kColdFraction = 0.5;
constexpr double kRemapFraction = 0.35;
constexpr double kRevokeFraction = 0.15;
constexpr double kAbortFraction = 0.15;
constexpr unsigned kNumSids = 4;
constexpr unsigned kNumMds = 4;
constexpr unsigned kNumEntries = 32;
constexpr Cycle kHorizon = 5'000'000; //!< every tenant is gone by then
constexpr unsigned kCountedReps = 48;

constexpr Addr kDramBase = 0x8000'0000;
constexpr Addr kDramSize = 0x4000'0000;
constexpr Addr kExtTableBase = 0x7000'0000;
constexpr Addr kExtTableSize = 0x10000;
constexpr Addr kTenantWindow = 0x10'0000; //!< 1 MiB per device id
constexpr std::uint64_t kBurstBytes =
    static_cast<std::uint64_t>(bus::kBurstBeats) * bus::kBeatBytes;

struct Tenant {
    Cycle arrival = 0;
    DeviceId device = 0;
    bool cold = false;
    bool remap = false;
    bool revoke = false;
    bool abort = false;
};

/** Open-loop Poisson arrivals and per-tenant choices, as runChurn
 * draws them. */
std::vector<Tenant>
makeSchedule(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Tenant> schedule(kTenants);
    Cycle next = 0;
    for (unsigned i = 0; i < kTenants; ++i) {
        Tenant &t = schedule[i];
        t.arrival = next;
        const double gap = rng.exponential(kArrivalMean);
        next += gap < 1.0 ? 1 : static_cast<Cycle>(gap);
        t.device = 1 + static_cast<DeviceId>(i % kDevices);
        t.cold = rng.chance(kColdFraction);
        t.remap = rng.chance(kRemapFraction);
        t.revoke = rng.chance(kRevokeFraction);
        t.abort = rng.chance(kAbortFraction);
        if (t.cold)
            t.remap = t.revoke = false; // no mappings to edit
    }
    return schedule;
}

mem::Range
windowOf(DeviceId device)
{
    return {kDramBase + device * kTenantWindow, kTenantWindow};
}

/** One master port: a reusable DMA engine plus its live tenant. */
struct Port {
    dev::DmaEngine *engine = nullptr;
    std::vector<Cycle> latencies;
    std::uint64_t denied = 0;

    bool busy = false;
    bool failed = false; //!< a firmware op of this tenant failed
    const Tenant *tenant = nullptr;
    fw::OwnerId owner = 0;
    bool did_midflight = false;
    bool revoked = false; //!< its main mapping was pulled mid-flight
    unsigned main_entry = 0;
    unsigned scratch_entry = 0;
    bool has_scratch = false;
    std::uint64_t bursts_at_start = 0;
    Cycle revoke_at = 0;
    std::uint64_t wrong_verdicts = 0; //!< of the live tenant's bursts
};

/** The churn SoC and its firmware, torn down in reverse order (the
 * CpuNode must go before the Simulator). */
struct System {
    std::unique_ptr<soc::Soc> soc;
    std::unique_ptr<iopmp::ExtendedTable> ext_table;
    std::unique_ptr<fw::SecureMonitor> monitor;
    std::unique_ptr<soc::CpuNode> cpu;
    std::vector<std::unique_ptr<dev::DmaEngine>> engines;
};

class Churn : public Workload
{
  public:
    unsigned countedReps() const override { return kCountedReps; }
    RepResult rep(std::uint64_t seed, bool counted, Spans &spans) override;
    double
    simCheckP99Cycles() const override
    {
        return totals_.simCheckP99Cycles();
    }
    double
    simBytesPerCycle() const override
    {
        return totals_.simBytesPerCycle();
    }
    void layerCounts(Values &out) const override;

  private:
    // Totals over the counted repetitions.
    SocTotals totals_;
    double tenants_ = 0, cold_switches_ = 0, cam_evictions_ = 0;
    std::vector<double> cold_switch_p99_;
    double block_windows_ = 0, block_window_sum_ = 0, block_window_n_ = 0;
};

RepResult
Churn::rep(std::uint64_t seed, bool counted, Spans &spans)
{
    RepResult result;
    const std::int64_t t_setup = nowNs();

    const std::vector<Tenant> schedule = makeSchedule(seed);

    soc::SocConfig scfg;
    scfg.num_masters = kPorts;
    scfg.iopmp.num_entries = kNumEntries;
    scfg.iopmp.num_sids = kNumSids;
    scfg.iopmp.num_mds = kNumMds;
    scfg.checker_kind = iopmp::CheckerKind::PipelineTree;
    scfg.checker_stages = 2;

    System sys;
    {
        Scope span(spans, SpanName::SocBuild);
        sys.soc = std::make_unique<soc::Soc>(scfg);
    }
    soc::Soc &soc = *sys.soc;
    sys.ext_table = std::make_unique<iopmp::ExtendedTable>(
        &soc.memory(), mem::Range{kExtTableBase, kExtTableSize}, 8);
    sys.monitor = std::make_unique<fw::SecureMonitor>(
        &soc.iopmp(), &soc.mmio(), soc::kIopmpMmioBase,
        sys.ext_table.get(), &soc.monitor());
    fw::SecureMonitor &monitor = *sys.monitor;
    monitor.init({kDramBase, kDramSize}, {kExtTableBase, kExtTableSize});
    sys.cpu = std::make_unique<soc::CpuNode>("cpu0", &monitor, &soc.iopmp(),
                                             &soc.sim());
    soc.add(sys.cpu.get());

    Simulator &sim = soc.sim();
    std::vector<Port> ports(kPorts);
    for (unsigned p = 0; p < kPorts; ++p) {
        sys.engines.push_back(std::make_unique<dev::DmaEngine>(
            "churn" + std::to_string(p), /*device=*/0, soc.masterLink(p)));
        soc.add(sys.engines.back().get());
        Port &port = ports[p];
        port.engine = sys.engines.back().get();
        port.engine->setBurstObserver([&port, &sim](Cycle latency,
                                                    bool denied) {
            port.latencies.push_back(latency);
            if (denied)
                ++port.denied;
            // A burst issued after a revoke pulled the tenant's only
            // mapping must be denied. Any other burst must be serviced,
            // except one the revoke caught in flight: it may go either
            // way.
            const bool unmapped = port.revoked && !port.has_scratch;
            if (denied && !unmapped)
                ++port.wrong_verdicts;
            if (!denied && unmapped && sim.now() - latency >= port.revoke_at)
                ++port.wrong_verdicts;
        });
    }

    const std::int64_t t_run = nowNs();
    result.setup_s = static_cast<double>(t_run - t_setup) * 1e-9;

    std::uint64_t destroyed = 0;
    std::uint64_t failed_tenants = 0;
    double active_sum = 0, steps = 0;

    // A failed firmware op fails the tenant's lifecycle.
    const auto fail = [&](Port &port, const std::string &why) {
        port.failed = true;
        if (result.failure.empty())
            result.failure = why + " for device " +
                             std::to_string(port.tenant->device);
    };

    const auto activate = [&](Port &port, const Tenant &t, Cycle now) {
        port.tenant = &t;
        port.failed = false;
        port.did_midflight = false;
        port.revoked = false;
        port.has_scratch = false;
        const mem::Range window = windowOf(t.device);
        std::string name = "t";
        name += std::to_string(t.device);
        {
            Scope span(spans, SpanName::FwCreateTee);
            const fw::CapId root = monitor.registerDevice(t.device);
            const fw::CapId derived =
                monitor.caps().deriveDevice(root, fw::CapRights::Full);
            port.owner = derived == fw::kNoCap
                             ? 0
                             : monitor.createTee(name, window, {derived});
        }
        bool ok = port.owner != 0;
        if (ok && t.cold) {
            // Rules live in the extended table; the first DMA
            // SID-misses and mounts through the eSID slot.
            iopmp::MountRecord record;
            record.esid = t.device;
            record.md_bitmap = std::uint64_t{1} << (kNumMds - 1);
            record.entries.push_back(iopmp::Entry::range(
                window.base, window.size / 2, Perm::ReadWrite));
            record.entries.push_back(iopmp::Entry::range(
                window.base + window.size / 2, window.size / 2,
                Perm::ReadWrite));
            Scope span(spans, SpanName::FwMap);
            ok = monitor.registerColdDevice(record);
        } else if (ok) {
            Scope span(spans, SpanName::FwMap);
            const fw::FwResult mapped = monitor.deviceMap(
                port.owner, t.device, window, Perm::ReadWrite, now);
            ok = mapped.ok;
            port.main_entry = mapped.entry_index;
            if (ok && t.remap) {
                const fw::FwResult scratch = monitor.deviceMap(
                    port.owner, t.device, {window.base, window.size / 4},
                    Perm::ReadWrite, now);
                ok = scratch.ok;
                port.scratch_entry = scratch.entry_index;
                port.has_scratch = scratch.ok;
            }
        }
        if (!ok)
            fail(port, "tenant set-up failed");

        dev::DmaJob job;
        if (t.abort) {
            // Copy jobs exercise the staged-write abort path.
            job.kind = dev::DmaKind::Copy;
            job.src = window.base;
            job.dst = window.base + window.size / 2;
        } else {
            job.kind = dev::DmaKind::Read;
            job.src = window.base;
        }
        job.bytes = kBurstsPerTenant * kBurstBytes;
        job.max_outstanding = 2;
        port.bursts_at_start = port.engine->burstsCompleted();
        port.wrong_verdicts = 0;
        {
            Scope span(spans, SpanName::DevicesStart);
            port.engine->setDeviceId(t.device);
            port.engine->start(job, now);
        }
        port.busy = true;
    };

    // A firmware op's latency becomes a real blocking window, as
    // CpuNode models cold switches: map/unmap races in-flight DMA.
    const auto injectBlock = [&](DeviceId device, Cycle now, Cycle cost) {
        const auto sid = monitor.hotSid(device);
        if (!sid || soc.iopmp().blockBitmap().blocked(*sid))
            return;
        soc.iopmp().blockBitmap().block(*sid);
        const Sid blocked = *sid;
        sim.events().schedule(now + cost, [&soc, blocked] {
            soc.iopmp().blockBitmap().unblock(blocked);
        });
    };

    const auto midflight = [&](Port &port, Cycle now) {
        const Tenant &t = *port.tenant;
        port.did_midflight = true;
        if (t.abort) {
            port.engine->abort(now);
            return;
        }
        const mem::Range window = windowOf(t.device);
        if (t.revoke) {
            // The remaining bursts must be denied, not serviced.
            fw::FwResult op;
            {
                Scope span(spans, SpanName::FwUnmap);
                op = monitor.deviceUnmap(port.owner, t.device,
                                         port.main_entry, now);
            }
            if (op.ok) {
                injectBlock(t.device, now, op.cost);
                port.revoked = true;
                port.revoke_at = now;
            } else {
                fail(port, "revoke unmap failed");
            }
            return;
        }
        if (t.remap && port.has_scratch) {
            // Replace the scratch mapping while the main window keeps
            // the traffic legal.
            fw::FwResult unmapped, mapped;
            {
                Scope span(spans, SpanName::FwUnmap);
                unmapped = monitor.deviceUnmap(port.owner, t.device,
                                               port.scratch_entry, now);
            }
            {
                Scope span(spans, SpanName::FwMap);
                mapped = monitor.deviceMap(
                    port.owner, t.device,
                    {window.base + window.size / 4, window.size / 4},
                    Perm::ReadWrite, now);
            }
            port.scratch_entry = mapped.entry_index;
            if (unmapped.ok && mapped.ok)
                injectBlock(t.device, now, unmapped.cost + mapped.cost);
            else
                fail(port, "remap failed");
        }
    };

    const auto retire = [&](Port &port) {
        const DeviceId device = port.tenant->device;
        fw::FwResult destroyed_op;
        {
            Scope span(spans, SpanName::FwDestroyTee);
            destroyed_op = monitor.destroyTee(port.owner);
        }
        // runChurn's post-destroy invariants: a destroyed tenant
        // leaves no residue a DMA check could still find.
        const bool residue = !destroyed_op.ok ||
                             soc.iopmp().cam().peek(device) ||
                             soc.iopmp().mountedCold() == device ||
                             sys.ext_table->contains(device);
        if (residue)
            fail(port, "residue after destroy");
        if (port.wrong_verdicts > 0)
            fail(port, "DMA verdict disagrees with the tenant's mappings");
        if (port.failed)
            ++failed_tenants;
        port.busy = false;
        ++destroyed;
    };

    unsigned arrived = 0;
    unsigned activated = 0;
    while (sim.now() < kHorizon) {
        const Cycle now = sim.now();
        while (arrived < kTenants && schedule[arrived].arrival <= now) {
            ++arrived;
            // Pin the next arrival to the event queue so the idle skip
            // hands control back exactly when it is due (runChurn).
            if (arrived < kTenants)
                sim.events().schedule(schedule[arrived].arrival - 1, [] {});
        }
        for (Port &port : ports) {
            if (!port.busy) {
                if (activated < arrived)
                    activate(port, schedule[activated++], now);
                continue;
            }
            const Tenant &t = *port.tenant;
            const std::uint64_t bursts =
                port.engine->burstsCompleted() - port.bursts_at_start;
            if (!port.did_midflight && (t.abort || t.revoke || t.remap) &&
                bursts * 2 >= kBurstsPerTenant)
                midflight(port, now);
            if (port.engine->done() && soc.monitor().quiesced(t.device)) {
                retire(port);
                if (activated < arrived)
                    activate(port, schedule[activated++], now);
            }
        }
        if (destroyed >= kTenants)
            break;
        if (counted) {
            active_sum += static_cast<double>(sim.activeComponents());
            ++steps;
        }
        if (spans.on())
            spans.stretch(SpanName::SimStep);
        sim.step();
    }
    result.run_s = static_cast<double>(nowNs() - t_run) * 1e-9;

    // Output checks: every tenant destroyed before the horizon, none
    // leaving residue. A failed check fails that tenant's op.
    result.ops = kTenants;
    result.failed = (kTenants - destroyed) + failed_tenants;
    if (destroyed < kTenants && result.failure.empty())
        result.failure = std::to_string(kTenants - destroyed) +
                         " tenants not destroyed by the horizon";
    result.executed_cycles = sim.now() - sim.idleCyclesSkipped();

    std::uint64_t denied = 0, bytes = 0;
    Fnv fnv;
    for (const Port &port : ports) {
        denied += port.denied;
        // Bytes of the bursts that completed without a deny.
        bytes += (port.latencies.size() - port.denied) * kBurstBytes;
        fnv.mix(port.latencies.size());
        for (Cycle latency : port.latencies)
            fnv.mix(latency);
    }
    fnv.mix(destroyed);
    fnv.mix(failed_tenants);
    fnv.mix(denied);
    fnv.mix(bytes);
    fnv.mix(monitor.coldSwitches());
    fnv.mix(sim.now());
    result.fingerprint = fnv.h;

    if (counted) {
        StatTotals soc_stats;
        soc.accept(soc_stats);
        StatTotals fw_stats;
        monitor.statsGroup().accept(fw_stats);
        StatTotals dev_stats;
        for (const auto &engine : sys.engines)
            engine->statsGroup().accept(dev_stats);
        StatTotals all_stats; // CheckAccel groups register themselves
        stats::Registry::global().accept(all_stats);

        for (const Port &port : ports) {
            for (Cycle latency : port.latencies)
                totals_.latencies.push_back(static_cast<double>(latency));
        }
        totals_.bytes += static_cast<double>(bytes);
        totals_.cycles += static_cast<double>(sim.now());
        totals_.run_cycles += static_cast<double>(sim.now());
        totals_.skipped += static_cast<double>(sim.idleCyclesSkipped());
        totals_.active_sum += active_sum;
        totals_.active_n += steps;
        totals_.denied += static_cast<double>(denied);
        totals_.addStats(soc_stats, all_stats, dev_stats);
        tenants_ += kTenants;
        cold_switches_ += static_cast<double>(monitor.coldSwitches());
        cam_evictions_ += fw_stats.scalar("cam_evictions");
        cold_switch_p99_.push_back(fw_stats.p99("cold_switch_cycles"));
        block_windows_ += soc_stats.scalar("block_windows");
        block_window_sum_ += soc_stats.averageSum("block_window_mean");
        block_window_n_ += soc_stats.averageCount("block_window_mean");
    }
    return result;
}

void
Churn::layerCounts(Values &out) const
{
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    totals_.report(out);
    std::vector<double> cold_p99 = cold_switch_p99_;
    out["fw.cold_switches_per_tee"] = ratio(cold_switches_, tenants_);
    out["fw.cam_evictions_per_tee"] = ratio(cam_evictions_, tenants_);
    out["fw.cold_switch_p99_cycles"] = percentile(cold_p99, 50.0);
    out["bus.block_windows_per_tee"] = ratio(block_windows_, tenants_);
    out["bus.block_window_mean_cycles"] =
        ratio(block_window_sum_, block_window_n_);
}

} // namespace

std::unique_ptr<Workload>
makeChurn()
{
    return std::make_unique<Churn>();
}

} // namespace perfbench
