/**
 * @file
 * Tenant-churn workload implementation. The control loop runs in the
 * gap between sim.step() calls (firmware/event context), so every
 * monitor call and every RNG draw happens in a deterministic order.
 * The per-port burst-latency hooks each append to their own port's
 * vector, merged in port order after the run.
 */

#include "workloads/churn.hh"

#include <memory>
#include <string>
#include <vector>

#include "devices/dma_engine.hh"
#include "fw/monitor.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "soc/cpu_node.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace wl {

namespace {

constexpr Addr kDramBase = 0x8000'0000;
constexpr Addr kDramSize = 0x4000'0000;
constexpr Addr kExtTableBase = 0x7000'0000;
constexpr Addr kExtTableSize = 0x10000;
constexpr Addr kTenantWindow = 0x10'0000; //!< 1 MiB per device id

constexpr std::uint64_t kBurstBytes =
    static_cast<std::uint64_t>(bus::kBurstBeats) * bus::kBeatBytes;

/** FNV-1a accumulator for the determinism fingerprint. */
struct Fnv {
    std::uint64_t h = 1469598103934665603ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
};

/** One master port: a reusable DMA engine plus the live tenant. */
struct PortState {
    dev::DmaEngine *engine = nullptr;
    std::vector<Cycle> latencies; //!< per-burst, appended in port domain
    std::uint64_t denied = 0;

    bool busy = false;
    fw::OwnerId owner = 0;
    DeviceId device = 0;
    mem::Range window{};
    bool cold = false;
    bool remap = false;
    bool revoke = false;
    bool abort = false;
    bool did_midflight = false; //!< remap/revoke/abort already fired
    unsigned main_entry = 0;
    unsigned scratch_entry = 0;
    bool has_scratch = false;
    std::uint64_t bursts_at_start = 0;
};

} // namespace

ChurnResult
runChurn(const ChurnConfig &cfg)
{
    ChurnResult result;

    soc::SocConfig scfg;
    scfg.num_masters = cfg.ports;
    scfg.iopmp.num_entries = cfg.num_entries;
    scfg.iopmp.num_sids = cfg.num_sids;
    scfg.iopmp.num_mds = cfg.num_mds;
    scfg.checker_kind = iopmp::CheckerKind::PipelineTree;
    scfg.checker_stages = 2;
    soc::Soc soc(scfg);

    iopmp::ExtendedTable ext_table(&soc.memory(),
                                   {kExtTableBase, kExtTableSize}, 8);
    fw::SecureMonitor monitor(&soc.iopmp(), &soc.mmio(),
                              soc::kIopmpMmioBase, &ext_table,
                              &soc.monitor());
    monitor.init({kDramBase, kDramSize}, {kExtTableBase, kExtTableSize});
    soc::CpuNode cpu("cpu0", &monitor, &soc.iopmp(), &soc.sim());
    soc.add(&cpu);

    std::vector<std::unique_ptr<dev::DmaEngine>> engines;
    std::vector<PortState> ports(cfg.ports);
    for (unsigned p = 0; p < cfg.ports; ++p) {
        engines.push_back(std::make_unique<dev::DmaEngine>(
            "churn" + std::to_string(p), /*device=*/0,
            soc.masterLink(p)));
        soc.add(engines.back().get());
        PortState &port = ports[p];
        port.engine = engines.back().get();
        port.engine->setBurstObserver(
            [&port](Cycle latency, bool denied) {
                port.latencies.push_back(latency);
                if (denied)
                    ++port.denied;
            });
    }
    soc.sim().setFastForward(cfg.fast_forward &&
                             Simulator::defaultFastForward());

    auto &sim = soc.sim();
    Rng rng(cfg.seed);

    const auto windowOf = [&](DeviceId device) {
        return mem::Range{kDramBase + device * kTenantWindow,
                          kTenantWindow};
    };

    // Open-loop Poisson arrivals: the schedule depends only on the
    // seed, never on service progress.
    std::uint64_t arrivals = 0;
    Cycle next_arrival = 0;
    std::vector<std::uint64_t> queue_; // pending tenant sequence ids
    std::size_t queue_head = 0;

    const auto activate = [&](PortState &port, std::uint64_t seq,
                              Cycle now) {
        port.device = 1 + static_cast<DeviceId>(seq % cfg.devices);
        port.window = windowOf(port.device);
        port.cold = rng.chance(cfg.cold_fraction);
        port.remap = rng.chance(cfg.remap_fraction);
        port.revoke = rng.chance(cfg.revoke_fraction);
        port.abort = rng.chance(cfg.abort_fraction);
        port.did_midflight = false;
        port.has_scratch = false;

        const fw::CapId root = monitor.registerDevice(port.device);
        const fw::CapId derived =
            monitor.caps().deriveDevice(root, fw::CapRights::Full);
        SIOPMP_ASSERT(derived != fw::kNoCap, "device cap derivation");
        port.owner = monitor.createTee("t" + std::to_string(seq),
                                       port.window, {derived});
        SIOPMP_ASSERT(port.owner != 0, "tenant creation failed");

        if (port.cold) {
            // Cold tenant: rules live in the extended table; the first
            // DMA SID-misses and mounts through the eSID slot.
            iopmp::MountRecord record;
            record.esid = port.device;
            record.md_bitmap = std::uint64_t{1} << (cfg.num_mds - 1);
            record.entries.push_back(iopmp::Entry::range(
                port.window.base, port.window.size / 2,
                Perm::ReadWrite));
            record.entries.push_back(iopmp::Entry::range(
                port.window.base + port.window.size / 2,
                port.window.size / 2, Perm::ReadWrite));
            const bool added = monitor.registerColdDevice(record);
            SIOPMP_ASSERT(added, "cold registration failed");
            port.remap = port.revoke = false; // no mappings to edit
        } else {
            const fw::FwResult mapped =
                monitor.deviceMap(port.owner, port.device, port.window,
                                  Perm::ReadWrite, now);
            SIOPMP_ASSERT(mapped.ok, "tenant deviceMap failed");
            port.main_entry = mapped.entry_index;
            if (port.remap) {
                const fw::FwResult scratch = monitor.deviceMap(
                    port.owner, port.device,
                    {port.window.base, port.window.size / 4},
                    Perm::ReadWrite, now);
                SIOPMP_ASSERT(scratch.ok, "scratch deviceMap failed");
                port.scratch_entry = scratch.entry_index;
                port.has_scratch = true;
            }
        }

        port.engine->setDeviceId(port.device);
        dev::DmaJob job;
        if (port.abort) {
            // Copy jobs exercise the staged-write abort path.
            job.kind = dev::DmaKind::Copy;
            job.src = port.window.base;
            job.dst = port.window.base + port.window.size / 2;
        } else {
            job.kind = dev::DmaKind::Read;
            job.src = port.window.base;
        }
        job.bytes = cfg.bursts_per_tenant * kBurstBytes;
        job.max_outstanding = 2;
        port.bursts_at_start = port.engine->burstsCompleted();
        port.engine->start(job, now);
        port.busy = true;
        ++result.tenants_created;
    };

    // Inject the latency of a firmware op as a real blocking window:
    // the same block-until-handler-retires model CpuNode applies to
    // cold switches, here for map/unmap ops racing in-flight DMA.
    const auto injectBlock = [&](DeviceId device, Cycle now,
                                 Cycle cost) {
        auto sid = monitor.hotSid(device);
        if (!sid || soc.iopmp().blockBitmap().blocked(*sid))
            return;
        soc.iopmp().blockBitmap().block(*sid);
        const Sid blocked_sid = *sid;
        sim.events().schedule(now + cost, [&soc, blocked_sid] {
            soc.iopmp().blockBitmap().unblock(blocked_sid);
        });
    };

    const auto midflight = [&](PortState &port, Cycle now) {
        port.did_midflight = true;
        if (port.abort) {
            port.engine->abort(now);
            return;
        }
        if (port.revoke) {
            // Pull the tenant's main mapping out from under its DMA:
            // the remaining bursts must be denied, not serviced.
            const fw::FwResult unmapped = monitor.deviceUnmap(
                port.owner, port.device, port.main_entry, now);
            SIOPMP_ASSERT(unmapped.ok, "revoke unmap failed");
            injectBlock(port.device, now, unmapped.cost);
            return;
        }
        if (port.remap && port.has_scratch) {
            // Replace the scratch mapping while the main window keeps
            // the traffic legal — races the per-SID block primitive.
            fw::FwResult op = monitor.deviceUnmap(
                port.owner, port.device, port.scratch_entry, now);
            SIOPMP_ASSERT(op.ok, "remap unmap failed");
            Cycle cost = op.cost;
            op = monitor.deviceMap(
                port.owner, port.device,
                {port.window.base + port.window.size / 4,
                 port.window.size / 4},
                Perm::ReadWrite, now);
            SIOPMP_ASSERT(op.ok, "remap map failed");
            port.scratch_entry = op.entry_index;
            cost += op.cost;
            injectBlock(port.device, now, cost);
        }
    };

    const auto retire = [&](PortState &port) {
        const fw::FwResult destroyed = monitor.destroyTee(port.owner);
        SIOPMP_ASSERT(destroyed.ok, "tenant destroy failed");
        // Lifecycle invariants: a destroyed tenant leaves no residue
        // anywhere a DMA check could still find it.
        if (soc.iopmp().cam().peek(port.device))
            ++result.invariant_violations;
        if (soc.iopmp().mountedCold() == port.device)
            ++result.invariant_violations;
        if (ext_table.contains(port.device))
            ++result.invariant_violations;
        port.busy = false;
        ++result.tenants_destroyed;
    };

    while (sim.now() < cfg.horizon) {
        const Cycle now = sim.now();

        while (next_arrival <= now && arrivals < cfg.tenants) {
            queue_.push_back(arrivals++);
            const double gap = rng.exponential(cfg.arrival_mean);
            next_arrival += gap < 1.0 ? 1 : static_cast<Cycle>(gap);
            // Pin the arrival to the event queue: the fast-forward
            // idle skip jumps to the next *event*, and the sequential
            // and sharded engines retire components on slightly
            // different cycles, so without an event near the arrival
            // time the engines would hand control back at different
            // `now` values and the tenant would activate at different
            // times. The pin lands one cycle *before* the arrival:
            // step() processes the pinned cycle and returns with now
            // advanced past it, so the loop observes now ==
            // next_arrival — exactly when the naive per-cycle loop
            // (SIOPMP_NO_FAST_FORWARD=1) first sees the arrival due.
            if (arrivals < cfg.tenants)
                sim.events().schedule(next_arrival - 1, [] {});
        }

        for (PortState &port : ports) {
            if (!port.busy) {
                if (queue_head < queue_.size())
                    activate(port, queue_[queue_head++], now);
                continue;
            }
            const std::uint64_t bursts =
                port.engine->burstsCompleted() - port.bursts_at_start;
            if (!port.did_midflight &&
                (port.abort || port.revoke || port.remap) &&
                bursts * 2 >= cfg.bursts_per_tenant) {
                midflight(port, now);
            }
            if (port.engine->done() &&
                soc.monitor().quiesced(port.device)) {
                retire(port);
                // Re-activate in the same iteration: with the
                // fast-forward idle skip a freed port would otherwise
                // sleep until the next *event* cycle, while the naive
                // loop would hand control back one cycle later — the
                // backlogged tenant must start at the retire cycle in
                // both for bit-identical results.
                if (queue_head < queue_.size())
                    activate(port, queue_[queue_head++], now);
            }
        }

        // Exit before stepping: one more step after the final retire
        // would idle-skip to the next pending event under fast-forward
        // but advance a single cycle under the naive loop, making the
        // reported cycle count scheduler-dependent.
        if (result.tenants_destroyed >= cfg.tenants)
            break;
        sim.step();
    }

    result.cycles = sim.now();
    result.executed_cycles = result.cycles - sim.idleCyclesSkipped();
    for (const PortState &port : ports) {
        result.bursts_completed += port.latencies.size();
        result.denied_bursts += port.denied;
    }
    result.cold_switches = monitor.coldSwitches();
    result.sid_misses = static_cast<std::uint64_t>(
        soc.iopmp().statsGroup().scalar("sid_misses").value());
    result.promotions = static_cast<std::uint64_t>(
        monitor.statsGroup().scalar("promotions").value());
    result.demotions = static_cast<std::uint64_t>(
        monitor.statsGroup().scalar("demotions").value());
    result.cam_evictions = static_cast<std::uint64_t>(
        monitor.statsGroup().scalar("cam_evictions").value());
    result.mounted_cold_flushes = static_cast<std::uint64_t>(
        monitor.statsGroup().scalar("mounted_cold_flushes").value());
    result.block_windows = soc.monitor().blockWindows();

    // The re-arm counter lives in each checker node's private stats
    // group; sum it across the Soc's components.
    struct RearmSummer : stats::StatsVisitor {
        std::uint64_t total = 0;
        void
        visitScalar(const stats::Group &, const std::string &name,
                    const stats::Scalar &s) override
        {
            if (name == "sid_miss_rearms")
                total += static_cast<std::uint64_t>(s.value());
        }
        void visitAverage(const stats::Group &, const std::string &,
                          const stats::Average &) override {}
        void visitDistribution(const stats::Group &, const std::string &,
                               const stats::Distribution &) override {}
        void visitHistogram(const stats::Group &, const std::string &,
                            const stats::Histogram &) override {}
    } rearms;
    soc.accept(rearms);
    result.sid_miss_rearms = rearms.total;

    // Merge the per-port latency series in port order into one
    // distribution.
    stats::Distribution checks;
    for (const PortState &port : ports) {
        for (Cycle latency : port.latencies)
            checks.sample(static_cast<double>(latency));
    }
    if (checks.count() > 0) {
        result.check_p50 = checks.percentile(50.0);
        result.check_p99 = checks.percentile(99.0);
        result.check_mean = checks.mean();
    }
    auto &cold_dist =
        monitor.statsGroup().distribution("cold_switch_cycles");
    if (cold_dist.count() > 0) {
        result.cold_switch_p50 = cold_dist.percentile(50.0);
        result.cold_switch_p99 = cold_dist.percentile(99.0);
    }
    auto &hist = soc.monitor().statsGroup().histogram(
        "block_window_cycles", 0.0, 8.0, 16);
    result.block_window_hist.push_back(hist.underflow());
    for (std::size_t i = 0; i < hist.numBuckets(); ++i)
        result.block_window_hist.push_back(hist.bucketCount(i));
    result.block_window_hist.push_back(hist.overflow());
    result.block_window_mean =
        soc.monitor().statsGroup().average("block_window_mean").mean();

    const double sim_seconds =
        static_cast<double>(result.cycles) / (cfg.cpu_ghz * 1e9);
    result.churn_per_sim_s =
        sim_seconds > 0.0
            ? static_cast<double>(result.tenants_destroyed) / sim_seconds
            : 0.0;

    Fnv fnv;
    fnv.mix(result.tenants_created);
    fnv.mix(result.tenants_destroyed);
    fnv.mix(result.denied_bursts);
    fnv.mix(result.cold_switches);
    fnv.mix(result.sid_misses);
    fnv.mix(result.promotions);
    fnv.mix(result.demotions);
    fnv.mix(result.cam_evictions);
    fnv.mix(result.mounted_cold_flushes);
    fnv.mix(result.block_windows);
    fnv.mix(result.invariant_violations);
    fnv.mix(result.cycles);
    for (const PortState &port : ports) {
        fnv.mix(port.latencies.size());
        for (Cycle latency : port.latencies)
            fnv.mix(latency);
    }
    for (std::uint64_t bucket : result.block_window_hist)
        fnv.mix(bucket);
    result.fingerprint = fnv.h;
    return result;
}

} // namespace wl
} // namespace siopmp
