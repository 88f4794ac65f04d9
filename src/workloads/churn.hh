/**
 * @file
 * Fleet-scale tenant-churn workload: a long-running multi-tenant host
 * where TEEs are created and destroyed at cloud rates through the full
 * SecureMonitor lifecycle (createTee → deviceMap → DMA traffic →
 * deviceUnmap → destroyTee), over a device population far exceeding
 * CAM + eSID capacity. Tenant arrivals are open-loop Poisson (the
 * memcached-style load model); mount/unmount/revoke operations are
 * issued *against in-flight DMA* so the per-SID blocking primitive is
 * genuinely raced, and cold switching, SID-miss interrupt storms and
 * implicit hot promotion fire continuously.
 *
 * This is the "millions of users" proof point from the ROADMAP: the
 * mechanisms (extended table, eSID slot, CAM promotion, blocking
 * windows) all exist — this workload exercises their *lifecycles* hard
 * enough to trust them, and is the harness that keeps the mount/
 * eviction/destroy bugfixes fixed.
 *
 * Reported metrics: p50/p99 per-burst check latency (includes
 * cold-mount stalls — the interesting tail), cold-switch latency
 * percentiles, blocking-window histogram, churn rate in TEE
 * create/destroy cycles per simulated second. The run is deterministic
 * per seed (the result carries an FNV-1a fingerprint over every
 * deterministic observable to prove it).
 */

#ifndef WORKLOADS_CHURN_HH
#define WORKLOADS_CHURN_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace siopmp {
namespace wl {

struct ChurnConfig {
    unsigned ports = 4;    //!< DMA engines (concurrent live tenants)
    unsigned devices = 64; //!< device-id population (≥ 4x CAM+eSID)
    unsigned tenants = 400; //!< TEE lifecycles to complete
    double arrival_mean = 600.0; //!< Poisson inter-arrival, cycles
    unsigned bursts_per_tenant = 4; //!< DMA bursts per tenant job
    double cold_fraction = 0.5;  //!< tenants registered as cold devices
    double remap_fraction = 0.35; //!< mapped tenants remapping mid-DMA
    double revoke_fraction = 0.15; //!< tenants losing their mapping mid-DMA
    double abort_fraction = 0.15; //!< tenants whose job is aborted
    //! Small sIOPMP: 3 CAM rows + the cold SID. Four live tenants
    //! contending for three rows keeps eviction/promotion churn
    //! continuous; the 64-device population is 16x (CAM + eSID).
    unsigned num_sids = 4;
    unsigned num_mds = 4;
    unsigned num_entries = 32;
    std::uint64_t seed = 1;
    //! Run on the naive per-cycle loop instead of the quiescence
    //! fast-forward scheduler. Results are bit-identical either way
    //! (the arrival pinning + same-iteration re-activation in the
    //! control loop exist to keep it so); the knob is the regression
    //! hook that proves it.
    bool fast_forward = true;
    Cycle horizon = 30'000'000; //!< safety stop
    double cpu_ghz = 1.0; //!< cycles-to-seconds for the churn rate
};

struct ChurnResult {
    std::uint64_t tenants_created = 0;
    std::uint64_t tenants_destroyed = 0;
    std::uint64_t bursts_completed = 0;
    std::uint64_t denied_bursts = 0;
    std::uint64_t cold_switches = 0;
    std::uint64_t sid_misses = 0;
    std::uint64_t sid_miss_rearms = 0; //!< checker re-arms (livelock fix)
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t cam_evictions = 0;
    std::uint64_t mounted_cold_flushes = 0;
    std::uint64_t block_windows = 0;
    std::uint64_t invariant_violations = 0; //!< post-destroy residue
    Cycle cycles = 0;
    //! Cycles the simulator actually ticked: cycles minus the idle
    //! cycles fast-forward skipped (equals cycles on the naive loop).
    //! A host-cost measure, so it stays out of the fingerprint.
    Cycle executed_cycles = 0;
    double churn_per_sim_s = 0.0; //!< destroys per simulated second

    double check_p50 = 0.0;  //!< per-burst latency percentiles
    double check_p99 = 0.0;
    double check_mean = 0.0;
    double cold_switch_p50 = 0.0;
    double cold_switch_p99 = 0.0;
    double block_window_mean = 0.0;
    //! Blocking-window histogram: underflow, 16 buckets of 8 cycles
    //! starting at 0, overflow (the BusMonitor shape).
    std::vector<std::uint64_t> block_window_hist;

    //! FNV-1a over every deterministic observable (counters, per-port
    //! latency series, histogram, final cycle): equal fingerprints ⇔
    //! bit-identical runs.
    std::uint64_t fingerprint = 0;
};

ChurnResult runChurn(const ChurnConfig &cfg);

} // namespace wl
} // namespace siopmp

#endif // WORKLOADS_CHURN_HH
