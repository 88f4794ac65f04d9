/**
 * @file
 * Fleet-scale tenant-churn benchmark: drives the churn workload
 * (src/workloads/churn.hh) across a tenants x devices x churn-rate
 * grid and emits a schema-checked BENCH_churn.json series. Each point
 * reports the churn rate actually sustained (TEE create/destroy
 * cycles per simulated second), p50/p99 per-burst check latency,
 * cold-switch latency percentiles, the blocking-window histogram, and
 * the cycles the simulator actually ticked (executed_cycles: the rest
 * were idle cycles fast-forward skipped).
 *
 * Usage: churn_fleet [out.json]   (default BENCH_churn.json)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads/churn.hh"

using namespace siopmp;

namespace {

struct Point {
    unsigned tenants;
    unsigned devices;
    double arrival_mean;
    double cold_fraction;
    wl::ChurnResult r;
};

void
emitPoint(std::FILE *f, const Point &p, bool last)
{
    std::fprintf(f,
                 "    {\"tenants\": %u, \"devices\": %u, "
                 "\"arrival_mean\": %.1f, \"cold_fraction\": %.2f,\n"
                 "     \"cycles\": %llu, \"executed_cycles\": %llu, "
                 "\"churn_per_sim_s\": %.1f,\n"
                 "     \"check_p50\": %.1f, \"check_p99\": %.1f, "
                 "\"check_mean\": %.2f,\n"
                 "     \"cold_switch_p50\": %.1f, "
                 "\"cold_switch_p99\": %.1f,\n"
                 "     \"block_windows\": %llu, "
                 "\"block_window_mean\": %.2f,\n"
                 "     \"sid_misses\": %llu, \"sid_miss_rearms\": %llu, "
                 "\"cold_switches\": %llu,\n"
                 "     \"promotions\": %llu, \"demotions\": %llu, "
                 "\"cam_evictions\": %llu,\n"
                 "     \"mounted_cold_flushes\": %llu, "
                 "\"invariant_violations\": %llu,\n"
                 "     \"fingerprint\": \"%016llx\",\n"
                 "     \"block_window_hist\": [",
                 p.tenants, p.devices, p.arrival_mean, p.cold_fraction,
                 static_cast<unsigned long long>(p.r.cycles),
                 static_cast<unsigned long long>(p.r.executed_cycles),
                 p.r.churn_per_sim_s, p.r.check_p50, p.r.check_p99,
                 p.r.check_mean, p.r.cold_switch_p50,
                 p.r.cold_switch_p99,
                 static_cast<unsigned long long>(p.r.block_windows),
                 p.r.block_window_mean,
                 static_cast<unsigned long long>(p.r.sid_misses),
                 static_cast<unsigned long long>(p.r.sid_miss_rearms),
                 static_cast<unsigned long long>(p.r.cold_switches),
                 static_cast<unsigned long long>(p.r.promotions),
                 static_cast<unsigned long long>(p.r.demotions),
                 static_cast<unsigned long long>(p.r.cam_evictions),
                 static_cast<unsigned long long>(
                     p.r.mounted_cold_flushes),
                 static_cast<unsigned long long>(
                     p.r.invariant_violations),
                 static_cast<unsigned long long>(p.r.fingerprint));
    for (std::size_t i = 0; i < p.r.block_window_hist.size(); ++i)
        std::fprintf(f, "%s%llu", i ? ", " : "",
                     static_cast<unsigned long long>(
                         p.r.block_window_hist[i]));
    std::fprintf(f, "]}%s\n", last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out = argc > 1 ? argv[1] : "BENCH_churn.json";

    // tenants x devices x churn rate. The first point is the headline
    // configuration: >= 1000 TEE lifecycles per simulated second over
    // a device population 16x (CAM rows + eSID slot).
    struct Cell {
        unsigned tenants;
        unsigned devices;
        double arrival_mean;
        double cold_fraction;
    };
    const Cell grid[] = {
        {400, 64, 600.0, 0.5},  // headline: ROADMAP churn-rate gate
        {200, 16, 600.0, 0.5},  // minimum 4x(CAM+1) population
        {200, 64, 150.0, 0.5},  // 4x the arrival rate: saturated ports
        {400, 256, 600.0, 0.5}, // population beyond the ext table bound
        {200, 64, 4.0, 0.0},    // all-hot backlog: CAM eviction churn
    };

    std::vector<Point> points;
    for (const Cell &cell : grid) {
        wl::ChurnConfig cfg;
        cfg.tenants = cell.tenants;
        cfg.devices = cell.devices;
        cfg.arrival_mean = cell.arrival_mean;
        cfg.cold_fraction = cell.cold_fraction;
        std::printf("churn_fleet: tenants=%u devices=%u arrival=%.0f "
                    "...\n",
                    cell.tenants, cell.devices, cell.arrival_mean);
        Point p{cell.tenants, cell.devices, cell.arrival_mean,
                cell.cold_fraction, wl::runChurn(cfg)};
        std::printf("  %.0f TEE/s, check p50=%.0f p99=%.0f, "
                    "%llu misses, %llu evictions, fp=%016llx\n",
                    p.r.churn_per_sim_s, p.r.check_p50, p.r.check_p99,
                    static_cast<unsigned long long>(p.r.sid_misses),
                    static_cast<unsigned long long>(p.r.cam_evictions),
                    static_cast<unsigned long long>(p.r.fingerprint));
        if (p.r.tenants_destroyed != cell.tenants) {
            std::fprintf(stderr,
                         "churn_fleet: FAILED — only %llu/%u tenants "
                         "completed\n",
                         static_cast<unsigned long long>(
                             p.r.tenants_destroyed),
                         cell.tenants);
            return 1;
        }
        if (p.r.invariant_violations != 0) {
            std::fprintf(stderr,
                         "churn_fleet: FAILED — %llu lifecycle "
                         "invariant violations\n",
                         static_cast<unsigned long long>(
                             p.r.invariant_violations));
            return 1;
        }
        points.push_back(std::move(p));
    }

    // Acceptance gates on the headline point.
    if (points[0].r.churn_per_sim_s < 1000.0) {
        std::fprintf(stderr,
                     "churn_fleet: FAILED — churn rate %.0f/s below "
                     "the 1000/s gate\n",
                     points[0].r.churn_per_sim_s);
        return 1;
    }

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "churn_fleet: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"churn_fleet\",\n"
                    "  \"ports\": 4,\n"
                    "  \"series\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i)
        emitPoint(f, points[i], i + 1 == points.size());
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("churn_fleet: wrote %s (%zu points)\n", out.c_str(),
                points.size());
    return 0;
}
