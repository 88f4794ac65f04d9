/**
 * @file
 * Soc assembly implementation.
 */

#include "soc/soc.hh"

#include "sim/logging.hh"

namespace siopmp {
namespace soc {

namespace {

bool
isPipelined(iopmp::CheckerKind kind)
{
    return kind == iopmp::CheckerKind::PipelineLinear ||
           kind == iopmp::CheckerKind::PipelineTree;
}

/** Reject checker knob combinations the hardware could not build. */
void
validateCheckerConfig(const CheckerConfig &checker)
{
    if (checker.stages < 1)
        fatal("invalid checker config: stages must be >= 1 (got %u)",
              checker.stages);
    if (checker.stages > 1 && !isPipelined(checker.kind))
        fatal("invalid checker config: %u pipeline stages requires a "
              "pipelined checker kind (PipelineLinear or PipelineTree)",
              checker.stages);
}

} // namespace

Soc::Soc(const SocConfig &cfg)
    : cfg_(cfg), mmio_(cfg.mmio_access_cost)
{
    SIOPMP_ASSERT(cfg.num_masters >= 1, "SoC needs at least one master");
    validateCheckerConfig(cfg.checkerConfig());

    iopmp_ = std::make_unique<iopmp::SIopmp>(
        cfg.iopmp, cfg.checker_kind, cfg.checker_stages);
    // Apply the acceleration-mode override before the checker nodes
    // are built: their eager syncLogic copies the unit's mode into
    // every node's checker.
    if (cfg.accel)
        iopmp_->setAccelMode(*cfg.accel);

    // Periphery bus: the sIOPMP register window.
    mmio_.map("siopmp", {kIopmpMmioBase, iopmp::regmap::kWindowSize},
              iopmp_.get());

    // Default memory map: 1 GiB of DRAM, an MMIO hole, and a protected
    // region for the extended IOPMP table.
    memmap_.add({"dram", {0x8000'0000, 0x4000'0000}, mem::RegionKind::Dram});
    memmap_.add({"iopmp-mmio", {kIopmpMmioBase, iopmp::regmap::kWindowSize},
                 mem::RegionKind::Mmio});
    memmap_.add({"ext-iopmp-table", {0x7000'0000, 0x10'0000},
                 mem::RegionKind::Protected});

    mem_link_ = std::make_unique<bus::Link>();
    for (unsigned i = 0; i < cfg.num_masters; ++i)
        master_links_.push_back(std::make_unique<bus::Link>());

    if (cfg.centralized_checker) {
        // master -> xbar -> checker -> memory
        checked_links_.push_back(std::make_unique<bus::Link>());
        error_links_.push_back(std::make_unique<bus::Link>());

        std::vector<bus::Link *> uplinks;
        for (auto &link : master_links_)
            uplinks.push_back(link.get());
        xbar_ = std::make_unique<bus::Xbar>("xbar", uplinks,
                                            checked_links_[0].get());
        checkers_.push_back(std::make_unique<iopmp::CheckerNode>(
            "checker", checked_links_[0].get(), mem_link_.get(),
            error_links_[0].get(), iopmp_.get(), &monitor_, cfg.policy));
        error_nodes_.push_back(std::make_unique<bus::ErrorNode>(
            "errnode", error_links_[0].get()));
    } else {
        // master -> checker -> xbar -> memory
        std::vector<bus::Link *> uplinks;
        for (unsigned i = 0; i < cfg.num_masters; ++i) {
            checked_links_.push_back(std::make_unique<bus::Link>());
            error_links_.push_back(std::make_unique<bus::Link>());
            checkers_.push_back(std::make_unique<iopmp::CheckerNode>(
                "checker" + std::to_string(i), master_links_[i].get(),
                checked_links_[i].get(), error_links_[i].get(),
                iopmp_.get(), &monitor_, cfg.policy));
            error_nodes_.push_back(std::make_unique<bus::ErrorNode>(
                "errnode" + std::to_string(i), error_links_[i].get()));
            uplinks.push_back(checked_links_[i].get());
        }
        xbar_ = std::make_unique<bus::Xbar>("xbar", uplinks,
                                            mem_link_.get());
    }

    mem_node_ = std::make_unique<mem::MemoryNode>(
        "memory", mem_link_.get(), &backing_, cfg.mem_timing);

    // Tick order: checkers, xbar, memory, error nodes. Devices are
    // added by the caller. Order does not affect results (two-phase
    // fifo discipline) but keeping it fixed aids debugging.
    for (auto &checker : checkers_)
        sim_.add(checker.get());
    sim_.add(xbar_.get());
    sim_.add(mem_node_.get());
    for (auto &node : error_nodes_)
        sim_.add(node.get());
}

bus::Link *
Soc::masterLink(unsigned i)
{
    SIOPMP_ASSERT(i < master_links_.size(), "master port out of range");
    return master_links_[i].get();
}

void
Soc::reconfigure(const CheckerConfig &checker)
{
    validateCheckerConfig(checker);
    iopmp_->setChecker(checker.kind, checker.stages);
    for (auto &node : checkers_)
        node->setPolicy(checker.policy);
    cfg_.checker_kind = checker.kind;
    cfg_.checker_stages = checker.stages;
    cfg_.policy = checker.policy;
}

void
Soc::accept(stats::StatsVisitor &visitor)
{
    iopmp_->statsGroup().accept(visitor);
    for (auto &checker : checkers_)
        checker->statsGroup().accept(visitor);
    xbar_->statsGroup().accept(visitor);
    mem_node_->statsGroup().accept(visitor);
    monitor_.statsGroup().accept(visitor);
}

} // namespace soc
} // namespace siopmp
