/**
 * @file
 * Soc assembly implementation.
 */

#include "soc/soc.hh"

#include "sim/logging.hh"

namespace siopmp {
namespace soc {

Soc::Soc(const SocConfig &cfg)
    : cfg_(cfg)
{
    SIOPMP_ASSERT(cfg.num_masters >= 1, "SoC needs at least one master");

    iopmp_ = std::make_unique<iopmp::SIopmp>(
        cfg.iopmp, cfg.checker_kind, cfg.checker_stages);

    // Periphery bus: the sIOPMP register window.
    mmio_.map("siopmp", {kIopmpMmioBase, iopmp::regmap::kWindowSize},
              iopmp_.get());

    mem_link_ = std::make_unique<bus::Link>(sim_);
    for (unsigned i = 0; i < cfg.num_masters; ++i)
        master_links_.push_back(std::make_unique<bus::Link>(sim_));

    if (cfg.centralized_checker) {
        // master -> xbar -> checker -> memory
        checked_links_.push_back(std::make_unique<bus::Link>(sim_));
        error_links_.push_back(std::make_unique<bus::Link>(sim_));

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
            checked_links_.push_back(std::make_unique<bus::Link>(sim_));
            error_links_.push_back(std::make_unique<bus::Link>(sim_));
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
        "memory", mem_link_.get(), &backing_);

    // Tick order: checkers, xbar, memory, error nodes. Devices are
    // added by the caller. Order does not affect results (every fifo
    // is clocked at the one edge after all components evaluate) but
    // keeping it fixed aids debugging.
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
