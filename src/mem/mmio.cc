/**
 * @file
 * MmioBus implementation.
 */

#include "mem/mmio.hh"

namespace siopmp {
namespace mem {

bool
MmioBus::map(const std::string &name, Range window, MmioDevice *device)
{
    if (window.size == 0 || device == nullptr)
        return false;
    for (const auto &mapping : mappings_) {
        if (mapping.window.overlaps(window))
            return false;
    }
    mappings_.push_back(Mapping{name, window, device});
    return true;
}

const MmioBus::Mapping *
MmioBus::find(Addr addr) const
{
    for (const auto &mapping : mappings_) {
        if (mapping.window.contains(addr))
            return &mapping;
    }
    return nullptr;
}

MmioResult
MmioBus::read(Addr addr)
{
    const Mapping *mapping = find(addr);
    if (!mapping)
        return {};
    total_cycles_ += kAccessCost;
    return {true, mapping->device->mmioRead(addr - mapping->window.base),
            kAccessCost};
}

MmioResult
MmioBus::write(Addr addr, std::uint64_t value)
{
    const Mapping *mapping = find(addr);
    if (!mapping)
        return {};
    total_cycles_ += kAccessCost;
    mapping->device->mmioWrite(addr - mapping->window.base, value);
    return {true, 0, kAccessCost};
}

} // namespace mem
} // namespace siopmp
