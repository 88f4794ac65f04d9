/**
 * @file
 * Register-window proxy for tests: mapped on the periphery bus in
 * place of a device, it forwards every access to the device and keeps
 * every write, in order, so a test can check the order in which
 * firmware programs the device's registers.
 */

#ifndef TESTS_SUPPORT_RECORDING_MMIO_HH
#define TESTS_SUPPORT_RECORDING_MMIO_HH

#include <cstdint>
#include <vector>

#include "mem/mmio.hh"

namespace siopmp {
namespace mem {

class RecordingMmio : public MmioDevice
{
  public:
    struct Write {
        Addr offset;
        std::uint64_t value;
    };

    explicit RecordingMmio(MmioDevice &device) : device_(device) {}

    std::uint64_t mmioRead(Addr offset) override
    {
        return device_.mmioRead(offset);
    }

    void
    mmioWrite(Addr offset, std::uint64_t value) override
    {
        writes_.push_back({offset, value});
        device_.mmioWrite(offset, value);
    }

    /** Every write forwarded since the last clear(), oldest first. */
    const std::vector<Write> &writes() const { return writes_; }

    void clear() { writes_.clear(); }

  private:
    MmioDevice &device_;
    std::vector<Write> writes_;
};

} // namespace mem
} // namespace siopmp

#endif // TESTS_SUPPORT_RECORDING_MMIO_HH
