/**
 * @file
 * NVDLA-like deep-learning accelerator model (Table 2). Executes
 * "layer" jobs: for each output tile it streams a weight tile and an
 * input tile from memory (large sequential read bursts), applies a
 * dummy MAC reduction, and writes the output tile back. The traffic
 * pattern — long read bursts with high outstanding counts punctuated
 * by write bursts — is what a real accelerator presents to the IOPMP.
 */

#ifndef DEVICES_ACCELERATOR_HH
#define DEVICES_ACCELERATOR_HH

#include <deque>
#include <unordered_map>

#include "devices/device.hh"

namespace siopmp {
namespace dev {

struct LayerJob {
    Addr weights = 0;   //!< weight tensor base
    Addr inputs = 0;    //!< activation tensor base
    Addr outputs = 0;   //!< output tensor base
    unsigned tiles = 4; //!< number of output tiles
    unsigned tile_bytes = 1024; //!< per-tensor bytes per tile
    unsigned max_outstanding = 4;
};

class Accelerator : public DmaMaster
{
  public:
    Accelerator(std::string name, DeviceId device, bus::Link *link);

    void start(const LayerJob &job, Cycle now);
    bool done() const { return done_; }
    Cycle completedAt() const { return completed_at_; }

    /** Reduction of everything read (functional check in tests). */
    std::uint64_t accumulator() const { return accumulator_; }
    std::uint64_t tilesCompleted() const { return tiles_done_; }

    void evaluate(Cycle now) override;
    bool quiescent(Cycle now) const override;

  private:
    enum class Phase { ReadWeights, ReadInputs, WriteOutput };

    struct Outstanding {
        bool is_weight = false;
    };

    void issue(Cycle now);
    void collect(Cycle now);
    void startTile();

    LayerJob job_;
    bool done_ = true;
    Cycle completed_at_ = 0;

    unsigned tile_ = 0;
    Phase phase_ = Phase::ReadWeights;
    std::uint64_t read_issued_ = 0;    //!< bytes requested this phase
    std::uint64_t read_received_ = 0;  //!< bytes received this phase
    std::unordered_map<std::uint64_t, Outstanding> outstanding_;

    // Output write stream.
    unsigned write_beat_ = 0;
    std::uint64_t write_issued_ = 0;
    std::uint64_t write_txn_ = 0;
    bool write_burst_open_ = false;
    unsigned write_acks_pending_ = 0;

    std::uint64_t accumulator_ = 0;
    std::uint64_t tiles_done_ = 0;
};

} // namespace dev
} // namespace siopmp

#endif // DEVICES_ACCELERATOR_HH
