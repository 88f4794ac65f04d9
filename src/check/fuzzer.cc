/**
 * @file
 * DifferentialFuzzer implementation: op generation, DUT-vs-oracle
 * lockstep execution, ddmin minimization, trace emission.
 */

#include "check/fuzzer.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/trace.hh"

namespace siopmp {
namespace check {

namespace {

using oracle_regmap::kBlockBase;
using oracle_regmap::kCamBase;
using oracle_regmap::kEntryBase;
using oracle_regmap::kEntryStride;
using oracle_regmap::kErrAddr;
using oracle_regmap::kErrDevice;
using oracle_regmap::kErrInfo;
using oracle_regmap::kEsid;
using oracle_regmap::kMdCfgBase;
using oracle_regmap::kSrc2MdBase;
using oracle_regmap::kWriteRejects;

inline constexpr std::uint64_t kBit63 = std::uint64_t{1} << 63;

/** Verdict names for divergence reports and trace labels. Both
 * iopmp::AuthStatus and ReferenceOracle::Status declare the same
 * order, so a single table serves both (string literals: the tracer
 * borrows them). */
const char *
statusName(unsigned status)
{
    switch (status) {
      case 0: return "allow";
      case 1: return "deny";
      case 2: return "blocked";
      case 3: return "sid_miss";
    }
    return "?";
}

const char *
fuzzPermName(Perm perm)
{
    switch (static_cast<unsigned>(perm) & 0x3) {
      case 0: return "none";
      case 1: return "r";
      case 2: return "w";
      default: return "rw";
    }
}

/** Addresses DMA checks and entry bases are drawn from: a handful of
 * shared hot spots (so entries and bursts actually collide) plus the
 * extremes that historically broke interval arithmetic. */
Addr
pickBase(Rng &rng)
{
    static constexpr Addr kPool[] = {
        0x0,
        0x1000,
        0x2000,
        0x8000,
        0x100000,
        std::uint64_t{1} << 32,
        std::uint64_t{1} << 63,
        ~std::uint64_t{0} - 0xfff, // 2^64 - 0x1000: region ends at 2^64
    };
    Addr base = kPool[rng.below(sizeof(kPool) / sizeof(kPool[0]))];
    if (rng.chance(0.4))
        base += rng.below(0x2000) & ~Addr{7};
    return base;
}

Addr
pickSize(Rng &rng)
{
    static constexpr Addr kPool[] = {
        0, // stages an invalid Range; commits to Off
        1,
        8,
        0x40,
        0x1000,
        0x2000,
        std::uint64_t{1} << 32,
        std::uint64_t{1} << 63,
        ~std::uint64_t{0}, // near-whole address space
    };
    if (rng.chance(0.25))
        return std::uint64_t{1} << rng.below(64); // NAPOT-friendly
    return kPool[rng.below(sizeof(kPool) / sizeof(kPool[0]))];
}

/** Small device-id pool so CAM bindings, eSID mounts and checks keep
 * hitting the same devices; occasionally something unbindable-looking. */
DeviceId
pickDevice(Rng &rng)
{
    if (rng.chance(0.1))
        return rng.below(std::uint64_t{1} << 20);
    return 1 + rng.below(10);
}

FuzzOp
writeOp(Addr offset, std::uint64_t value)
{
    FuzzOp op;
    op.kind = FuzzOp::Kind::Write;
    op.offset = offset;
    op.value = value;
    return op;
}

FuzzOp
readOp(Addr offset)
{
    FuzzOp op;
    op.kind = FuzzOp::Kind::Read;
    op.offset = offset;
    return op;
}

/** Entry CFG word: perm 1:0, mode 3:2 (Off/Range/NAPOT/TOR), lock 7. */
std::uint64_t
pickEntryCfg(Rng &rng)
{
    return rng.below(4) | (rng.below(4) << 2) |
           (rng.chance(0.15) ? 0x80 : 0x0);
}

/**
 * Cumulative op-mix thresholds (out of 100) for one FuzzProfile; a
 * draw r lands in the first bucket whose threshold exceeds it, and
 * everything past `read` is a DMA check.
 */
struct OpMix {
    unsigned entry;  //!< entry programming (usually a 3-write triple)
    unsigned src2md; //!< SRC2MD row rewrite
    unsigned mdcfg;  //!< MDCFG top move
    unsigned cam;    //!< CAM bind/invalidate
    unsigned esid;   //!< eSID mount/unmount
    unsigned block;  //!< block-bitmap word
    unsigned ack;    //!< violation ack / reject-counter clear
    unsigned read;   //!< register read-back compare
};

constexpr OpMix kDefaultMix = {40, 54, 62, 71, 75, 81, 84, 91};

/** Churn: verdict-relevant mutations (entry commits, MDCFG top moves)
 * dominate, interleaved with ~25% checks, so every check runs against
 * freshly moved tables. */
constexpr OpMix kChurnMix = {35, 43, 58, 64, 66, 68, 70, 75};

/** Decode a register offset for replayable trace printouts. Uses only
 * the fixed region layout, so no sizing context is needed. */
std::string
decodeOffset(Addr offset)
{
    char buf[48];
    if (offset < kMdCfgBase) {
        std::snprintf(buf, sizeof(buf), "src2md[%llu]",
                      static_cast<unsigned long long>(offset / 8));
    } else if (offset < kBlockBase) {
        std::snprintf(buf, sizeof(buf), "mdcfg[%llu]",
                      static_cast<unsigned long long>(
                          (offset - kMdCfgBase) / 8));
    } else if (offset < kEsid) {
        std::snprintf(buf, sizeof(buf), "block[%llu]",
                      static_cast<unsigned long long>(
                          (offset - kBlockBase) / 8));
    } else if (offset == kEsid) {
        return "esid";
    } else if (offset == kErrAddr) {
        return "err_addr";
    } else if (offset == kErrDevice) {
        return "err_device";
    } else if (offset == kErrInfo) {
        return "err_info";
    } else if (offset == kWriteRejects) {
        return "write_rejects";
    } else if (offset >= kCamBase && offset < kEntryBase) {
        std::snprintf(buf, sizeof(buf), "cam[%llu]",
                      static_cast<unsigned long long>(
                          (offset - kCamBase) / 8));
    } else if (offset >= kEntryBase) {
        static const char *words[] = {"base", "size", "cfg", "pad"};
        const std::uint64_t idx = (offset - kEntryBase) / kEntryStride;
        const std::uint64_t word = ((offset - kEntryBase) % kEntryStride) / 8;
        std::snprintf(buf, sizeof(buf), "entry[%llu].%s",
                      static_cast<unsigned long long>(idx),
                      words[word & 3]);
    } else {
        std::snprintf(buf, sizeof(buf), "reserved@%#llx",
                      static_cast<unsigned long long>(offset));
    }
    return buf;
}

} // namespace

std::string
FuzzOp::toString() const
{
    char buf[192];
    switch (kind) {
      case Kind::Check:
        std::snprintf(buf, sizeof(buf),
                      "check dev=%llu addr=%#llx len=%#llx perm=%s",
                      static_cast<unsigned long long>(device),
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned long long>(len),
                      fuzzPermName(perm));
        break;
      case Kind::Write:
        std::snprintf(buf, sizeof(buf), "write %s (off=%#llx) <= %#llx",
                      decodeOffset(offset).c_str(),
                      static_cast<unsigned long long>(offset),
                      static_cast<unsigned long long>(value));
        break;
      case Kind::Read:
        std::snprintf(buf, sizeof(buf), "read %s (off=%#llx)",
                      decodeOffset(offset).c_str(),
                      static_cast<unsigned long long>(offset));
        break;
    }
    return buf;
}

DifferentialFuzzer::DifferentialFuzzer(FuzzCaseConfig cfg, std::uint64_t seed)
    : cfg_(cfg), seed_(seed), stats_("fuzz")
{
}

std::vector<FuzzOp>
DifferentialFuzzer::generateCase(unsigned case_index) const
{
    // Per-case reseed (splitmix-style stride) makes every case a pure
    // function of (base seed, case index) regardless of run order.
    Rng rng(seed_ + 0x9e3779b97f4a7c15ULL * (case_index + 1));

    const unsigned block_words = (cfg_.num_sids + 63) / 64;
    const OpMix &mix =
        cfg_.profile == FuzzProfile::Churn ? kChurnMix : kDefaultMix;
    std::vector<FuzzOp> ops;
    ops.reserve(cfg_.ops_per_case + 2);

    while (ops.size() < cfg_.ops_per_case) {
        const std::uint64_t r = rng.below(100);
        if (r < mix.entry) {
            // Entry programming. Usually the full base/size/cfg triple
            // so commits see fresh staging; sometimes a lone word so
            // stale/zero staging and overwrites get exercised too.
            const unsigned idx = static_cast<unsigned>(
                rng.below(cfg_.num_entries));
            const Addr ebase = kEntryBase + Addr{idx} * kEntryStride;
            if (rng.chance(0.65)) {
                ops.push_back(writeOp(ebase + 0, pickBase(rng)));
                ops.push_back(writeOp(ebase + 8, pickSize(rng)));
                ops.push_back(writeOp(ebase + 16, pickEntryCfg(rng)));
            } else {
                const unsigned word = static_cast<unsigned>(rng.below(3));
                const std::uint64_t value = word == 0 ? pickBase(rng)
                                            : word == 1
                                                ? pickSize(rng)
                                                : pickEntryCfg(rng);
                ops.push_back(writeOp(ebase + word * 8, value));
            }
        } else if (r < mix.src2md) {
            // SRC2MD row: mostly valid MD bitmaps, sometimes garbage
            // high bits (rejected; must also skip the lock).
            const std::uint64_t sid = rng.below(cfg_.num_sids);
            const std::uint64_t mask =
                cfg_.num_mds >= 63
                    ? kBit63 - 1
                    : (std::uint64_t{1} << cfg_.num_mds) - 1;
            std::uint64_t bitmap = rng.next() & mask;
            if (rng.chance(0.1))
                bitmap = rng.next(); // likely invalid -> reject path
            if (rng.chance(0.08))
                bitmap |= kBit63; // sticky lock
            ops.push_back(writeOp(kSrc2MdBase + sid * 8, bitmap));
        } else if (r < mix.mdcfg) {
            // MDCFG top. Mostly in range; sometimes beyond the entry
            // count or with high bits (32-bit truncation semantics).
            const std::uint64_t md = rng.below(cfg_.num_mds);
            std::uint64_t top = rng.below(cfg_.num_entries + 1);
            if (rng.chance(0.15))
                top = rng.below(cfg_.num_entries * 2 + 2);
            if (rng.chance(0.1))
                top |= rng.next() << 32;
            ops.push_back(writeOp(kMdCfgBase + md * 8, top));
        } else if (r < mix.cam) {
            // CAM bind/invalidate.
            const std::uint64_t row = rng.below(cfg_.num_sids - 1);
            const std::uint64_t value =
                rng.chance(0.85) ? (kBit63 | pickDevice(rng)) : 0;
            ops.push_back(writeOp(kCamBase + row * 8, value));
        } else if (r < mix.esid) {
            // eSID mount/unmount.
            const std::uint64_t value =
                rng.chance(0.75) ? (kBit63 | pickDevice(rng)) : 0;
            ops.push_back(writeOp(kEsid, value));
        } else if (r < mix.block) {
            // Block bitmap word: single bits, random masks, clears.
            const std::uint64_t word = rng.below(block_words);
            std::uint64_t value = std::uint64_t{1} << rng.below(64);
            if (rng.chance(0.3))
                value = rng.next();
            else if (rng.chance(0.2))
                value = 0;
            ops.push_back(writeOp(kBlockBase + word * 8, value));
        } else if (r < mix.ack) {
            // Violation acknowledge / reject-counter clear.
            ops.push_back(writeOp(rng.chance(0.5) ? kErrInfo
                                                  : kWriteRejects,
                                  0));
        } else if (r < mix.read) {
            // Register read-back compare.
            Addr offset = 0;
            switch (rng.below(8)) {
              case 0:
                offset = kSrc2MdBase + rng.below(cfg_.num_sids) * 8;
                break;
              case 1:
                offset = kMdCfgBase + rng.below(cfg_.num_mds) * 8;
                break;
              case 2:
                offset = kBlockBase + rng.below(block_words) * 8;
                break;
              case 3:
                offset = kCamBase + rng.below(cfg_.num_sids - 1) * 8;
                break;
              case 4:
                offset = kEntryBase +
                         rng.below(cfg_.num_entries) * kEntryStride +
                         rng.below(3) * 8;
                break;
              case 5:
                offset = kEsid;
                break;
              case 6:
                offset = rng.chance(0.5)
                             ? kErrAddr
                             : (rng.chance(0.5) ? kErrDevice : kErrInfo);
                break;
              default:
                offset = kWriteRejects;
                break;
            }
            ops.push_back(readOp(offset));
        } else {
            // DMA check.
            FuzzOp op;
            op.kind = FuzzOp::Kind::Check;
            op.device = pickDevice(rng);
            op.addr = pickBase(rng);
            op.perm = static_cast<Perm>(rng.below(4));
            static constexpr Addr kLens[] = {1, 4, 8, 0x40, 0x1000};
            op.len = kLens[rng.below(sizeof(kLens) / sizeof(kLens[0]))];
            if (rng.chance(0.05))
                op.len = 0; // must deny with no deciding entry
            else if (rng.chance(0.05))
                op.len = ~Addr{0} - op.addr + 1; // burst ending at 2^64
            ops.push_back(op);
        }
    }
    return ops;
}

namespace {

std::string
checkDetail(const FuzzOp &op, const iopmp::AuthResult &dut,
            const ReferenceOracle::Verdict &oracle)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%s: dut={%s sid=%d entry=%d} oracle={%s sid=%d entry=%d}",
        op.toString().c_str(),
        statusName(static_cast<unsigned>(dut.status)),
        dut.sid == kNoSid ? -1 : static_cast<int>(dut.sid), dut.entry,
        statusName(static_cast<unsigned>(oracle.status)),
        oracle.sid == kNoSid ? -1 : static_cast<int>(oracle.sid),
        oracle.entry);
    return buf;
}

std::string
readDetail(const FuzzOp &op, std::uint64_t dut, std::uint64_t oracle)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s: dut=%#llx oracle=%#llx",
                  op.toString().c_str(),
                  static_cast<unsigned long long>(dut),
                  static_cast<unsigned long long>(oracle));
    return buf;
}

} // namespace

std::optional<Divergence>
DifferentialFuzzer::replay(const std::vector<FuzzOp> &ops, bool emit_trace)
{
    // Rejected programming warns by design; a fuzzer provokes it on
    // purpose thousands of times, so silence the chatter here.
    const bool was_quiet = Logger::quiet();
    Logger::setQuiet(true);

    if (hook_reset_)
        hook_reset_(); // stateful injectors start over with the DUT

    iopmp::IopmpConfig icfg;
    icfg.num_entries = cfg_.num_entries;
    icfg.num_sids = cfg_.num_sids;
    icfg.num_mds = cfg_.num_mds;
    iopmp::SIopmp dut(icfg, cfg_.kind, cfg_.stages);
    ReferenceOracle oracle(cfg_.num_entries, cfg_.num_sids, cfg_.num_mds);

    std::optional<Divergence> divergence;
    for (std::size_t i = 0; i < ops.size() && !divergence; ++i) {
        const FuzzOp &op = ops[i];
        switch (op.kind) {
          case FuzzOp::Kind::Write: {
            // Destroy-class residue oracle, graduated from the
            // tenant-churn workload's post-destroy invariants: any
            // write that unbinds a device — a CAM row invalidate or
            // overwrite, an eSID unmount or replacement — must leave
            // the evicted device unreachable through the lookup
            // structures a DMA check consults. CAM and eSID writes
            // are never lock-rejected, so the eviction computed here
            // always happens in a correct DUT.
            std::optional<DeviceId> cam_evicted, esid_evicted;
            const Addr cam_end = kCamBase + dut.cam().numRows() * 8;
            if (op.offset >= kCamBase && op.offset < cam_end &&
                (op.offset - kCamBase) % 8 == 0) {
                const Sid row =
                    static_cast<Sid>((op.offset - kCamBase) / 8);
                const std::optional<DeviceId> prior =
                    dut.cam().deviceAt(row);
                const std::optional<DeviceId> next =
                    (op.value & kBit63)
                        ? std::optional<DeviceId>(op.value & ~kBit63)
                        : std::nullopt;
                if (prior && prior != next)
                    cam_evicted = prior;
            } else if (op.offset == kEsid) {
                const std::optional<DeviceId> prior = dut.mountedCold();
                const std::optional<DeviceId> next =
                    (op.value & kBit63)
                        ? std::optional<DeviceId>(op.value & ~kBit63)
                        : std::nullopt;
                if (prior && prior != next)
                    esid_evicted = prior;
            }
            if (!hook_ || !hook_(dut, op))
                dut.mmioWrite(op.offset, op.value);
            oracle.writeReg(op.offset, op.value);
            if (cam_evicted && dut.cam().peek(*cam_evicted)) {
                divergence = Divergence{
                    i, op.toString() +
                           ": residue audit: evicted device " +
                           std::to_string(*cam_evicted) +
                           " still reachable through the CAM"};
            } else if (esid_evicted &&
                       dut.mountedCold() == esid_evicted) {
                divergence = Divergence{
                    i, op.toString() +
                           ": residue audit: unmounted device " +
                           std::to_string(*esid_evicted) +
                           " still in the eSID slot"};
            }
            if (emit_trace && trace::on()) {
                trace::Event event;
                event.when = i;
                event.phase = trace::Phase::Instant;
                event.track = "fuzz";
                event.category = "fuzz";
                event.name = "mmio_write";
                event.addr = op.offset;
                event.arg0 = op.value;
                trace::emit(event);
            }
            break;
          }
          case FuzzOp::Kind::Read: {
            const std::uint64_t got = dut.mmioRead(op.offset);
            const std::uint64_t want = oracle.readReg(op.offset);
            if (emit_trace && trace::on()) {
                trace::Event event;
                event.when = i;
                event.phase = trace::Phase::Instant;
                event.track = "fuzz";
                event.category = "fuzz";
                event.name = "mmio_read";
                event.addr = op.offset;
                event.arg0 = got;
                event.arg1 = want;
                trace::emit(event);
            }
            if (got != want)
                divergence = Divergence{i, readDetail(op, got, want)};
            break;
          }
          case FuzzOp::Kind::Check: {
            const iopmp::AuthResult got = dut.authorize(
                op.device, op.addr, op.len, op.perm,
                static_cast<Cycle>(i));
            const ReferenceOracle::Verdict want =
                oracle.authorize(op.device, op.addr, op.len, op.perm);
            const bool same =
                static_cast<unsigned>(got.status) ==
                    static_cast<unsigned>(want.status) &&
                got.sid == want.sid && got.entry == want.entry;
            if (emit_trace && trace::on()) {
                trace::Event begin;
                begin.when = i;
                begin.phase = trace::Phase::SpanBegin;
                begin.track = "fuzz";
                begin.category = "fuzz";
                begin.name = "check";
                begin.id = i + 1;
                begin.device = op.device;
                begin.addr = op.addr;
                begin.arg0 = op.len;
                begin.arg1 = static_cast<std::uint64_t>(op.perm);
                trace::emit(begin);
                trace::Event end = begin;
                end.phase = trace::Phase::SpanEnd;
                end.label = statusName(static_cast<unsigned>(got.status));
                end.arg0 = static_cast<std::uint64_t>(got.entry);
                end.arg1 = static_cast<std::uint64_t>(want.entry);
                trace::emit(end);
                if (!same) {
                    trace::Event bad = begin;
                    bad.phase = trace::Phase::Instant;
                    bad.name = "divergence";
                    bad.label =
                        statusName(static_cast<unsigned>(want.status));
                    trace::emit(bad);
                }
            }
            if (!same)
                divergence = Divergence{i, checkDetail(op, got, want)};
            break;
          }
        }
    }

    Logger::setQuiet(was_quiet);
    return divergence;
}

std::vector<FuzzOp>
DifferentialFuzzer::minimize(std::vector<FuzzOp> ops)
{
    if (!replay(ops))
        return ops; // not a diverging trace; nothing to reduce

    // ddmin-style: try dropping chunks, halving the chunk size, and at
    // granularity one iterate to a fixpoint.
    std::size_t chunk = std::max<std::size_t>(1, ops.size() / 2);
    while (true) {
        bool removed = false;
        std::size_t i = 0;
        while (i < ops.size()) {
            std::vector<FuzzOp> candidate;
            candidate.reserve(ops.size());
            candidate.insert(candidate.end(), ops.begin(),
                             ops.begin() + i);
            candidate.insert(candidate.end(),
                             ops.begin() +
                                 std::min(i + chunk, ops.size()),
                             ops.end());
            ++stats_.scalar("minimize_replays");
            if (candidate.size() < ops.size() && replay(candidate)) {
                ops = std::move(candidate);
                removed = true; // same i now names the next chunk
            } else {
                i += chunk;
            }
        }
        if (chunk > 1)
            chunk = (chunk + 1) / 2;
        else if (!removed)
            break;
    }
    return ops;
}

FuzzReport
DifferentialFuzzer::run(unsigned num_cases)
{
    FuzzReport report;
    report.seed = seed_;
    for (unsigned c = 0; c < num_cases; ++c) {
        std::vector<FuzzOp> ops = generateCase(c);
        const std::optional<Divergence> divergence = replay(ops);

        ++report.cases_run;
        report.ops_run += ops.size();
        std::uint64_t checks = 0;
        for (const FuzzOp &op : ops) {
            if (op.kind == FuzzOp::Kind::Check)
                ++checks;
        }
        report.checks_run += checks;
        ++stats_.scalar("cases");
        stats_.scalar("ops") += static_cast<double>(ops.size());
        stats_.scalar("checks") += static_cast<double>(checks);

        if (divergence) {
            ++stats_.scalar("divergences");
            report.diverged = true;
            report.case_index = c;
            report.detail = divergence->detail;
            report.trace = minimize(std::move(ops));
            // Replay the reduced trace once more with tracing so an
            // installed sink captures the divergent transaction, and
            // refresh the detail against the minimized sequence.
            if (const auto final_div = replay(report.trace, true))
                report.detail = final_div->detail;
            return report;
        }
    }
    return report;
}

FaultInjection
makeLockBypassInjection()
{
    // The hook owns the DUT's entry staging (the real staging is
    // private), commits through the unit's own decode, and re-creates
    // the original bug at the final step: EntryTable::set is called
    // with machine-mode privilege, so entry locks are silently
    // overridden.
    using Stage = std::pair<std::uint64_t, std::uint64_t>; // base, size
    auto staging =
        std::make_shared<std::unordered_map<unsigned, Stage>>();

    FaultInjection injection;
    injection.reset = [staging] { staging->clear(); };
    injection.hook = [staging](iopmp::SIopmp &dut, const FuzzOp &op) {
        using namespace iopmp::regmap;
        const unsigned num_entries = dut.config().num_entries;
        if (op.offset < kEntryBase ||
            op.offset >= kEntryBase + Addr{num_entries} * kEntryStride)
            return false; // not an entry register: normal DUT write
        const unsigned idx = static_cast<unsigned>(
            (op.offset - kEntryBase) / kEntryStride);
        const unsigned word = static_cast<unsigned>(
            (op.offset - kEntryBase) % kEntryStride) / 8;
        switch (word) {
          case 0:
            (*staging)[idx].first = op.value;
            break;
          case 1:
            (*staging)[idx].second = op.value;
            break;
          case 2: {
            const Stage stage = (*staging)[idx];
            const iopmp::EntryCommit commit = iopmp::decodeEntryCommit(
                dut.entryTable(), idx, stage.first, stage.second,
                op.value);
            // The bug under test: privileged write from the MMIO path.
            if (dut.entryTable().set(idx, commit.entry,
                                     /*machine_mode=*/true)) {
                if (commit.lock)
                    dut.entryTable().lock(idx);
            }
            staging->erase(idx);
            break;
          }
          default:
            break; // reserved word: dropped, as the DUT does
        }
        return true; // handled; skip the real MMIO write
    };
    return injection;
}

FaultInjection
makeBlockHoleInjection()
{
    FaultInjection injection;
    injection.hook = [](iopmp::SIopmp &dut, const FuzzOp &op) {
        using namespace iopmp::regmap;
        const unsigned words = dut.blockBitmap().numWords();
        // Words past the first fall into the void, as when the block
        // bitmap was a single 64-bit register.
        return op.offset >= kBlockBitmap + 8 &&
               op.offset < kBlockBitmap + Addr{words} * 8;
    };
    return injection;
}

FaultInjection
makeUnbindDropInjection()
{
    FaultInjection injection;
    injection.hook = [](iopmp::SIopmp &dut, const FuzzOp &op) {
        // Destroy-class writes fall into the void: the CAM row keeps
        // its binding, the eSID slot keeps its mount. The residue
        // oracle must flag the evicted device at the very op that
        // should have unbound it.
        const Addr cam_end = kCamBase + Addr{dut.cam().numRows()} * 8;
        const bool cam_invalidate = op.offset >= kCamBase &&
                                    op.offset < cam_end &&
                                    (op.value & kBit63) == 0;
        const bool esid_unmount =
            op.offset == kEsid && (op.value & kBit63) == 0;
        return cam_invalidate || esid_unmount;
    };
    return injection;
}

} // namespace check
} // namespace siopmp
