/**
 * @file
 * The service interface: FSI slave and the FSI-to-I2C register path.
 *
 * Every IBM POWER system has a Field Service Processor talking to
 * slave devices over the Field Service Interface (paper §3.2). On a
 * CDIMM the FSP reads Centaur registers directly over FSI; on
 * ConTutto each register access takes the indirect path FSI slave ->
 * I2C master -> FPGA register, which is much slower and required
 * firmware changes (§3.4). The FSI slave also carries the auxiliary
 * controls: independent FPGA reset/power, presence detect, and
 * direct SPD access.
 */

#ifndef CONTUTTO_FIRMWARE_FSI_HH
#define CONTUTTO_FIRMWARE_FSI_HH

#include <functional>
#include <optional>

#include "firmware/registers.hh"
#include "mem/spd.hh"
#include "sim/sim_object.hh"

namespace contutto::firmware
{

/**
 * The FSI slave on a card, with the register access path.
 *
 * Accesses are timed: a direct FSI register access costs fsiLatency;
 * an indirect one costs fsiLatency + i2cLatency per transfer. All
 * completion is via callback on the event queue.
 */
class FsiSlave : public SimObject
{
  public:
    struct Params
    {
        /**
         * Extra cost of the I2C hop for indirect access; ~100 us at
         * 400 kHz for an addressed 32-bit transfer. Zero for direct
         * (Centaur-style) access.
         */
        Tick i2cLatency = microseconds(100);
    };

    FsiSlave(const std::string &name, EventQueue &eq,
             const ClockDomain &domain, stats::StatGroup *parent,
             const Params &params, RegisterFile &regs)
        : SimObject(name, eq, domain, parent), params_(params),
          regs_(regs),
          stats_{{this, "regReads", "register reads served"},
                 {this, "regWrites", "register writes served"},
                 {this, "spdReads", "SPD reads served"}}
    {}

    /** Timed register read through FSI(+I2C). */
    void
    readReg(std::uint32_t addr,
            std::function<void(std::uint32_t)> cb)
    {
        ++stats_.regReads;
        Tick when = curTick() + accessLatency();
        OneShotEvent::schedule(eventq(), when,
                               [this, addr, cb] {
                                   cb(regs_.read(addr));
                               });
    }

    /** Timed register write through FSI(+I2C). */
    void
    writeReg(std::uint32_t addr, std::uint32_t value,
             std::function<void()> cb = nullptr)
    {
        ++stats_.regWrites;
        Tick when = curTick() + accessLatency();
        OneShotEvent::schedule(eventq(), when,
                               [this, addr, value, cb] {
                                   regs_.write(addr, value);
                                   if (cb)
                                       cb();
                               });
    }

    /** Presence detect: cheap, direct FSI. */
    void
    readPresence(std::function<void(std::uint32_t)> cb)
    {
        OneShotEvent::schedule(eventq(),
                               curTick() + fsiLatency,
                               [cb] { cb(presenceId); });
    }

    /** Install the SPD ROM for DIMM slot @p slot. */
    void
    installSpd(unsigned slot, const mem::SpdRecord &record)
    {
        if (spds_.size() <= slot)
            spds_.resize(slot + 1);
        spds_[slot] = record.encode();
    }

    /**
     * Read the SPD of DIMM slot @p slot directly over FSI (paper
     * §3.4: critical for detecting NVDIMMs). Null when no DIMM.
     */
    void
    readSpd(unsigned slot,
            std::function<void(std::optional<mem::SpdRecord>)> cb)
    {
        ++stats_.spdReads;
        // A full 128-byte SPD read over the service path.
        Tick when = curTick() + fsiLatency
            + params_.i2cLatency;
        OneShotEvent::schedule(eventq(), when, [this, slot, cb] {
            if (slot >= spds_.size() || !spds_[slot]) {
                cb(std::nullopt);
                return;
            }
            mem::SpdRecord rec;
            if (!mem::SpdRecord::decode(*spds_[slot], rec)) {
                cb(std::nullopt);
                return;
            }
            cb(rec);
        });
    }

    RegisterFile &registers() { return regs_; }

  private:
    /** One FSI register transaction. */
    static constexpr Tick fsiLatency = microseconds(1);
    /** Presence-detect identity returned to the FSP. */
    static constexpr std::uint32_t presenceId = contuttoIdMagic;

    Tick
    accessLatency() const
    {
        return fsiLatency + params_.i2cLatency;
    }

    Params params_;
    RegisterFile &regs_;
    std::vector<std::optional<std::array<std::uint8_t,
                                         mem::spdBytes>>> spds_;

    struct FsiStats
    {
        stats::Scalar regReads;
        stats::Scalar regWrites;
        stats::Scalar spdReads;
    } stats_;
};

} // namespace contutto::firmware

#endif // CONTUTTO_FIRMWARE_FSI_HH
