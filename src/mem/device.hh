/**
 * @file
 * Memory device models: DDR3 DRAM, STT-MRAM, and NVDIMM-N.
 *
 * ConTutto is memory-technology agnostic as long as the module talks
 * DDR3 (paper §4.2): the same memory-controller structure drives all
 * three device types, differing in timing adjustments, persistence
 * and endurance. Devices own the functional MemImage and the traits
 * the controller and firmware consult.
 */

#ifndef CONTUTTO_MEM_DEVICE_HH
#define CONTUTTO_MEM_DEVICE_HH

#include <string>
#include <unordered_map>

#include "mem/dram_timing.hh"
#include "mem/flash_model.hh"
#include "mem/mem_image.hh"
#include "sim/sim_object.hh"

namespace contutto::mem
{

/** Memory module technology, as reported in the SPD. */
enum class MemTech : std::uint8_t
{
    dram,
    sttMram,
    nvdimmN,
};

const char *memTechName(MemTech t);

/**
 * How a module came back from a power cycle, as firmware queries it
 * per slot at warm-reboot time. Anything other than clean means the
 * pre-outage contents are not (fully) available — and, critically,
 * that the module *said so* instead of silently serving stale data.
 */
enum class RestoreOutcome : std::uint8_t
{
    none,  ///< No power cycle seen (or volatile module: no story).
    clean, ///< Full image validated and restored.
    torn,  ///< Save was interrupted: flash image detected partial.
    stale, ///< Flash held only an older generation's save.
    lost,  ///< Nothing restorable (backup power failed upfront).
};

const char *restoreOutcomeName(RestoreOutcome o);

/**
 * A memory module (one DIMM) plugged into a ConTutto DDR3 port.
 */
class MemoryDevice : public SimObject, public ckpt::Checkpointable
{
  public:
    MemoryDevice(const std::string &name, EventQueue &eq,
                 const ClockDomain &domain, stats::StatGroup *parent,
                 std::uint64_t capacity, MemTech tech);

    MemImage &image() { return image_; }
    const MemImage &image() const { return image_; }

    std::uint64_t capacity() const { return image_.capacity(); }
    MemTech tech() const { return tech_; }

    /** True when contents survive power loss. */
    virtual bool isNonVolatile() const = 0;

    /** Extra device latency added to each write burst. */
    virtual Tick extraWriteLatency() const { return 0; }

    /** Extra device latency added to each read burst. */
    virtual Tick extraReadLatency() const { return 0; }

    /** True when the controller must issue periodic refresh. */
    virtual bool needsRefresh() const { return true; }

    /** Write-endurance limit per cell block; 0 means unlimited. */
    virtual std::uint64_t enduranceLimit() const { return 0; }

    /** Record a write: traffic always, per-block wear only when
     *  enduranceLimit() is nonzero. */
    void noteWrite(Addr addr, std::size_t len);

    /** Record a read (traffic/energy accounting). */
    void noteRead(std::size_t len)
    {
        devStats_.bytesRead += double(len);
    }

    /** @{ Device traffic so far, bytes. */
    double bytesRead() const { return devStats_.bytesRead.value(); }
    double bytesWritten() const
    {
        return devStats_.bytesWritten.value();
    }
    /** @} */

    /** Highest write count seen on any 128 B block; 0 on a device
     *  without an endurance limit, which keeps no per-block counts. */
    std::uint64_t maxBlockWrites() const { return maxBlockWrites_; }

    /** Number of blocks worn past the endurance limit. */
    std::uint64_t wornBlocks() const { return wornBlocks_; }

    /** @{ Power events; see subclasses for semantics. */
    virtual void powerLoss() = 0;
    virtual void powerRestore() = 0;
    /** @} */

    /** True when the module holds its pre-power-cycle contents. */
    virtual bool contentIntact() const { return isNonVolatile(); }

    /** Outcome of the most recent restore (none for volatile). */
    virtual RestoreOutcome restoreOutcome() const
    {
        return RestoreOutcome::none;
    }

    /** False while the module is mid save/restore and cannot serve
     *  accesses; firmware polls this after a power edge. */
    virtual bool ready() const { return true; }

    /** @{ ckpt::Checkpointable: the functional image plus the
     *  endurance accounting (per-block write counts in block order,
     *  none on a device without an endurance limit).
     *  Stats Scalars live in the stats tree and are restored there.
     *  Subclasses with more state extend these. */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  protected:
    MemImage image_;

    struct DeviceStats
    {
        stats::Scalar bytesRead;
        stats::Scalar bytesWritten;
        stats::Scalar powerLossEvents;
    } devStats_;

  private:
    MemTech tech_;
    std::unordered_map<Addr, std::uint64_t> blockWrites_;
    std::uint64_t maxBlockWrites_ = 0;
    std::uint64_t wornBlocks_ = 0;
};

/** A plain volatile DDR3 DRAM module. */
class DramDevice : public MemoryDevice
{
  public:
    DramDevice(const std::string &name, EventQueue &eq,
               const ClockDomain &domain, stats::StatGroup *parent,
               std::uint64_t capacity);

    bool isNonVolatile() const override { return false; }

    void powerLoss() override;
    void powerRestore() override {}
};

/**
 * An STT-MRAM module. Non-volatile, no refresh, slightly slower
 * writes (the magnetic tunnel junction write pulse), enormous but
 * finite endurance. The pMTJ generation improves the write pulse
 * over the initial iMTJ parts (paper §4.2(ii)).
 */
class MramDevice : public MemoryDevice
{
  public:
    enum class Junction
    {
        iMTJ, ///< In-plane MTJ: first ConTutto MRAM demo.
        pMTJ, ///< Perpendicular MTJ: improved power/performance.
    };

    MramDevice(const std::string &name, EventQueue &eq,
               const ClockDomain &domain, stats::StatGroup *parent,
               std::uint64_t capacity, Junction junction);

    bool isNonVolatile() const override { return true; }
    bool needsRefresh() const override { return false; }

    Tick
    extraWriteLatency() const override
    {
        return junction_ == Junction::iMTJ ? nanoseconds(20)
                                           : nanoseconds(10);
    }

    Tick extraReadLatency() const override { return nanoseconds(2); }

    /** ~1e15 cycles: the Figure 8 endurance story. */
    std::uint64_t
    enduranceLimit() const override
    {
        return 1000000000000000ull;
    }

    Junction junction() const { return junction_; }

    void powerLoss() override;
    void powerRestore() override {}

  private:
    Junction junction_;
};

/**
 * An NVDIMM-N module: DRAM timing in normal operation; on power loss
 * the module itself copies DRAM to on-module flash powered by a
 * supercap, then restores on power return (paper §4.2(iii)). Neither
 * the FPGA nor the CPU participates in the copy.
 *
 * The save streams segment by segment against the supercap's energy
 * budget: energy exhaustion mid-stream leaves a torn flash image
 * (state partial), and power returning mid-save aborts the save with
 * DRAM still intact. A restore validates every segment's generation
 * tag and checksum, and refuses to silently return a torn or stale
 * image — the per-slot outcome is what firmware reports at boot.
 */
class NvdimmDevice : public MemoryDevice
{
  public:
    struct Params
    {
        /** Flash save/restore streaming bandwidth, bytes/second. */
        double flashBandwidth = 200e6;
        /** Supercap energy budget in joules. */
        double supercapJoules = 50.0;
        /** Energy needed to save one GiB. */
        double joulesPerGiB = 8.0;
        /** Whether the supercap starts charged. */
        bool charged = true;
        /** Backup flash geometry and endurance. */
        FlashModel::Params flash{};
    };

    NvdimmDevice(const std::string &name, EventQueue &eq,
                 const ClockDomain &domain, stats::StatGroup *parent,
                 std::uint64_t capacity, const Params &params);

    ~NvdimmDevice() override
    {
        if (transferDone_.scheduled())
            eventq().deschedule(&transferDone_);
    }

    bool isNonVolatile() const override { return true; }

    enum class State
    {
        normal,
        saving,
        saved,     ///< Image parked in flash, DRAM dark.
        restoring,
        partial,   ///< Save interrupted mid-stream; flash torn.
        lost,      ///< Supercap could not even start the save.
    };

    State state() const { return state_; }

    /** True while the DRAM array is usable for accesses. */
    bool accessible() const { return state_ == State::normal; }

    bool ready() const override { return accessible(); }

    bool contentIntact() const override
    {
        return contentIntact_
            && (state_ == State::normal || state_ == State::saved
                || state_ == State::saving);
    }

    RestoreOutcome restoreOutcome() const override
    {
        return lastOutcome_;
    }

    /** Time a full save (or restore) takes. */
    Tick saveDuration() const;

    /** Time one segment takes to stream. */
    Tick segmentDuration() const;

    /** Supercap energy one segment costs. */
    double segmentJoules() const;

    /** The backup flash (bad-block/wear inspection + injection). */
    FlashModel &flash() { return flash_; }
    const FlashModel &flash() const { return flash_; }

    /** @{ Lifetime counters mirrored from the stats. */
    std::uint64_t dataLossEvents() const
    {
        return std::uint64_t(dataLossEvents_.value());
    }
    std::uint64_t abortedSaves() const
    {
        return std::uint64_t(abortedSaves_.value());
    }
    std::uint64_t failedRestores() const
    {
        return std::uint64_t(failedRestores_.value());
    }
    /** @} */

    void powerLoss() override;
    void powerRestore() override;

    /** @{ ckpt::Checkpointable: base state plus the backup flash,
     *  supercap energy, save generation, and restore outcome. Only
     *  legal while no save/restore transfer is in flight. */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    void saveStep();
    void restoreComplete();
    RestoreOutcome classifyFlash() const;
    void recharge() { energy_ = params_.supercapJoules; }

    Params params_;
    State state_ = State::normal;
    FlashModel flash_;
    double energy_;
    std::uint64_t generation_ = 0;
    unsigned segIndex_ = 0;
    bool contentIntact_ = true;
    RestoreOutcome lastOutcome_ = RestoreOutcome::none;
    EventFunctionWrapper transferDone_;
    stats::Scalar saves_;
    stats::Scalar restores_;
    stats::Scalar dataLossEvents_;
    stats::Scalar abortedSaves_;
    stats::Scalar failedRestores_;
    stats::Scalar segmentsSaved_;
};

} // namespace contutto::mem

#endif // CONTUTTO_MEM_DEVICE_HH
