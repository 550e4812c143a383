/**
 * @file
 * The FSP boot sequence for a ConTutto slot.
 *
 * Mirrors the firmware flow §3.4 describes: power-sequence the card,
 * configure the FPGA from flash, detect presence, read the DIMM
 * SPDs, run DMI link training — retrying with an FPGA reset when it
 * fails, without bringing down the whole system — verify the
 * register path (FSI -> I2C -> FPGA), and build the memory map.
 */

#ifndef CONTUTTO_FIRMWARE_BOOT_HH
#define CONTUTTO_FIRMWARE_BOOT_HH

#include <functional>
#include <memory>

#include "dmi/training.hh"
#include "firmware/error_log.hh"
#include "firmware/fsi.hh"
#include "firmware/memory_map.hh"
#include "firmware/power_domain.hh"
#include "firmware/power_seq.hh"

namespace contutto::firmware
{

/** Firmware's control surface over one card slot. */
class CardControl
{
  public:
    virtual ~CardControl() = default;

    virtual FsiSlave &fsi() = 0;
    virtual PowerSequencer &power() = 0;
    virtual unsigned numDimmSlots() const = 0;

    /** Load the FPGA bitstream from the on-card flash. */
    virtual void configureFpga(std::function<void(bool)> cb) = 0;

    /** Cycle the FPGA reset without touching the host (cheap
     *  training retries, paper §3.4). */
    virtual void pulseReset(std::function<void()> cb) = 0;

    /** Run DMI link training once. */
    virtual void
    trainLink(std::function<void(const dmi::TrainingResult &)> cb) = 0;

    /** Whether slot @p slot's module kept its contents (NVDIMM
     *  restore succeeded / MRAM). */
    virtual bool contentPreserved(unsigned slot) const = 0;

    /** How slot @p slot's module fared across the last power fault
     *  (warm reboots). The default bridges contentPreserved for
     *  controls that predate the recovery path. */
    virtual mem::RestoreOutcome
    restoreOutcome(unsigned slot) const
    {
        return contentPreserved(slot) ? mem::RestoreOutcome::none
                                      : mem::RestoreOutcome::lost;
    }
};

/** Outcome of a boot. */
struct BootReport
{
    bool success = false;
    /** Set on warm reboots (recovery from a power fault). */
    bool warm = false;
    std::string failReason;
    unsigned trainingAttempts = 0;
    dmi::TrainingResult training;
    MemoryMap map;
    Tick bootTime = 0;
    std::uint32_t cardId = 0;
    /** Per-slot restore verdicts, indexed by slot (empty slots
     *  report none). */
    std::vector<mem::RestoreOutcome> slotOutcomes;
    /** Modules whose contents did not survive the power fault. */
    unsigned modulesLost = 0;
};

/** Drives the boot flow for one slot. */
class BootSequencer : public SimObject
{
  public:
    struct Params
    {
        /** Whole-training retries before giving up. */
        unsigned maxTrainingAttempts = 8;
    };

    BootSequencer(const std::string &name, EventQueue &eq,
                  const ClockDomain &domain, stats::StatGroup *parent,
                  const Params &params, CardControl &card,
                  ErrorLog &log);

    /** Run the sequence; @p done fires with the report. */
    void start(std::function<void(const BootReport &)> done);

    /**
     * Recover from a power fault: restore the domain (rails ramp,
     * modules stream their NVDIMM restores, readiness is polled),
     * then rerun configuration, training and map construction. The
     * per-slot restore verdicts land in the report and data loss is
     * logged — a torn or stale flash image is *named*, never
     * silently remapped as preserved content.
     */
    void warmReboot(PowerDomain &domain,
                    std::function<void(const BootReport &)> done);

    const BootReport &report() const { return report_; }
    bool busy() const { return busy_; }

  private:
    void beginBoot(bool warm,
                   std::function<void(const BootReport &)> done);
    void stepPowerUp();
    void stepConfigure();
    void stepPresence();
    void stepVerifyRegisters();
    void stepReadSpds(unsigned slot);
    void stepTrain();
    void trainingDone(const dmi::TrainingResult &result);
    void stepBuildMap();
    void finish(bool success, const std::string &reason);

    Params params_;
    CardControl &card_;
    ErrorLog &log_;
    bool busy_ = false;
    Tick startedAt_ = 0;
    std::vector<ModuleInfo> modules_;
    BootReport report_;
    std::function<void(const BootReport &)> done_;
};

} // namespace contutto::firmware

#endif // CONTUTTO_FIRMWARE_BOOT_HH
