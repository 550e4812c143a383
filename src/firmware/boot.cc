#include "firmware/boot.hh"

namespace contutto::firmware
{

namespace
{

/** Bitstream load time from flash. */
constexpr Tick fpgaConfigTime = milliseconds(40);
/** Reset pulse + PLL relock time between training tries. */
constexpr Tick resetPulseTime = milliseconds(2);

} // namespace

BootSequencer::BootSequencer(const std::string &name, EventQueue &eq,
                             const ClockDomain &domain,
                             stats::StatGroup *parent,
                             const Params &params, CardControl &card,
                             ErrorLog &log)
    : SimObject(name, eq, domain, parent), params_(params),
      card_(card), log_(log)
{}

void
BootSequencer::beginBoot(bool warm,
                         std::function<void(const BootReport &)> done)
{
    ct_assert(!busy_);
    busy_ = true;
    done_ = std::move(done);
    report_ = BootReport{};
    report_.warm = warm;
    modules_.clear();
    startedAt_ = curTick();
}

void
BootSequencer::start(std::function<void(const BootReport &)> done)
{
    beginBoot(false, std::move(done));
    stepPowerUp();
}

void
BootSequencer::warmReboot(PowerDomain &domain,
                          std::function<void(const BootReport &)> done)
{
    beginBoot(true, std::move(done));
    domain.powerRestore([this](bool ok) {
        if (!ok) {
            log_.record(curTick(), "contutto.power",
                        Severity::unrecoverable,
                        "warm reboot: power restore failed");
            finish(false, "power restore failed");
            return;
        }
        // Rails are up and every module reported ready; the FPGA
        // lost its configuration with the power, so the rest of the
        // cold flow reruns from configuration onward.
        stepConfigure();
    });
}

void
BootSequencer::stepPowerUp()
{
    card_.power().powerUp([this](bool ok) {
        if (!ok) {
            log_.record(curTick(), "contutto.power",
                        Severity::unrecoverable,
                        "rail " + card_.power().faultedRail()
                            + " failed to ramp");
            finish(false, "power sequencing failed on rail "
                              + card_.power().faultedRail());
            return;
        }
        stepConfigure();
    });
}

void
BootSequencer::stepConfigure()
{
    // The free-running crystal clocks the configuration from flash.
    OneShotEvent::schedule(eventq(),
                           curTick() + fpgaConfigTime,
                           [this] {
                               card_.configureFpga([this](bool ok) {
                                   if (!ok) {
                                       finish(false,
                                              "FPGA configuration "
                                              "failed");
                                       return;
                                   }
                                   stepPresence();
                               });
                           });
}

void
BootSequencer::stepPresence()
{
    card_.fsi().readPresence([this](std::uint32_t id) {
        report_.cardId = id;
        if (id != contuttoIdMagic) {
            // A standard CDIMM answered: nothing for this sequencer
            // to do beyond noting the mixed configuration.
            log_.record(curTick(), "slot", Severity::info,
                        "standard CDIMM present");
        }
        stepVerifyRegisters();
    });
}

void
BootSequencer::stepVerifyRegisters()
{
    // Exercise the indirect FSI -> I2C -> FPGA register path.
    card_.fsi().readReg(regId, [this](std::uint32_t v) {
        if (v != contuttoIdMagic) {
            log_.record(curTick(), "contutto.csr",
                        Severity::unrecoverable,
                        "identity register mismatch");
            finish(false, "register path verification failed");
            return;
        }
        stepReadSpds(0);
    });
}

void
BootSequencer::stepReadSpds(unsigned slot)
{
    if (slot >= card_.numDimmSlots()) {
        stepTrain();
        return;
    }
    if (report_.slotOutcomes.size() < card_.numDimmSlots())
        report_.slotOutcomes.resize(card_.numDimmSlots(),
                                    mem::RestoreOutcome::none);
    card_.fsi().readSpd(
        slot, [this, slot](std::optional<mem::SpdRecord> rec) {
            if (rec) {
                ModuleInfo info;
                info.tech = rec->tech;
                info.actualSize = rec->capacity;
                info.contentPreserved =
                    card_.contentPreserved(slot);
                info.outcome = card_.restoreOutcome(slot);
                info.moduleIndex = slot;
                report_.slotOutcomes[slot] = info.outcome;
                if (info.outcome == mem::RestoreOutcome::torn
                    || info.outcome == mem::RestoreOutcome::stale
                    || info.outcome == mem::RestoreOutcome::lost) {
                    // Data loss is named, not hidden: the OS learns
                    // through the map, the operator through the log.
                    ++report_.modulesLost;
                    log_.record(
                        curTick(), "dimm" + std::to_string(slot),
                        Severity::recoverable,
                        std::string("contents lost across power "
                                    "fault (")
                            + mem::restoreOutcomeName(info.outcome)
                            + " image)");
                } else if (report_.warm
                           && info.outcome
                               == mem::RestoreOutcome::clean) {
                    log_.record(curTick(),
                                "dimm" + std::to_string(slot),
                                Severity::info,
                                "NVDIMM restore verified clean");
                }
                modules_.push_back(info);
            } else {
                log_.record(curTick(),
                            "dimm" + std::to_string(slot),
                            Severity::info, "slot empty");
            }
            stepReadSpds(slot + 1);
        });
}

void
BootSequencer::stepTrain()
{
    ++report_.trainingAttempts;
    card_.trainLink([this](const dmi::TrainingResult &r) {
        trainingDone(r);
    });
}

void
BootSequencer::trainingDone(const dmi::TrainingResult &result)
{
    report_.training = result;
    if (result.success) {
        stepBuildMap();
        return;
    }
    log_.record(curTick(), "contutto.link", Severity::recoverable,
                "training failed: " + result.failReason);
    if (log_.isDeconfigured("contutto.link")) {
        finish(false, "link deconfigured after repeated training "
                      "failures");
        return;
    }
    if (report_.trainingAttempts >= params_.maxTrainingAttempts) {
        finish(false, "link training failed after "
                          + std::to_string(report_.trainingAttempts)
                          + " attempts");
        return;
    }
    // Cheap retry: pulse the FPGA reset without touching the host.
    card_.pulseReset([this] {
        OneShotEvent::schedule(eventq(),
                               curTick() + resetPulseTime,
                               [this] { stepTrain(); });
    });
}

void
BootSequencer::stepBuildMap()
{
    report_.map = buildMemoryMap(modules_);
    if (!report_.map.valid) {
        finish(false, report_.map.error);
        return;
    }
    finish(true, "");
}

void
BootSequencer::finish(bool success, const std::string &reason)
{
    report_.success = success;
    report_.failReason = reason;
    report_.bootTime = curTick() - startedAt_;
    busy_ = false;
    if (done_)
        done_(report_);
}

} // namespace contutto::firmware
