/**
 * @file
 * The card's power domain: one switch for everything behind the
 * 12 V input.
 *
 * The paper gives the service processor independent power/reset
 * control over the ConTutto card (§3.2/§3.4); the NVDIMM-N story
 * (§4.2(iii)) adds modules that react to the power edge themselves.
 * PowerDomain models the input side: a power cut fans out, in
 * defined order, to (1) the registered cut hooks — the host port
 * aborting in-flight commands and the link layer freezing, i.e. what
 * the rest of the machine observes, (2) every attached MemoryDevice
 * — the NVDIMM's early power-fail warning that starts the supercap
 * save, and (3) the PowerSequencer, whose rails then collapse.
 *
 * Restore runs the other way: the sequencer ramps the rails first,
 * then devices see power return (NVDIMMs begin their restore), and
 * the domain polls until every device reports ready. Brownouts model
 * input dips: shorter than the sequencer's holdup they are ridden
 * through invisibly; longer ones are a real cut whose input only
 * returns after the dip, so a restore requested earlier waits.
 */

#ifndef CONTUTTO_FIRMWARE_POWER_DOMAIN_HH
#define CONTUTTO_FIRMWARE_POWER_DOMAIN_HH

#include <functional>
#include <vector>

#include "firmware/power_seq.hh"
#include "mem/device.hh"
#include "ras/fault_injector.hh"

namespace contutto::firmware
{

/** Fans power edges out to the card, sequencer, and modules. */
class PowerDomain : public SimObject,
                    public ras::PowerTarget,
                    public ckpt::Checkpointable
{
  public:
    PowerDomain(const std::string &name, EventQueue &eq,
                const ClockDomain &domain, stats::StatGroup *parent,
                PowerSequencer &seq);

    ~PowerDomain() override;

    /** Register a module that must see power edges. */
    void attachDevice(mem::MemoryDevice *dev);

    /** Register work done at cut time *before* the rails drop
     *  (host-port abort, link freeze); runs in registration order. */
    void addCutHook(std::function<void()> hook);

    bool powered() const { return powered_; }

    /** True while a restore is ramping/validating. */
    bool restoring() const { return doneCb_ != nullptr; }

    /** Earliest tick the 12 V input is good again. */
    Tick inputGoodAt() const { return inputGoodAt_; }

    /** @{ ras::PowerTarget. */
    void powerCut() override;
    void powerRestore() override { powerRestore(nullptr); }
    void brownout(Tick dip) override;
    /** @} */

    /**
     * Restore power: waits for the input (brownout dips), ramps the
     * sequencer, fans restore out to the devices, then polls until
     * all are ready. @p done fires with success; rail faults and
     * ready-timeouts report failure.
     */
    void powerRestore(std::function<void(bool)> done);

    struct DomainStats
    {
        stats::Scalar cuts;
        stats::Scalar restores;
        stats::Scalar failedRestores;
        stats::Scalar brownouts;
        stats::Scalar brownoutsRidden;
        stats::Scalar brownoutOutages;
    };

    const DomainStats &domainStats() const { return stats_; }

    /** @{ ckpt::Checkpointable: the powered flag and input-good
     *  horizon. Only legal while no restore is in progress. */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    void startRamp();
    void railsUp(bool ok);
    void pollReady();
    void finishRestore(bool ok);

    PowerSequencer &seq_;
    std::vector<mem::MemoryDevice *> devices_;
    std::vector<std::function<void()>> cutHooks_;
    bool powered_ = true;
    Tick inputGoodAt_ = 0;
    Tick readyDeadline_ = 0;
    Tick pollInterval_ = 0;
    std::function<void(bool)> doneCb_;
    EventFunctionWrapper startEvent_;
    EventFunctionWrapper pollEvent_;
    DomainStats stats_;
};

} // namespace contutto::firmware

#endif // CONTUTTO_FIRMWARE_POWER_DOMAIN_HH
