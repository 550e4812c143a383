/**
 * @file
 * FPGA power sequencing.
 *
 * ConTutto derives all local voltages from the 12 V GPU power
 * connector through switching regulators and LDOs; the service
 * processor sequences the rails per the FPGA's power-up rules and
 * monitors them via the FSI slave (paper §3.2). The firmware can
 * also cycle the FPGA's power/reset independently of the host, which
 * makes training retries cheap (§3.4).
 *
 * The sequencer is re-entrant: powerDown() during an in-flight
 * powerUp() (and vice versa) cancels the pending ramp, fires the
 * interrupted request's callback (powerUp sees failure), and settles
 * in the newly requested direction. The input bulk capacitance also
 * gives the card a holdup window: input dips shorter than
 * holdupTime() are ridden through without any rail dropping.
 */

#ifndef CONTUTTO_FIRMWARE_POWER_SEQ_HH
#define CONTUTTO_FIRMWARE_POWER_SEQ_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/sim_object.hh"

namespace contutto::firmware
{

/** One voltage rail. */
struct Rail
{
    std::string name;
    double volts;
    Tick rampTime;
    /** Set by tests to model a failed regulator. */
    bool faulty = false;
};

/** The default ConTutto rail set, in required bring-up order. */
std::vector<Rail> contuttoRails();

/** Sequences rails up/down and reports state. */
class PowerSequencer : public SimObject
{
  public:
    enum class State
    {
        off,
        rampingUp,
        on,
        rampingDown,
        fault,
    };

    PowerSequencer(const std::string &name, EventQueue &eq,
                   const ClockDomain &domain,
                   stats::StatGroup *parent, std::vector<Rail> rails);

    ~PowerSequencer() override;

    /**
     * Bring rails up in order; cb(success).
     *
     * Legal from off, fault, and rampingDown. Starting an up-ramp
     * while the rails are discharging cancels the pending down-ramp
     * (its callback fires first — the rails did reach the discharged
     * state logically) and restarts the bring-up from rail 0.
     */
    void powerUp(std::function<void(bool)> cb);

    /**
     * Bring rails down in reverse order; cb always succeeds.
     *
     * Legal from any state. A powerDown() during an in-flight
     * powerUp() cancels the pending rail ramp and aborts the up
     * request: the up callback fires with false (faultedRail() is
     * empty — aborted, not faulted) before the discharge starts.
     */
    void powerDown(std::function<void()> cb);

    State state() const { return state_; }
    bool isOn() const { return state_ == State::on; }

    /** Name of the rail that faulted, when state() == fault.
     *  Empty when an up-ramp was aborted by powerDown(). */
    const std::string &faultedRail() const { return faultedRail_; }

    /** Inject a regulator fault into rail @p name. */
    void injectFault(const std::string &name, bool faulty);

    /** Total time a full power-up takes with healthy rails. */
    Tick powerUpTime() const;

    /** Time a full discharge takes. */
    Tick powerDownTime() const;

    /** @{ Input holdup: bulk capacitance rides through short dips. */
    Tick holdupTime() const { return holdupTime_; }
    /** True when a dip of @p duration never reaches the rails. */
    bool ridesThrough(Tick duration) const
    {
        return duration <= holdupTime_;
    }
    /** @} */

    /** Up-ramps cancelled by a powerDown() before completing. */
    std::uint64_t abortedRamps() const
    {
        return std::uint64_t(abortedRamps_.value());
    }

  private:
    void rampNext();
    void downComplete();

    std::vector<Rail> rails_;
    State state_ = State::off;
    std::size_t railIndex_ = 0;
    std::string faultedRail_;
    Tick holdupTime_ = microseconds(500);
    std::function<void(bool)> upCb_;
    std::function<void()> downCb_;
    EventFunctionWrapper rampEvent_;
    EventFunctionWrapper downEvent_;
    stats::Scalar powerCycles_;
    stats::Scalar faults_;
    stats::Scalar abortedRamps_;
};

} // namespace contutto::firmware

#endif // CONTUTTO_FIRMWARE_POWER_SEQ_HH
