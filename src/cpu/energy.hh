/**
 * @file
 * First-order energy accounting for the memory subsystem.
 *
 * The paper claims the Access processor's scheduling improves "the
 * performance and, to a certain extent, the energy efficiency of
 * the accelerator operation" (§4.3): near-memory execution avoids
 * shipping operands across the DMI serdes and through the
 * processor. This meter turns the statistics the models already
 * keep into energy estimates with published-class coefficients:
 * high-speed serdes ~2 pJ/bit per direction, DDR3 access+I/O
 * ~25 pJ/bit, core pipeline ~200 pJ per handled cache line, FPGA
 * fabric ~15 pJ per retired Access-processor instruction. Absolute
 * joules are rough by construction; *differences* between two ways
 * of doing the same work (the data-movement energy) are the point.
 */

#ifndef CONTUTTO_CPU_ENERGY_HH
#define CONTUTTO_CPU_ENERGY_HH

#include <string>

#include "cpu/system.hh"

namespace contutto::cpu
{

/** Energy coefficients (picojoules). */
struct EnergyCoefficients
{
    /** Per byte serialized onto a DMI lane bundle (serdes + wire). */
    double pjPerLinkByte = 16.0; // 2 pJ/bit
    /** Per byte moved at the DRAM devices (array + I/O). */
    double pjPerDramByte = 200.0; // 25 pJ/bit
    /** Per cache line the host core touches (LSU + cache fill). */
    double pjPerHostLine = 200.0;
    /** Per Access-processor instruction retired. */
    double pjPerApInstruction = 15.0;
    /** Per command the buffer's MBS executes. */
    double pjPerBufferCommand = 120.0;
};

/** A snapshot-diff energy estimate. */
struct EnergyReport
{
    double linkPj = 0;
    double dramPj = 0;
    double hostPj = 0;
    double apPj = 0;
    double bufferPj = 0;

    double
    totalPj() const
    {
        return linkPj + dramPj + hostPj + apPj + bufferPj;
    }

    double totalUj() const { return totalPj() / 1e6; }

    std::string toString() const;
};

/**
 * Meters one system between construction (or reset()) and report().
 */
class EnergyMeter
{
  public:
    explicit EnergyMeter(Power8System &sys,
                         EnergyCoefficients coeffs = {});

    /**
     * Account an Access processor's work too, through its retired
     * instruction counter (kept narrow so cpu/ does not depend on
     * accel/).
     */
    void attach(const stats::Scalar &apInstructions);

    /** Re-baseline the snapshot. */
    void reset();

    /** Energy spent since the last reset. */
    EnergyReport report() const;

  private:
    struct Snapshot
    {
        double linkBytes = 0;
        double dramReads = 0;
        double dramWrites = 0;
        double hostLines = 0;
        double apInstructions = 0;
        double bufferCommands = 0;
    };

    Snapshot take() const;

    Power8System &sys_;
    const stats::Scalar *apInstructions_ = nullptr;
    EnergyCoefficients coeffs_;
    Snapshot base_;
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_ENERGY_HH
