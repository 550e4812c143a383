/**
 * @file
 * Block accelerator units fed by the Access processor (paper §4.3).
 *
 * Units consume and produce 128-byte lines through FIFOs; the Access
 * processor's lineRead/lineWrite instructions move data between the
 * DIMMs and the FIFOs, so FIFO backpressure naturally throttles the
 * memory streams to the compute rate. All units compute real results
 * on real data: the memcpy unit forwards payloads, the min/max unit
 * reduces over 32-bit integers on-the-fly, and the FFT unit computes
 * actual 1024-point single-precision FFTs on several internal
 * pipelines so sample transfers overlap with computation on other
 * pipelines, as the paper describes.
 */

#ifndef CONTUTTO_ACCEL_ACCELERATORS_HH
#define CONTUTTO_ACCEL_ACCELERATORS_HH

#include <complex>
#include <map>
#include <vector>
#include <deque>

#include "accel/control_block.hh"
#include "sim/sim_object.hh"

namespace contutto::accel
{

/** Interface between the Access processor and one unit. */
class AcceleratorUnit : public SimObject
{
  public:
    using SimObject::SimObject;

    /** Prepare for a new task. */
    virtual void reset(const ControlBlock &cb) = 0;

    /**
     * Offer one input line.
     * @return false when the unit cannot accept it this cycle.
     */
    virtual bool pushInput(const dmi::CacheLine &line) = 0;

    /**
     * Take one output line.
     * @return false when no output is ready yet.
     */
    virtual bool popOutput(dmi::CacheLine &line) = 0;

    /** True while output will still be produced for pushed input. */
    virtual bool busy() const = 0;

    /** Write results into the control block at task end. */
    virtual void finalize(ControlBlock &cb) = 0;

    /**
     * True when input lines must arrive in stream order (data/address
     * pairing through the output FIFO); reductions don't care.
     */
    virtual bool needsOrderedInput() const { return true; }
};

/** Pass-through unit for block memory copy. */
class MemcpyUnit : public AcceleratorUnit
{
  public:
    using AcceleratorUnit::AcceleratorUnit;

    void reset(const ControlBlock &) override { fifo_.clear(); }

    bool
    pushInput(const dmi::CacheLine &line) override
    {
        if (fifo_.size() >= fifoCapacity)
            return false;
        fifo_.push_back(line);
        return true;
    }

    bool
    popOutput(dmi::CacheLine &line) override
    {
        if (fifo_.empty())
            return false;
        line = fifo_.front();
        fifo_.pop_front();
        return true;
    }

    bool busy() const override { return !fifo_.empty(); }
    void finalize(ControlBlock &) override {}

    static constexpr std::size_t fifoCapacity = 32;

  private:
    std::deque<dmi::CacheLine> fifo_;
};

/** On-the-fly min/max reduction over 32-bit signed integers. */
class MinMaxUnit : public AcceleratorUnit
{
  public:
    using AcceleratorUnit::AcceleratorUnit;

    void reset(const ControlBlock &cb) override;
    bool pushInput(const dmi::CacheLine &line) override;
    bool popOutput(dmi::CacheLine &) override { return false; }
    bool busy() const override { return false; }
    void finalize(ControlBlock &cb) override;
    bool needsOrderedInput() const override { return false; }

  private:
    std::int32_t min_ = 0;
    std::int32_t max_ = 0;
    bool any_ = false;
    std::uint64_t values_ = 0;
};

/**
 * Batched 1024-point complex-float FFT across several internal
 * pipelines.
 */
class FftUnit : public AcceleratorUnit
{
  public:
    FftUnit(const std::string &name, EventQueue &eq,
            const ClockDomain &domain, stats::StatGroup *parent);

    void reset(const ControlBlock &cb) override;
    bool pushInput(const dmi::CacheLine &line) override;
    bool popOutput(dmi::CacheLine &line) override;
    bool busy() const override;
    void finalize(ControlBlock &cb) override;

    /** The functional transform (used by tests as reference too). */
    static void fft(std::vector<std::complex<float>> &data);

  private:
    struct Pipeline
    {
        bool busy = false;
        std::vector<std::complex<float>> samples;
        std::uint64_t sequence = 0;
    };

    void batchDone(unsigned pipe);
    void drainReorder();

    std::vector<Pipeline> pipes_;
    std::vector<std::complex<float>> filling_;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t nextEmit_ = 0;
    /** Completed batches waiting for in-order emission. */
    std::map<std::uint64_t, std::vector<std::complex<float>>> doneBatches_;
    std::deque<dmi::CacheLine> outFifo_;
    unsigned batchesComputed_ = 0;
};

} // namespace contutto::accel

#endif // CONTUTTO_ACCEL_ACCELERATORS_HH
