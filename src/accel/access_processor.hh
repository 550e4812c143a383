/**
 * @file
 * The Access processor (paper §4.3).
 *
 * A multithreaded programmable state machine that arbitrates and
 * schedules loads and stores to the DDR3 DIMMs on behalf of the
 * attached accelerator, including address generation and a
 * programmable address-mapping scheme, "leaving the accelerators
 * only to deal with the actual data processing". It is programmed by
 * loading a pre-compiled executable image from the DIMMs into an
 * internal instruction memory, triggered by the reception of a
 * control block, without interrupting base operation.
 *
 * Timing: single in-order issue pipe of configurable width at the
 * 250 MHz fabric clock, round-robin across hardware threads; line
 * reads/writes go through the card's Avalon bus to the same memory
 * controllers the CPU uses, so accelerator and host traffic really
 * share the DIMM bandwidth.
 */

#ifndef CONTUTTO_ACCEL_ACCESS_PROCESSOR_HH
#define CONTUTTO_ACCEL_ACCESS_PROCESSOR_HH

#include <deque>
#include <map>
#include <functional>

#include "accel/accelerators.hh"
#include "accel/isa.hh"
#include "bus/avalon.hh"
#include "mem/line_interleave.hh"

namespace contutto::accel
{

/** The programmable load/store engine. */
class AccessProcessor : public SimObject
{
  public:
    AccessProcessor(const std::string &name, EventQueue &eq,
                    const ClockDomain &domain,
                    stats::StatGroup *parent, bus::AvalonBus &bus);

    ~AccessProcessor() override;

    /**
     * Fetch the program image named by @p cb from the DIMMs, then
     * run it with @p unit attached; @p done fires with the finalized
     * control block.
     */
    void launch(const ControlBlock &cb, AcceleratorUnit &unit,
                std::function<void(const ControlBlock &)> done);

    bool running() const { return running_; }

    struct ApStats
    {
        stats::Scalar instructions;
        stats::Scalar linesRead;
        stats::Scalar linesWritten;
        stats::Scalar fifoStalls;
        stats::Scalar memStalls;
        stats::Scalar programsLoaded;
    };

    const ApStats &apStats() const { return stats_; }

  private:
    enum class ThreadState : std::uint8_t
    {
        off,
        runnable,
        blockedLoad, ///< Waiting for a scalar load.
        halted,
    };

    struct Thread
    {
        ThreadState state = ThreadState::off;
        std::uint64_t pc = 0;
        std::uint64_t regs[numRegs] = {};
        MapMode srcMap = MapMode::interleaved;
        MapMode dstMap = MapMode::interleaved;
    };

    void fetchProgram();
    void startThreads();
    void cycle();
    /** Restart the quiesced clock when a blocked thread unblocks. */
    void wake();
    /** @return true when the instruction retired (else stall). */
    bool execute(unsigned tid);
    Addr mapAddr(Addr logical, MapMode mode) const;
    void drainInputStage();
    void maybeFinish();

    bus::AvalonBus::Port *readPort_;
    bus::AvalonBus::Port *writePort_;

    ControlBlock cb_;
    AcceleratorUnit *unit_ = nullptr;
    std::function<void(const ControlBlock &)> done_;
    bool running_ = false;

    Program program_;
    std::vector<Thread> threads_;
    unsigned rrNext_ = 0;
    unsigned outstandingReads_ = 0;
    unsigned outstandingWrites_ = 0;
    std::deque<dmi::CacheLine> inputStage_;
    /** Reorder state for units needing in-order input streams. */
    std::uint64_t readSeqNext_ = 0;
    std::uint64_t readSeqExpected_ = 0;
    std::map<std::uint64_t, dmi::CacheLine> readReorder_;
    unsigned fetchLinesLeft_ = 0;
    std::vector<std::uint8_t> fetchBuffer_;

    EventFunctionWrapper cycleEvent_;
    ApStats stats_;
};

} // namespace contutto::accel

#endif // CONTUTTO_ACCEL_ACCESS_PROCESSOR_HH
