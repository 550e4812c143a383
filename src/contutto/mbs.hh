/**
 * @file
 * The Memory Buffer Synchronous (MBS) logic of ConTutto.
 *
 * MBS receives and executes the downstream commands (paper
 * §3.3(iii)): two parallel frame decoders handle two frames per
 * 250 MHz cycle; 32 identical command engines own commands from
 * dispatch to completion; read requests are issued directly by the
 * frame decoders on dedicated Avalon read ports (no arbitration);
 * each Avalon write port serves 16 engines through an arbiter, with
 * the shared RMW ALU on the write path; a single unified arbiter
 * feeds the upstream channel so read data stays contiguous while
 * done notifications can pack together.
 *
 * Extensions over the Centaur feature set (paper §4.2-4.3):
 *  - a software-controlled latency knob inserting delay modules
 *    between MBS and the Avalon bus, 6 fabric cycles (24 ns) per
 *    position;
 *  - a flush command that completes only after all outstanding
 *    writes reached memory (persistent-memory support);
 *  - in-line accelerated ops (min-store, max-store, conditional
 *    swap) executed by augmented command engines.
 */

#ifndef CONTUTTO_CONTUTTO_MBS_HH
#define CONTUTTO_CONTUTTO_MBS_HH

#include <array>
#include <deque>
#include <vector>

#include "bus/avalon.hh"
#include "dmi/codec.hh"
#include "dmi/command_tags.hh"
#include "dmi/link.hh"
#include "sim/checkpoint.hh"
#include "sim/ring.hh"

namespace contutto::fpga
{

/** The MBS command-processing logic. */
class Mbs : public SimObject,
            public ckpt::Checkpointable,
            private dmi::CommandTags::Client
{
  public:
    /** Latency-knob step: 6 cycles = 24 ns (paper §4.1). */
    static constexpr unsigned knobStepCycles = 6;

    struct Params
    {
        /** Initial knob position (0..7). */
        unsigned knobPosition = 0;
        /** Done tags that may share one upstream frame. */
        unsigned doneTagsPerFrame = 2;
        /**
         * Per-command watchdog: a memory access not completed this
         * long after issue is re-issued with exponential backoff,
         * then its tag is reclaimed (dmi::CommandTags).
         */
        Tick cmdTimeout = dmi::CommandTags::defaultTimeout;
    };

    Mbs(const std::string &name, EventQueue &eq,
        const ClockDomain &domain, stats::StatGroup *parent,
        const Params &params, dmi::BufferLink &link,
        bus::AvalonBus &bus);

    ~Mbs() override;

    /** Move the latency knob (software controllable, §4.1). */
    void setKnobPosition(unsigned pos);
    unsigned knobPosition() const { return params_.knobPosition; }

    /** Added one-way latency of the current knob setting. */
    Tick
    knobDelay() const
    {
        return clockPeriod() * params_.knobPosition * knobStepCycles;
    }

    /** True when all 32 engines are idle and nothing is queued. */
    bool quiescent() const;

    /** Engines currently owning a command. */
    unsigned activeEngines() const { return activeEngines_; }

    /** Route RAS events (reclaimed tags, poison) to the FSP log. */
    void attachErrorLog(firmware::ErrorLog *log) { tags_.attachErrorLog(log); }

    /**
     * Power-cut reset: drop every engine, partial command assembly,
     * queued arbitration and upstream frame, exactly as the real
     * FPGA does when the rails collapse. Stale bus completions that
     * arrive afterwards are discarded by the per-issue generation
     * guard; the host port's own abort handles the commands' fate.
     */
    void powerReset();

    /**
     * Fault injection: swallow the next @p n memory completions as
     * if the bus lost them, leaving the engines to their watchdogs.
     */
    void stallNextCompletions(unsigned n) { tags_.stallNextCompletions(n); }

    struct MbsStats
    {
        stats::Scalar reads;
        stats::Scalar writes;
        stats::Scalar rmws;
        stats::Scalar flushes;
        stats::Scalar inlineOps;
        stats::Scalar writeArbGrants;
        stats::Scalar addrOrderStalls;
        stats::Scalar upstreamFrames;
        stats::Scalar doneFramesPacked;
        stats::Scalar cmdTimeouts;        ///< Watchdog expirations.
        stats::Scalar cmdRetries;         ///< Accesses re-issued.
        stats::Scalar tagsReclaimed;      ///< Tags freed by force.
        stats::Scalar droppedCompletions; ///< Injected stalls consumed.
        stats::Scalar poisonedResponses;  ///< Poison sent upstream.
        stats::Distribution engineOccupancy;
    };

    const MbsStats &mbsStats() const { return stats_; }

    /** @{ ckpt::Checkpointable: the state that survives powerReset
     *  and steers future behavior — knob position, decoder rotation,
     *  then the tag core's tail (issue-sequence counter, stall
     *  budget, per-tag generation guards). Only legal while
     *  quiescent. */
    void checkpointSave(ckpt::Section &out) const override;
    void checkpointRestore(ckpt::Section &in) override;
    /** @} */

  private:
    enum class Phase : std::uint8_t
    {
        idle,
        readIssued,     ///< Waiting for memory read data.
        writeArb,       ///< Waiting for a write-port grant.
        writeIssued,    ///< Waiting for memory write completion.
        merging,        ///< In the RMW ALU.
    };

    struct Engine
    {
        bool active = false;
        Phase phase = Phase::idle;
        dmi::MemCommand cmd;
        dmi::CacheLine oldData{}; ///< Read data for RMW/inline ops.
    };

    void frameArrived(const dmi::DownFrame &frame);
    void dispatch(const dmi::MemCommand &cmd, unsigned decoder);
    void issueRead(unsigned tag, unsigned decoder);
    void readReturned(unsigned tag, const dmi::CacheLine &data,
                      bool poisoned);
    void requestWriteGrant(unsigned tag);
    void writeArbPump(unsigned port);
    void issueWrite(unsigned tag, unsigned port);
    void writeCompleted(unsigned tag);
    void mergeAndWrite(unsigned tag, unsigned port);
    void respondReadData(unsigned tag, const dmi::CacheLine &data,
                         bool poisoned);
    void respondDone(unsigned tag);
    void enqueueUpstream(const dmi::ResponseFrames &frames);
    void upstreamPump();
    void finishEngine(unsigned tag);

    /** @{ dmi::CommandTags::Client */
    void execute(const dmi::MemCommand &cmd, unsigned decoder) override;
    void reissueAccess(unsigned tag) override;
    void reclaimTag(unsigned tag) override;
    void fenceDone(unsigned tag) override;
    /** @} */

    /** Submit to the bus through the latency-knob delay modules. */
    void issueToBus(bus::AvalonBus::Port &port,
                    const mem::MemRequestPtr &req);

    Params params_;
    dmi::BufferLink &link_;
    bus::AvalonBus &bus_;
    dmi::CommandAssembler assembler_;
    std::array<Engine, dmi::numTags> engines_{};
    unsigned activeEngines_ = 0;
    unsigned frameCounter_ = 0; ///< Alternates the two decoders.

    bus::AvalonBus::Port *readPorts_[2];
    bus::AvalonBus::Port *writePorts_[2];

    /** Per-write-port arbitration queue of ready engines. */
    std::deque<std::uint8_t> writeReady_[2];
    EventFunctionWrapper writeArbEvent_[2];

    sim::Ring<dmi::UpFrame> upQueue_;
    EventFunctionWrapper upPumpEvent_;

    MbsStats stats_;
    dmi::CommandTags tags_;
};

} // namespace contutto::fpga

#endif // CONTUTTO_CONTUTTO_MBS_HH
