/**
 * @file
 * The processor-side DMI requester.
 *
 * Models the POWER8 nest's memory-channel interface: commands are
 * issued with one of 32 tags; read data and done indications come
 * back tagged; a tag frees when its done arrives, and when all tags
 * are in flight the processor cannot issue further commands (paper
 * §2.3) — queued operations wait, which is exactly why keeping the
 * buffer's round-trip latency low matters.
 */

#ifndef CONTUTTO_CPU_HOST_PORT_HH
#define CONTUTTO_CPU_HOST_PORT_HH

#include <functional>

#include "dmi/codec.hh"
#include "dmi/link.hh"
#include "sim/ring.hh"

namespace contutto::cpu
{

/** Completion data handed to operation callbacks. */
struct HostOpResult
{
    dmi::CacheLine data{};   ///< Read data / swap old value.
    bool swapSucceeded = false;
    /** True when the operation was aborted (channel reset). */
    bool failed = false;
    /** True when the buffer marked the data uncorrectable (ECC). */
    bool poisoned = false;
    Tick issuedAt = 0;
    Tick dataAt = 0;         ///< When read data arrived (reads).
    Tick doneAt = 0;         ///< When the done freed the tag.
    /**
     * Trace id of this operation (sim/span.hh); noTraceId when span
     * tracking is off or the op was not sampled. Callers can pass it
     * to span::breakdown() for a per-stage latency attribution.
     */
    TraceId traceId = noTraceId;
};

/** The host's memory-channel port. */
class HostMemPort : public SimObject
{
  public:
    using Callback = std::function<void(const HostOpResult &)>;

    HostMemPort(const std::string &name, EventQueue &eq,
                const ClockDomain &domain, stats::StatGroup *parent,
                dmi::HostLink &link);

    /** @{ Issue operations; callbacks fire when the tag completes. */
    void read(Addr addr, Callback cb);
    void write(Addr addr, const dmi::CacheLine &data, Callback cb);
    void partialWrite(Addr addr, const dmi::CacheLine &data,
                      const dmi::ByteEnable &enables, Callback cb);
    void flush(Callback cb);
    void minStore(Addr addr, const dmi::CacheLine &data, Callback cb);
    void maxStore(Addr addr, const dmi::CacheLine &data, Callback cb);
    void condSwap(Addr addr, std::uint64_t expected,
                  std::uint64_t desired, Callback cb);
    /** @} */

    /**
     * Fail every in-flight and queued operation (what the OS does
     * when the channel is reset after an unrecoverable link fault):
     * callbacks fire with result.failed set, all tags free.
     */
    void abortInFlight();

    /** Commands in flight (tags held). */
    unsigned inFlight() const { return inFlight_; }

    /** Operations waiting for a free tag. */
    std::size_t queued() const { return pending_.size(); }

    /** True when nothing is in flight or queued. */
    bool idle() const { return inFlight_ == 0 && pending_.empty(); }

    struct PortStats
    {
        stats::Scalar reads;
        stats::Scalar writes;
        stats::Scalar rmws;
        stats::Scalar flushes;
        stats::Scalar inlineOps;
        stats::Scalar tagStalls; ///< Ops that had to wait for a tag.
        stats::Scalar poisonedResponses; ///< Poisoned data received.
        stats::Distribution readLatency;  ///< ns, issue to data.
        stats::Distribution writeLatency; ///< ns, issue to done.
    };

    const PortStats &portStats() const { return stats_; }

  private:
    struct PendingOp
    {
        dmi::MemCommand cmd;
        Callback cb;
    };

    struct TagState
    {
        bool busy = false;
        dmi::CmdType type = dmi::CmdType::read128;
        Callback cb;
        HostOpResult result;
    };

    void issue(dmi::MemCommand cmd, Callback cb,
               bool queuedRetry = false);
    void tryIssueQueued();
    void frameArrived(const dmi::UpFrame &frame);
    void responseArrived(const dmi::MemResponse &resp);

    dmi::HostLink &link_;
    dmi::ResponseAssembler assembler_;
    std::array<TagState, dmi::numTags> tags_{};
    unsigned inFlight_ = 0;
    sim::Ring<PendingOp> pending_;
    PortStats stats_;
};

} // namespace contutto::cpu

#endif // CONTUTTO_CPU_HOST_PORT_HH
