/**
 * @file
 * Capture-side glue: absolute simulation ticks in, delta-encoded
 * records out.
 *
 * CaptureSink is the hook the cpu-layer drivers call on every
 * channel trip. It owns one TraceWriter, converts the driver's
 * absolute curTick into the on-disk tick-delta stream, and applies
 * an optional rigid base shift so a trace replayed mid-run (after
 * link training) can be re-captured byte-identically — the shift
 * puts the recapture back on the original time origin.
 */

#ifndef CONTUTTO_TRACE_CAPTURE_HH
#define CONTUTTO_TRACE_CAPTURE_HH

#include <string>

#include "sim/logging.hh"
#include "trace/writer.hh"

namespace contutto::trace
{

/** Per-driver capture hook; see the file comment. */
class CaptureSink
{
  public:
    explicit CaptureSink(std::string path,
                         const TraceWriter::Options &options = {})
        : writer_(std::move(path), options)
    {}

    /**
     * Record one channel trip issued at absolute @p tick. Ticks
     * must be non-decreasing after the base shift; the delta
     * encoding enforces that.
     */
    void
    record(Tick tick, Addr addr, Op op, std::uint8_t sizeLog2 = 7)
    {
        record(tick, addr, op, sizeLog2, writer_.threadId());
    }

    /** As above with an explicit threadId — the recapture path,
     *  which must preserve the input trace's ids. */
    void
    record(Tick tick, Addr addr, Op op, std::uint8_t sizeLog2,
           std::uint16_t threadId)
    {
        Tick shifted = tick - base_;
        ct_assert(shifted >= lastTick_);
        Record rec;
        rec.tickDelta = shifted - lastTick_;
        rec.addr = addr;
        rec.op = op;
        rec.sizeLog2 = sizeLog2;
        rec.threadId = threadId;
        writer_.append(rec);
        lastTick_ = shifted;
    }

    /** Rigid shift subtracted from every subsequent tick; lets a
     *  replayer starting at tick T re-emit a trace whose origin was
     *  tick 0. Set before the first record. */
    void
    setBase(Tick base)
    {
        ct_assert(lastTick_ == 0);
        base_ = base;
    }

    /** Seal the trace file; see TraceWriter::close. */
    void close() { writer_.close(); }

    std::uint64_t recordCount() const
    {
        return writer_.recordCount();
    }
    std::uint64_t checksum() const { return writer_.checksum(); }
    const std::string &path() const { return writer_.path(); }

  private:
    TraceWriter writer_;
    Tick base_ = 0;
    Tick lastTick_ = 0;
};

} // namespace contutto::trace

#endif // CONTUTTO_TRACE_CAPTURE_HH
