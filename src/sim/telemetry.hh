/**
 * @file
 * Machine-readable telemetry exporters.
 *
 * Two output formats sit on top of the stats and span facilities:
 *
 *  - writePerfettoTrace() renders the span tracker's captured spans
 *    as a Chrome/Perfetto trace-event JSON array ("X" complete
 *    events, microsecond timestamps, one tid per trace id), so a
 *    single command's life across host port, DMI link, buffer and
 *    DDR controller can be loaded straight into chrome://tracing or
 *    ui.perfetto.dev.
 *
 *  - stats::toJson() (sim/stats.hh) snapshots a whole StatGroup
 *    tree; IntervalDumper takes such snapshots periodically on the
 *    event queue and writes them out as one JSON object, giving
 *    benches a time series rather than only an end-of-run total.
 *
 * Both are built on Json (sim/json.hh) and written in its canonical
 * form, so Json::parse(text).dump() gives back the same text.
 */

#ifndef CONTUTTO_SIM_TELEMETRY_HH
#define CONTUTTO_SIM_TELEMETRY_HH

#include <ostream>
#include <vector>

#include "sim/event.hh"
#include "sim/json.hh"
#include "sim/span.hh"
#include "sim/stats.hh"

namespace contutto::telemetry
{

/**
 * Write the given spans as a Chrome trace-event JSON array, sorted
 * by begin time (monotonic "ts"). Instant spans get zero duration.
 */
void writePerfettoTrace(const std::vector<span::Span> &spans,
                        std::ostream &os);

/** Convenience: export the span tracker's current capture. */
void writePerfettoTrace(std::ostream &os);

/**
 * Periodic stats snapshots: every @p period ticks the group tree is
 * serialized and retained; write() emits the collected snapshots as
 * {"period": N, "snapshots": [{"tick": T, "stats": {...}}, ...]}.
 */
class IntervalDumper
{
  public:
    IntervalDumper(EventQueue &eq, const stats::StatGroup &group,
                   Tick period);
    ~IntervalDumper();

    /** Begin sampling (first snapshot one period from now). */
    void start();

    /** Stop sampling; collected snapshots stay available. */
    void stop();

    /** Take one snapshot immediately (also called by the timer). */
    void snapshot();

    std::size_t snapshots() const { return snaps_.items().size(); }

    /** Everything collected so far as one JSON object. */
    Json json() const;

    /** Write json() to @p os, then a newline. */
    void write(std::ostream &os) const;

  private:
    void tick();

    EventQueue &eq_;
    const stats::StatGroup &group_;
    Tick period_;
    /** [{"tick": T, "stats": {...}}, ...] */
    Json snaps_ = Json::array();
    EventFunctionWrapper event_;
};

} // namespace contutto::telemetry

#endif // CONTUTTO_SIM_TELEMETRY_HH
