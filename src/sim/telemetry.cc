#include "sim/telemetry.hh"

#include <algorithm>

namespace contutto::telemetry
{

void
writePerfettoTrace(const std::vector<span::Span> &spans,
                   std::ostream &os)
{
    std::vector<span::Span> sorted = spans;
    std::sort(sorted.begin(), sorted.end(),
              [](const span::Span &a, const span::Span &b) {
                  if (a.begin != b.begin)
                      return a.begin < b.begin;
                  return a.seq < b.seq;
              });
    // One canonical event per element, streamed: a full capture
    // is up to the tracker's capacity of spans.
    const char *sep = "";
    os << '[';
    for (const span::Span &s : sorted) {
        // Ticks are picoseconds; trace-event "ts"/"dur" are
        // microseconds (fractional values are accepted).
        Json ev = Json::object();
        ev.set("name", Json::string(s.stage));
        ev.set("cat", Json::string("span"));
        ev.set("ph", Json::string("X"));
        ev.set("ts", Json::number(double(s.begin) * 1e-6));
        ev.set("dur", Json::number(double(s.end - s.begin) * 1e-6));
        ev.set("pid", Json::number(std::uint64_t(0)));
        ev.set("tid", Json::number(s.id));
        Json args = Json::object();
        args.set("traceId", Json::number(s.id));
        ev.set("args", std::move(args));
        os << sep << ev.dump();
        sep = ",";
    }
    os << "]\n";
}

void
writePerfettoTrace(std::ostream &os)
{
    writePerfettoTrace(span::snapshot(), os);
}

IntervalDumper::IntervalDumper(EventQueue &eq,
                               const stats::StatGroup &group,
                               Tick period)
    : eq_(eq), group_(group), period_(period),
      event_([this] { tick(); }, group.groupName() + ".statsDump")
{
    ct_assert(period_ > 0);
}

IntervalDumper::~IntervalDumper()
{
    stop();
}

void
IntervalDumper::start()
{
    if (!event_.scheduled())
        eq_.schedule(&event_, eq_.curTick() + period_);
}

void
IntervalDumper::stop()
{
    if (event_.scheduled())
        eq_.deschedule(&event_);
}

void
IntervalDumper::snapshot()
{
    Json snap = Json::object();
    snap.set("tick", Json::number(eq_.curTick()));
    snap.set("stats", stats::toJson(group_));
    snaps_.append(std::move(snap));
}

void
IntervalDumper::tick()
{
    snapshot();
    eq_.schedule(&event_, eq_.curTick() + period_);
}

Json
IntervalDumper::json() const
{
    Json j = Json::object();
    j.set("period", Json::number(period_));
    j.set("snapshots", snaps_);
    return j;
}

void
IntervalDumper::write(std::ostream &os) const
{
    os << json().dump() << '\n';
}

} // namespace contutto::telemetry
