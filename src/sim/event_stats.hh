/**
 * @file
 * Stat-tree adapter for the event-core counters.
 *
 * EventQueue keeps its counters as plain integers so the hot paths
 * pay one increment, not a stat-object call; this group exposes them
 * as read-on-demand stats::Value entries under "eventq" in whatever
 * StatGroup tree owns the queue, so --stats-json picks them up with
 * no extra plumbing.
 */

#ifndef CONTUTTO_SIM_EVENT_STATS_HH
#define CONTUTTO_SIM_EVENT_STATS_HH

#include "sim/event.hh"
#include "sim/stats.hh"

namespace contutto
{

class EventCoreStats : public stats::StatGroup
{
  public:
    EventCoreStats(stats::StatGroup *parent, const EventQueue &eq)
        : stats::StatGroup("eventq", parent),
          processed(this, "processed", "events processed",
                    [&eq] { return double(eq.counters().processed); }),
          schedules(this, "schedules", "schedule() calls",
                    [&eq] { return double(eq.counters().schedules); }),
          deschedules(
              this, "deschedules", "deschedule() calls",
              [&eq] { return double(eq.counters().deschedules); }),
          reschedules(
              this, "reschedules", "reschedule() calls",
              [&eq] { return double(eq.counters().reschedules); }),
          rescheduleNoops(
              this, "rescheduleNoops",
              "same-tick reschedules elided by the fast path",
              [&eq] {
                  return double(eq.counters().rescheduleNoops);
              }),
          overflowSpills(
              this, "overflowSpills",
              "events scheduled beyond the wheel horizon",
              [&eq] { return double(eq.counters().overflowSpills); }),
          overflowPulls(
              this, "overflowPulls",
              "overflow residents migrated into the wheel",
              [&eq] { return double(eq.counters().overflowPulls); }),
          liveHighWater(
              this, "liveHighWater", "most live events at once",
              [&eq] { return double(eq.counters().liveHighWater); }),
          bucketHighWater(
              this, "bucketHighWater",
              "most events in one wheel bucket (one slot of "
              "wheelGrain ticks) at once",
              [&eq] {
                  return double(eq.counters().bucketHighWater);
              }),
          oneShotPoolHits(
              this, "oneShotPoolHits",
              "one-shot allocations served from the freelist",
              [&eq] {
                  return double(eq.counters().oneShotPoolHits);
              }),
          oneShotPoolMisses(
              this, "oneShotPoolMisses",
              "one-shot allocations that grew the pool",
              [&eq] {
                  return double(eq.counters().oneShotPoolMisses);
              }),
          oneShotPoolHitRate(
              this, "oneShotPoolHitRate",
              "fraction of one-shot allocations served by the pool",
              [&eq] {
                  const auto &c = eq.counters();
                  const double total = double(c.oneShotPoolHits)
                                       + double(c.oneShotPoolMisses);
                  return total > 0
                             ? double(c.oneShotPoolHits) / total
                             : 0.0;
              })
    {}

    stats::Value processed;
    stats::Value schedules;
    stats::Value deschedules;
    stats::Value reschedules;
    stats::Value rescheduleNoops;
    stats::Value overflowSpills;
    stats::Value overflowPulls;
    stats::Value liveHighWater;
    stats::Value bucketHighWater;
    stats::Value oneShotPoolHits;
    stats::Value oneShotPoolMisses;
    stats::Value oneShotPoolHitRate;
};

} // namespace contutto

#endif // CONTUTTO_SIM_EVENT_STATS_HH
