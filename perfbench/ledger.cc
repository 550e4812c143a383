/**
 * @file
 * From stat trees, spans and kernel costs to named metrics.
 *
 * Counts come from the difference of the stat tree across the timed
 * phase of one untraced repetition, divided by that repetition's
 * trips. The ledger then prices each layer's units per trip with the
 * kernel cost measured on the same workload:
 *
 *   host_ns_per_trip.<layer> = kernel ns per unit x units per trip
 *   host_ns_per_trip.total   = 1e9 / trips_per_s
 *   host_ns_per_trip.unattributed = total - sum of the layer terms
 */

#include <sstream>

#include "perfbench.hh"

namespace perfbench
{

using namespace contutto;

namespace
{

/**
 * The component kind a stat group folds into ("" = not folded).
 * Model groups are named "<owner>.<component>" (e.g. "chan0.down",
 * "slot2.centaurMc1"), so the kind is read off the last segment.
 */
std::string
kindOf(const std::string &name)
{
    const std::string group = name.substr(name.rfind('.') + 1);
    if (group == "eventq" || group == "mbs" || group == "centaur"
        || group == "sampling" || group == "sharded" || group == "down"
        || group == "up")
        return group;
    if (group == "hostLink" || group == "mbi" || group == "centaurLink")
        return "link";
    if (group == "hostPort")
        return "port";
    if (group.rfind("mc", 0) == 0 || group.rfind("centaurMc", 0) == 0)
        return "ddr3";
    return {};
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

StatSums::StatSums(const stats::StatGroup &root)
{
    walk(root, "");
}

void
StatSums::walk(const stats::StatGroup &g, const std::string &path)
{
    const std::string here =
        path.empty() ? g.groupName() : path + "." + g.groupName();
    const std::string kind = kindOf(g.groupName());
    const bool hostSide = kind == "eventq";
    for (const stats::StatBase *s : g.ownStats()) {
        double v = 0;
        double samples = 0;
        if (auto *x = dynamic_cast<const stats::Scalar *>(s)) {
            v = x->value();
        } else if (auto *x = dynamic_cast<const stats::Value *>(s)) {
            v = x->value();
        } else if (auto *x =
                       dynamic_cast<const stats::Distribution *>(s)) {
            v = x->sum();
            samples = double(x->count());
        } else if (auto *x = dynamic_cast<const stats::Histogram *>(s)) {
            samples = double(x->count());
            v = x->mean() * samples;
        }
        if (!kind.empty()) {
            Acc &a = acc_[kind + "." + s->name()];
            a.sum += v;
            a.max = std::max(a.max, v);
            a.samples += samples;
        }
        if (!hostSide) {
            std::ostringstream os;
            os << here << '.' << s->name() << '=';
            s->json(os);
            const std::string line = os.str();
            fingerprint_ = fnv1a(line.data(), line.size(), fingerprint_);
        }
    }
    for (const stats::StatGroup *c : g.children())
        walk(*c, here);
}

double
StatSums::sum(const std::string &key) const
{
    auto it = acc_.find(key);
    return it == acc_.end() ? 0 : it->second.sum;
}

double
StatSums::max(const std::string &key) const
{
    auto it = acc_.find(key);
    return it == acc_.end() ? 0 : it->second.max;
}

double
StatSums::mean(const std::string &key) const
{
    auto it = acc_.find(key);
    return it == acc_.end() ? 0 : ratio(it->second.sum, it->second.samples);
}

std::vector<Metric>
endToEndMetrics(const EndToEnd &e)
{
    return {
        {"trips_per_s", e.tripsPerSec, "1/s"},
        {"sim_us_per_host_s", e.simUsPerHostSec, "us/s"},
        {"setup_s", e.setupSec, "s"},
        {"peak_rss_mib", e.peakRssMiB, "MiB"},
    };
}

std::vector<Metric>
layerMetrics(Workload w, const Rep &timed, const Rep &traced,
             const KernelCosts &k, const EndToEnd &e,
             double opFailShare)
{
    // A repetition that failed before its timed phase has no stat
    // trees; its layer metrics read 0 (the run is already failed).
    static const stats::StatGroup noStats("none");
    static const StatSums none(noStats);
    const bool have = timed.stats.size() == 2;
    const StatSums &a = have ? timed.stats.front() : none;
    const StatSums &b = have ? timed.stats.back() : none;
    auto d = [&](const std::string &key) {
        return b.sum(key) - a.sum(key);
    };
    const double trips = double(timed.trips ? timed.trips : 1);
    auto perTrip = [&](double v) { return v / trips; };

    // Channel work per trip.
    const double events = perTrip(d("eventq.processed"));
    const double portOps = d("port.reads") + d("port.writes");
    const double cmdsPerTrip = perTrip(portOps);
    const double downFrames = d("down.framesCarried");
    const double upFrames = d("up.framesCarried");
    const double frames = perTrip(downFrames + upFrames);
    // CRC runs once when a frame is sealed for sending and once when
    // the receiver checks it; the scrambler once at each end.
    const double crcPasses =
        perTrip(d("link.txPayloadFrames") + d("link.idleAcksSent")
                + downFrames + upFrames - d("down.framesDropped")
                - d("up.framesDropped"));
    const double scramblePasses = 2 * frames;
    const double ddrAccesses = perTrip(d("ddr3.reads") + d("ddr3.writes"));
    const double mbsCmds = d("mbs.reads") + d("mbs.writes") + d("mbs.rmws")
                           + d("mbs.flushes") + d("mbs.inlineOps");
    const double centaurCmds = d("centaur.reads") + d("centaur.writes")
                               + d("centaur.rmws") + d("centaur.flushes");

    const double crcNs = ratio(k.crcDownNs * downFrames
                                   + k.crcUpNs * upFrames,
                               downFrames + upFrames);
    const double scrambleNs =
        ratio(k.scrambleDownNs * downFrames + k.scrambleUpNs * upFrames,
              downFrames + upFrames);

    // The ledger. The standalone DDR3 kernel's time already includes
    // the events it fires, so those leave the event-queue term.
    const double total = ratio(1e9, e.tripsPerSec);
    const double ddrTerm = k.ddr3NsPerAccess * ddrAccesses;
    const double eventqTerm =
        k.eventqNsPerEvent
        * std::max(0.0, events - k.ddr3EventsPerAccess * ddrAccesses);
    const double crcTerm = crcNs * crcPasses;
    const double scrambleTerm = scrambleNs * scramblePasses;
    const double codecTerm =
        (k.encodeNsPerCmd + k.assembleNsPerCmd) * cmdsPerTrip;
    const double traceTerm =
        w == Workload::socketMixed ? 0 : k.decodeNsPerRecord;
    const double unattributed = total - ddrTerm - eventqTerm - crcTerm
                                - scrambleTerm - codecTerm - traceTerm;

    auto stage = [&](const char *name) {
        auto it = traced.stageNs.find(name);
        return it == traced.stageNs.end() ? 0.0 : it->second;
    };
    const double tracedTps = ratio(double(traced.trips), traced.runSec);

    return {
        // sim: the event queue
        {"sim.events_per_trip", events, "count/trip"},
        {"sim.schedules_per_trip", perTrip(d("eventq.schedules")),
         "count/trip"},
        {"sim.deschedules_per_trip", perTrip(d("eventq.deschedules")),
         "count/trip"},
        {"sim.overflow_spills_per_trip",
         perTrip(d("eventq.overflowSpills")), "count/trip"},
        {"sim.overflow_pulls_per_trip",
         perTrip(d("eventq.overflowPulls")), "count/trip"},
        {"sim.stale_pops_per_trip", perTrip(d("eventq.stalePops")),
         "count/trip"},
        {"sim.live_high_water", b.max("eventq.liveHighWater"), "count"},
        {"sim.eventq_ns_per_event", k.eventqNsPerEvent, "ns"},
        {"sim.step_host_share", traced.stepShare, "ratio"},
        // sim: sampling
        {"sampling.detailed_share", cmdsPerTrip, "ratio"},
        {"sampling.windows", d("sampling.windows"), "count"},
        // sim: the sharded executor
        {"parallel.windows", d("sharded.windows"), "count"},
        {"parallel.barriers", d("sharded.barriers"), "count"},
        {"parallel.messages_per_trip", perTrip(d("sharded.messages")),
         "count/trip"},
        {"parallel.idle_skips", d("sharded.idleSkips"), "count"},
        {"parallel.mailbox_high_water", b.max("sharded.mailboxHighWater"),
         "count"},
        {"parallel.shard_event_imbalance", timed.shardImbalance, "ratio"},
        // trace decode
        {"trace.decode_ns_per_record", k.decodeNsPerRecord, "ns"},
        // cpu: the host port
        {"port.tag_stall_share", ratio(d("port.tagStalls"), portOps),
         "ratio"},
        {"port.sim_read_latency_ns", b.mean("port.readLatency"), "ns"},
        {"port.sim_write_latency_ns", b.mean("port.writeLatency"), "ns"},
        // dmi
        {"dmi.frames_per_trip", frames, "count/trip"},
        {"dmi.bytes_per_trip",
         perTrip(d("down.bytesCarried") + d("up.bytesCarried")), "B/trip"},
        {"dmi.idle_acks_per_trip", perTrip(d("link.idleAcksSent")),
         "count/trip"},
        {"dmi.crc_passes_per_trip", crcPasses, "count/trip"},
        {"dmi.frames_replayed", d("link.framesReplayed"), "count"},
        {"dmi.crc16_ns_per_frame", crcNs, "ns"},
        {"dmi.scramble_ns_per_frame", scrambleNs, "ns"},
        {"dmi.encode_ns_per_cmd", k.encodeNsPerCmd, "ns"},
        {"dmi.assemble_ns_per_cmd", k.assembleNsPerCmd, "ns"},
        // contutto: the MBS
        {"mbs.cmd_timeouts_per_cmd", ratio(d("mbs.cmdTimeouts"), mbsCmds),
         "ratio"},
        {"mbs.upstream_frames_per_trip", perTrip(d("mbs.upstreamFrames")),
         "count/trip"},
        {"mbs.done_frames_packed", d("mbs.doneFramesPacked"), "count"},
        {"mbs.addr_order_stalls", d("mbs.addrOrderStalls"), "count"},
        // centaur
        {"centaur.cache_hit_share",
         ratio(d("centaur.cacheHits"),
               d("centaur.cacheHits") + d("centaur.cacheMisses")),
         "ratio"},
        {"centaur.cmd_timeouts_per_cmd",
         ratio(d("centaur.cmdTimeouts"), centaurCmds), "ratio"},
        // mem: DDR3
        {"ddr3.accesses_per_trip", ddrAccesses, "count/trip"},
        {"ddr3.row_hit_share",
         ratio(d("ddr3.rowHits"), d("ddr3.rowHits") + d("ddr3.rowMisses")),
         "ratio"},
        {"ddr3.refreshes", d("ddr3.refreshes"), "count"},
        {"ddr3.ns_per_access", k.ddr3NsPerAccess, "ns"},
        // the host-cost ledger
        {"host_ns_per_trip.eventq", eventqTerm, "ns"},
        {"host_ns_per_trip.ddr3", ddrTerm, "ns"},
        {"host_ns_per_trip.dmi_crc", crcTerm, "ns"},
        {"host_ns_per_trip.dmi_scramble", scrambleTerm, "ns"},
        {"host_ns_per_trip.dmi_codec", codecTerm, "ns"},
        {"host_ns_per_trip.trace", traceTerm, "ns"},
        {"host_ns_per_trip.unattributed", unattributed, "ns"},
        {"host_ns_per_trip.total", total, "ns"},
        // the traced pass: simulated exclusive ns per traced trip
        {"sim_ns.host", stage("host"), "ns"},
        {"sim_ns.host_tagwait", stage("host.tagwait"), "ns"},
        {"sim_ns.dmi_down", stage("dmi.down"), "ns"},
        {"sim_ns.dmi_up", stage("dmi.up"), "ns"},
        {"sim_ns.dmi_replay", stage("dmi.replay"), "ns"},
        {"sim_ns.mbs", stage("mbs"), "ns"},
        {"sim_ns.mbs_knob", stage("mbs.knob"), "ns"},
        {"sim_ns.centaur", stage("centaur"), "ns"},
        {"sim_ns.ddr", stage("ddr"), "ns"},
        {"trace_overhead_share",
         1.0 - ratio(tracedTps, e.medianTripsPerSec),
         "ratio"},
        {"op_fail_share", opFailShare, "ratio"},
    };
}

} // namespace perfbench
