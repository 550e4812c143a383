/**
 * @file
 * Shared pieces of the host-speed benchmark (ct_perfbench).
 *
 * The benchmark drives the simulator only through its public APIs:
 * it builds systems, feeds them generated inputs, times the calls
 * and reads the stat trees afterwards. Nothing here reaches into the
 * models; per-layer figures come from the stat tree and from small
 * kernels that replay inputs recorded from the workload itself.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace perfbench
{

using contutto::Addr;
using contutto::Tick;

enum class Workload
{
    traceDetailed,
    traceSampled,
    socketMixed,
};

/** @return false for an unknown name. */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload w);

/** SplitMix64: the benchmark's own seeded stream for op mixes. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : x_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t x_;
};

/** FNV-1a, the fingerprint hash. */
inline std::uint64_t
fnv1a(const void *data, std::size_t len,
      std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One channel trip of a workload's input, as the kernels see it. */
struct Op
{
    Addr addr = 0;
    bool isWrite = false;
};

/**
 * A stat tree folded by component kind: every stat lands under
 * "<kind>.<stat>", summed over all components of that kind (both
 * DIMM controllers, all seven socket channels, ...). Kinds are the
 * leaf group names of the models: eventq, down and up (the DMI lanes
 * of each direction), link (either link endpoint), port, mbs,
 * centaur, ddr3, sampling, sharded.
 */
class StatSums
{
  public:
    explicit StatSums(const contutto::stats::StatGroup &root);

    /** Sum over components; 0 when no component has the stat. */
    double sum(const std::string &key) const;
    /** Largest value over components. */
    double max(const std::string &key) const;
    /** Sample-weighted mean of a Distribution over components. */
    double mean(const std::string &key) const;

    /**
     * Hash of the whole simulated-state stat tree (every stat's
     * JSON under its full path), with the eventq groups left out:
     * their counters describe how the host executed the queue, not
     * what was simulated.
     */
    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    struct Acc
    {
        /** Values summed; for a Distribution, its sample sum. */
        double sum = 0;
        double max = 0;
        /** Distribution samples (0 for plain values). */
        double samples = 0;
    };

    void walk(const contutto::stats::StatGroup &g,
              const std::string &path);

    std::map<std::string, Acc> acc_;
    std::uint64_t fingerprint_ = 0xcbf29ce484222325ull;
};

/** Inputs recorded from a workload for the layer kernels. */
struct Recording
{
    /** The first channel trips of the input, in issue order. */
    std::vector<Op> ops;
    /** Ticks between consecutive fired events. */
    std::vector<Tick> eventGaps;
    /** Mean live events in the queue over the recorded steps. */
    double meanLive = 0;
};

/** Per-unit host cost of each layer kernel, in ns. */
struct KernelCosts
{
    double crcDownNs = 0;      ///< per downstream frame
    double crcUpNs = 0;        ///< per upstream frame
    double scrambleDownNs = 0; ///< per downstream frame
    double scrambleUpNs = 0;   ///< per upstream frame
    double encodeNsPerCmd = 0;
    double assembleNsPerCmd = 0;
    double eventqNsPerEvent = 0;
    double ddr3NsPerAccess = 0;
    double ddr3EventsPerAccess = 0;
    double decodeNsPerRecord = 0; ///< 0 when the input is no trace
};

/** How one repetition of a workload runs. */
struct RepOptions
{
    /** Span capture on, plus the simulation-loop host-share probe. */
    bool traced = false;
    /** socket_mixed: worker threads instead of the serial fallback. */
    bool threaded = false;
    /** Trace workloads: re-capture the replay and compare. */
    bool recapture = false;
    /** Trace workloads: record kernel inputs while stepping. */
    Recording *record = nullptr;
};

/** What one repetition measured. */
struct Rep
{
    /** Input generation + system construction + link training. */
    double setupSec = 0;
    /** The timed phase: replay or closed loop to completion. */
    double runSec = 0;
    /** Channel trips: records replayed or socket ops completed. */
    std::uint64_t trips = 0;
    /** Trips that failed or came back poisoned. */
    std::uint64_t failed = 0;
    /** Simulated time the timed phase advanced. */
    Tick simTicks = 0;
    /** Trace checksum, or the socket op-stream hash. */
    std::uint64_t inputHash = 0;
    std::uint64_t fingerprint = 0;
    /** Failed correctness checks, one line each. */
    std::vector<std::string> errors;
    /** Stat tree right before and right after the timed phase. */
    std::vector<StatSums> stats;
    /** Max/mean of per-shard events processed (1 for one queue). */
    double shardImbalance = 1;
    /** Traced runs: share of simulation-loop wall spent simulating. */
    double stepShare = 0;
    /** Traced runs: mean exclusive simulated ns per traced trip. */
    std::map<std::string, double> stageNs;
};

/** Run one repetition of @p w on the input of @p seed. Files go
 *  under @p workdir. */
Rep runRep(Workload w, std::uint64_t seed, const std::string &workdir,
           const RepOptions &opt);

/** The trace file @p w replays (empty for socket_mixed). */
std::string tracePath(Workload w, const std::string &workdir);

/** Hash of the generated input of (w, seed), without simulating. */
std::uint64_t inputHash(Workload w, std::uint64_t seed,
                        const std::string &workdir);

/** socket_mixed: record kernel inputs by stepping each shard. */
void recordSocket(std::uint64_t seed, Recording &rec);

/**
 * Host-speed probe: ns per step of a fixed reference loop, benchmark
 * code shaped like an event loop (a 2048-entry min-heap whose pops
 * update a 64 Ki-entry table). The host is shared with other tenants
 * and its speed drifts by tens of percent over minutes; timed
 * repetitions are scaled by this probe, taken right before and right
 * after each one, so the reported figures read as on a host where the
 * loop takes referenceNominalNs per step.
 */
double referenceNs();

/** The reference loop's ns per step on a quiet run of the 4-core
 *  2.0 GHz host the benchmark was defined on. */
constexpr double referenceNominalNs = 50.0;

/** Time every kernel on @p rec; @p tracePath may be empty. */
KernelCosts runKernels(const Recording &rec,
                       const std::string &tracePath);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** End-to-end figures of the untraced timed phase. */
struct EndToEnd
{
    double tripsPerSec = 0;
    /** Median unscaled repetition throughput: the base the traced
     *  pass (one unscaled repetition) is compared with. */
    double medianTripsPerSec = 0;
    double simUsPerHostSec = 0;
    double setupSec = 0;
    double peakRssMiB = 0;
};

std::vector<Metric> endToEndMetrics(const EndToEnd &e);

/**
 * Per-layer metrics and the host-cost ledger: stat-tree deltas of
 * @p timed (an untraced repetition), span stages of @p traced, and
 * the kernel costs @p k measured on this workload's recording.
 */
std::vector<Metric> layerMetrics(Workload w, const Rep &timed,
                                 const Rep &traced,
                                 const KernelCosts &k,
                                 const EndToEnd &e,
                                 double opFailShare);

/** The @p q quantile of @p v, interpolated linearly between order
 *  statistics; 0 for an empty vector. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
