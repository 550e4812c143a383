/**
 * @file
 * Shared helpers for the experiment-reproduction binaries.
 *
 * Each bench binary regenerates one table or figure from the paper
 * and prints the modelled numbers next to the paper's reference
 * values so the shape comparison is immediate.
 */

#ifndef CONTUTTO_BENCH_BENCH_UTIL_HH
#define CONTUTTO_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu/system.hh"
#include "sim/checkpoint.hh"
#include "sim/sampling.hh"
#include "sim/span.hh"
#include "sim/telemetry.hh"

namespace bench
{

using namespace contutto;
using namespace contutto::cpu;

/** Two DRAM DIMMs behind a ConTutto card (the Figure 7 setup). */
inline Power8System::Params
contuttoSystem(std::uint64_t dimm_bytes = 512 * MiB)
{
    Power8System::Params p;
    p.buffer = BufferKind::contutto;
    p.dimms = {DimmSpec{mem::MemTech::dram, dimm_bytes, {}, {}},
               DimmSpec{mem::MemTech::dram, dimm_bytes, {}, {}}};
    return p;
}

/** Two MRAM DIMMs behind a ConTutto card (the §4.2 setup). */
inline Power8System::Params
mramSystem(std::uint64_t dimm_bytes = 256 * MiB)
{
    Power8System::Params p;
    p.buffer = BufferKind::contutto;
    p.dimms = {DimmSpec{mem::MemTech::sttMram, dimm_bytes,
                        mem::MramDevice::Junction::pMTJ, {}},
               DimmSpec{mem::MemTech::sttMram, dimm_bytes,
                        mem::MramDevice::Junction::pMTJ, {}}};
    return p;
}

/** A Centaur baseline system. */
inline Power8System::Params
centaurSystem(centaur::CentaurModel::Config cfg,
              std::uint64_t total_bytes = 1 * GiB)
{
    Power8System::Params p;
    p.buffer = BufferKind::centaur;
    p.centaurConfig = cfg;
    p.dimms = {DimmSpec{mem::MemTech::dram, total_bytes, {}, {}}};
    return p;
}

/**
 * Parse `--seed N` (or `--seed=N`) from argv. Every randomized
 * experiment binary routes its reproducibility through this one
 * flag: same seed, same printed numbers.
 */
inline std::uint64_t
parseSeed(int argc, char **argv, std::uint64_t def = 1)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--seed=", 7) == 0)
            return std::strtoull(arg + 7, nullptr, 0);
        if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc)
            return std::strtoull(argv[i + 1], nullptr, 0);
    }
    return def;
}

/** Parse `--name=VALUE` (or `--name VALUE`) as a string. */
inline std::string
parseFlag(int argc, char **argv, const char *name,
          const std::string &def = {})
{
    const std::string eq = std::string(name) + "=";
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, eq.c_str(), eq.size()) == 0)
            return arg + eq.size();
        if (std::strcmp(arg, name) == 0 && i + 1 < argc)
            return argv[i + 1];
    }
    return def;
}

/** Parse `--name=N` (or `--name N`) as an unsigned integer. */
inline std::uint64_t
parseUnsigned(int argc, char **argv, const char *name,
              std::uint64_t def = 0)
{
    const std::string v = parseFlag(argc, argv, name);
    return v.empty() ? def : std::strtoull(v.c_str(), nullptr, 0);
}

/**
 * A stable FNV-1a hash of the simulation-relevant command line: the
 * binary's base name and every argument but the telemetry output
 * flags and the @p pathFlags (`--name=VALUE` or `--name VALUE`),
 * whose values name files. A bench that reads a file hashes its
 * content in their place, so one input gives one hash wherever it
 * lies.
 */
inline std::uint64_t
commandLineHash(int argc, char **argv,
                std::initializer_list<const char *> pathFlags = {})
{
    std::string canon;
    if (argc > 0) {
        const char *base = std::strrchr(argv[0], '/');
        canon = base ? base + 1 : argv[0];
    }
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        // Where the stats are *written* cannot change what was
        // *simulated*.
        if (std::strncmp(arg, "--stats-json=", 13) == 0
            || std::strncmp(arg, "--trace-out=", 12) == 0
            || std::strncmp(arg, "--trace-sample=", 15) == 0
            || std::strncmp(arg, "--stats-interval=", 17) == 0)
            continue;
        bool isPath = false;
        for (const char *name : pathFlags) {
            const std::size_t n = std::strlen(name);
            if (std::strncmp(arg, name, n) == 0
                && (arg[n] == '=' || arg[n] == '\0')) {
                isPath = true;
                i += arg[n] == '\0'; // `--name VALUE`: skip VALUE
            }
        }
        if (isPath)
            continue;
        canon += ' ';
        canon += arg;
    }
    return contutto::ckpt::fnv1a(canon.data(), canon.size());
}

/**
 * The configHash of bench_trace_replay over trace content
 * @p checksum: its command line without the flags that name files
 * (--trace, --out, --recapture), then the checksum.
 */
inline std::uint64_t
traceConfigHash(int argc, char **argv, std::uint64_t checksum)
{
    return contutto::ckpt::fnv1a(
        &checksum, sizeof(checksum),
        commandLineHash(argc, argv,
                        {"--trace", "--out", "--recapture"}));
}

/**
 * Parse the sampled-execution knobs shared by every bench binary:
 *
 *   --sample-mode         run in SMARTS-style sampled mode
 *   --sample-warmup=N     detailed unmeasured misses per window
 *   --sample-window=N     measured misses per window
 *   --sample-period=N     misses between window starts
 *
 * The knob flags are part of the simulation-relevant command line,
 * so Telemetry folds them into the stats-JSON configHash
 * automatically — a sampled capture can never collide with a
 * detailed one.
 */
inline contutto::sim::SamplingConfig
parseSamplingConfig(int argc, char **argv)
{
    contutto::sim::SamplingConfig cfg;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--sample-mode") == 0)
            cfg.enabled = true;
    cfg.warmupUnits = parseUnsigned(argc, argv, "--sample-warmup",
                                    cfg.warmupUnits);
    cfg.windowUnits = parseUnsigned(argc, argv, "--sample-window",
                                    cfg.windowUnits);
    cfg.periodUnits = parseUnsigned(argc, argv, "--sample-period",
                                    cfg.periodUnits);
    return cfg;
}

/**
 * Uniform machine-readable telemetry for the experiment binaries.
 * Every bench accepts the same flags:
 *
 *   --stats-json=FILE     write captured StatGroup trees as JSON
 *   --trace-out=FILE      write spans as Chrome trace-event JSON
 *   --trace-sample=N      trace 1 in N operations (default: all)
 *   --stats-interval=NS   periodic snapshots too (where watched)
 *
 * Construct one Telemetry at the top of main(); span capture turns
 * on if (and only if) --trace-out was given, so the default run
 * keeps the single-relaxed-load fast path. Call capture() on each
 * system of interest while it is alive; the destructor (or an
 * explicit finish()) writes the requested files.
 */
class Telemetry
{
  public:
    Telemetry(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strncmp(arg, "--stats-json=", 13) == 0)
                statsPath_ = arg + 13;
            else if (std::strncmp(arg, "--trace-out=", 12) == 0)
                tracePath_ = arg + 12;
            else if (std::strncmp(arg, "--trace-sample=", 15) == 0)
                sample_ = std::strtoull(arg + 15, nullptr, 0);
            else if (std::strncmp(arg, "--stats-interval=", 17) == 0)
                intervalNs_ = std::strtoull(arg + 17, nullptr, 0);
        }
        if (sample_ == 0)
            sample_ = 1;
        // Self-describing stats: every stats-JSON leads with a meta
        // header carrying the binary name, the seed, and
        // commandLineHash(). Campaign binaries with a real Spec
        // override the hash with setConfigHash(spec.hash()): that
        // pair (configHash, seed) is exactly the campaign service's
        // memo key.
        seed_ = parseSeed(argc, argv);
        sampling_ = parseSamplingConfig(argc, argv);
        if (argc > 0) {
            const char *base = std::strrchr(argv[0], '/');
            binary_ = base ? base + 1 : argv[0];
        }
        configHash_ = commandLineHash(argc, argv);
        if (!tracePath_.empty()) {
            span::reset();
            span::setSampleInterval(sample_);
            span::setEnabled(true);
        }
    }

    ~Telemetry() { finish(); }

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /** True when span capture is on (--trace-out given). */
    bool tracing() const { return !tracePath_.empty(); }

    /** True when a stats file was requested (--stats-json given). */
    bool wantStats() const { return !statsPath_.empty(); }

    /** Replace the argv-derived config hash with a real Spec hash
     *  (the campaign service memo key for this config). */
    void setConfigHash(std::uint64_t h) { configHash_ = h; }

    std::uint64_t configHash() const { return configHash_; }
    std::uint64_t seed() const { return seed_; }

    /** The sampled-execution knobs parsed from the command line. */
    const contutto::sim::SamplingConfig &samplingConfig() const
    {
        return sampling_;
    }

    /** Snapshot @p group's whole stats tree now, under @p label. */
    void
    capture(const std::string &label, const stats::StatGroup &group)
    {
        if (statsPath_.empty())
            return;
        Json c = Json::object();
        c.set("label", Json::string(label));
        c.set("stats", stats::toJson(group));
        captures_.append(std::move(c));
    }

    /** Periodic snapshots of @p group (active with
     *  --stats-interval); call unwatch() before @p eq dies. */
    void watch(EventQueue &eq, const stats::StatGroup &group)
    {
        if (statsPath_.empty() || intervalNs_ == 0)
            return;
        unwatch();
        dumper_ = std::make_unique<telemetry::IntervalDumper>(
            eq, group, nanoseconds(intervalNs_));
        dumper_->start();
    }

    /** Stop periodic snapshots; the series goes into the file. */
    void unwatch()
    {
        if (!dumper_)
            return;
        intervals_ = dumper_->json();
        dumper_.reset();
    }

    /** Write any requested output files (idempotent). */
    void finish()
    {
        if (finished_)
            return;
        finished_ = true;
        unwatch();
        if (!statsPath_.empty())
            writeStats();
        if (!tracePath_.empty())
            writeTrace();
    }

  private:
    void writeStats()
    {
        std::ofstream os(statsPath_);
        if (!os) {
            std::fprintf(stderr, "telemetry: cannot write %s\n",
                         statsPath_.c_str());
            return;
        }
        char hash[32];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      (unsigned long long)configHash_);
        Json meta = Json::object();
        meta.set("binary", Json::string(binary_));
        meta.set("configHash", Json::string(hash));
        meta.set("seed", Json::number(seed_));
        meta.set("simMode", Json::string(sampling_.enabled ? "sampled"
                                                           : "detailed"));
        if (sampling_.enabled) {
            Json knobs = Json::object();
            knobs.set("warmupUnits", Json::number(sampling_.warmupUnits));
            knobs.set("windowUnits", Json::number(sampling_.windowUnits));
            knobs.set("periodUnits", Json::number(sampling_.periodUnits));
            meta.set("sampling", std::move(knobs));
        }
        Json doc = Json::object();
        doc.set("meta", std::move(meta));
        const std::size_t n = captures_.items().size();
        doc.set("captures", std::move(captures_));
        if (!intervals_.isNull())
            doc.set("intervals", std::move(intervals_));
        os << doc.dump() << '\n';
        std::printf("[telemetry] stats json: %s (%zu captures)\n",
                    statsPath_.c_str(), n);
    }

    void writeTrace()
    {
        std::ofstream os(tracePath_);
        if (!os) {
            std::fprintf(stderr, "telemetry: cannot write %s\n",
                         tracePath_.c_str());
            return;
        }
        std::vector<span::Span> spans = span::snapshot();
        telemetry::writePerfettoTrace(spans, os);
        os << "\n";
        std::printf("[telemetry] trace: %s (%zu spans, 1-in-%llu "
                    "sampling, %llu dropped)\n",
                    tracePath_.c_str(), spans.size(),
                    (unsigned long long)sample_,
                    (unsigned long long)span::droppedSpans());
    }

    std::string statsPath_;
    std::string tracePath_;
    std::string binary_;
    std::uint64_t seed_ = 1;
    contutto::sim::SamplingConfig sampling_{};
    std::uint64_t configHash_ = 0;
    std::uint64_t sample_ = 1;
    std::uint64_t intervalNs_ = 0;
    Json captures_ = Json::array();
    Json intervals_;
    std::unique_ptr<telemetry::IntervalDumper> dumper_;
    bool finished_ = false;
};

inline void
header(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

inline void
rule()
{
    std::printf("--------------------------------------------------"
                "----------------------\n");
}

} // namespace bench

#endif // CONTUTTO_BENCH_BENCH_UTIL_HH
