#include "service/protocol.hh"

#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "cpu/trace_replay.hh"
#include "sim/checkpoint.hh"
#include "trace/reader.hh"
#include "workloads/spec.hh"

namespace contutto::service
{

std::string
hashHex(std::uint64_t h)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)h);
    return buf;
}

Request
Request::fromJson(const Json &j)
{
    Request r;
    r.id = j.at("id").asString();
    if (r.id.empty())
        throw ProtocolError("submit: empty id");
    if (r.id.size() > 256)
        throw ProtocolError("submit: id too long");
    r.kind = j.at("kind").asString();
    r.seed = j.getU64("seed", 1);
    if (const Json *p = j.find("priority"))
        r.priority = p->asI64();
    r.deadlineMs = j.getU64("deadlineMs", 0);
    r.stream = j.getBool("stream", false);
    r.traceId = j.getU64("traceId", 0);
    if (const Json *c = j.find("config")) {
        if (!c->isObject())
            throw ProtocolError("submit: config must be an object");
        r.config = *c;
    }
    return r;
}

Json
Request::toJson() const
{
    Json j = Json::object();
    j.set("type", Json::string("submit"));
    j.set("id", Json::string(id));
    j.set("kind", Json::string(kind));
    j.set("seed", Json::number(seed));
    j.set("priority", Json::number(priority));
    j.set("deadlineMs", Json::number(deadlineMs));
    // Only when set: a non-streaming submit keeps the exact wire
    // bytes it had before the telemetry plane existed.
    if (stream)
        j.set("stream", Json::boolean(true));
    if (traceId != 0)
        j.set("traceId", Json::number(traceId));
    j.set("config", config);
    return j;
}

namespace
{

/**
 * Walk @p config applying each member to a knob, collecting typos.
 * Campaign configs are small; a linear table keeps each kind's
 * knob list next to its Spec without macro machinery.
 */
class KnobReader
{
  public:
    explicit KnobReader(const Json &config) : config_(config) {}

    void
    u32(const char *name, unsigned &out)
    {
        if (const Json *v = config_.find(name)) {
            std::uint64_t raw = v->asU64();
            if (raw > 0xffffffffull)
                throw ProtocolError(std::string("config: ") + name
                                    + " out of range");
            out = unsigned(raw);
            ++consumed_;
        }
    }

    void
    u64(const char *name, std::uint64_t &out)
    {
        if (const Json *v = config_.find(name)) {
            out = v->asU64();
            ++consumed_;
        }
    }

    void
    str(const char *name, std::string &out)
    {
        if (const Json *v = config_.find(name)) {
            out = v->asString();
            ++consumed_;
        }
    }

    /** Every member must have matched a knob. */
    void
    finish() const
    {
        if (consumed_ == config_.members().size())
            return;
        // Name the first offender for the error message.
        for (const auto &kv : config_.members()) {
            if (!known_.count(kv.first))
                throw ProtocolError("config: unknown knob '"
                                    + kv.first + "'");
        }
        throw ProtocolError("config: unknown knob");
    }

    /** Record a knob name as known (even if absent). */
    void
    known(std::initializer_list<const char *> names)
    {
        for (const char *n : names)
            known_.insert(n);
    }

  private:
    const Json &config_;
    std::size_t consumed_ = 0;
    std::set<std::string> known_;
};

} // namespace

CampaignJob::CampaignJob(const std::string &kind,
                         std::uint64_t seed, const Json &config)
    : kind_(kind), seed_(seed)
{
    KnobReader k(config);
    if (kind == "ras_soak") {
        k.known({"bitFlips", "frameCorruptions", "frameDrops",
                 "burstErrors", "engineStalls", "ops", "faultBase",
                 "faultSize", "durationUs"});
        k.u32("bitFlips", soak_.bitFlips);
        k.u32("frameCorruptions", soak_.frameCorruptions);
        k.u32("frameDrops", soak_.frameDrops);
        k.u32("burstErrors", soak_.burstErrors);
        k.u32("engineStalls", soak_.engineStalls);
        k.u32("ops", soak_.ops);
        k.u64("faultBase", soak_.faultBase);
        k.u64("faultSize", soak_.faultSize);
        std::uint64_t durationUs = soak_.duration / microseconds(1);
        k.u64("durationUs", durationUs);
        soak_.duration = microseconds(durationUs);
        k.finish();
        if (soak_.ops == 0)
            throw ProtocolError("config: ops must be >= 1");
        soak_.seed = seed;
        configHash_ = soak_.hash();
    } else if (kind == "crash") {
        k.known({"powerCuts", "regionBlocks", "queueDepth",
                 "longOutageEvery", "brownouts", "dimmCapacityMiB"});
        k.u32("powerCuts", crash_.powerCuts);
        k.u32("regionBlocks", crash_.regionBlocks);
        k.u32("queueDepth", crash_.queueDepth);
        k.u32("longOutageEvery", crash_.longOutageEvery);
        k.u32("brownouts", crash_.brownouts);
        std::uint64_t capMiB = crash_.dimmCapacity / MiB;
        k.u64("dimmCapacityMiB", capMiB);
        crash_.dimmCapacity = capMiB * MiB;
        k.finish();
        if (crash_.powerCuts == 0 || crash_.regionBlocks == 0
            || crash_.queueDepth == 0)
            throw ProtocolError(
                "config: powerCuts/regionBlocks/queueDepth must "
                "be >= 1");
        if (std::uint64_t(crash_.regionBlocks) * 4096
            > crash_.dimmCapacity)
            throw ProtocolError(
                "config: region larger than the DIMM");
        crash_.seed = seed;
        configHash_ = crash_.hash();
    } else if (kind == "spec") {
        k.known({"benchmark", "buffer", "knob", "instructions",
                 "sampleMode", "sampleWarmup", "sampleWindow",
                 "samplePeriod"});
        k.u32("benchmark", spec_.benchmark);
        k.u32("buffer", spec_.buffer);
        k.u32("knob", spec_.knob);
        k.u64("instructions", spec_.instructions);
        unsigned sampleMode = 0;
        k.u32("sampleMode", sampleMode);
        spec_.sampling.enabled = sampleMode != 0;
        k.u64("sampleWarmup", spec_.sampling.warmupUnits);
        k.u64("sampleWindow", spec_.sampling.windowUnits);
        k.u64("samplePeriod", spec_.sampling.periodUnits);
        k.finish();
        if (spec_.benchmark >= 12)
            throw ProtocolError(
                "config: benchmark must be 0..11 (CINT2006)");
        if (spec_.buffer > 1)
            throw ProtocolError(
                "config: buffer must be 0 (centaur) or 1 "
                "(contutto)");
        if (spec_.buffer == 0 ? spec_.knob > 3 : spec_.knob > 7)
            throw ProtocolError(
                "config: knob out of range for the buffer");
        if (spec_.instructions == 0
            || spec_.instructions > 20'000'000)
            throw ProtocolError(
                "config: instructions must be 1..20000000");
        if (spec_.sampling.enabled && !spec_.sampling.valid())
            throw ProtocolError(
                "config: sampling knobs invalid (need window >= 1 "
                "and warmup+window <= period)");
        ckpt::Section s("spec");
        s.putU64(spec_.benchmark);
        s.putU64(spec_.buffer);
        s.putU64(spec_.knob);
        s.putU64(spec_.instructions);
        // Domain-separate from the other kinds' hashes; the
        // sampling knobs fold on top (disabled leaves the detailed
        // hash — and its memo entries — untouched).
        configHash_ = spec_.sampling.fold(
            ckpt::fnv1a(s.bytes().data(), s.bytes().size(),
                        0x53504543ull));
    } else if (kind == "trace") {
        k.known({"path", "buffer", "knob", "timed", "window",
                 "sampleMode", "sampleWarmup", "sampleWindow",
                 "samplePeriod"});
        k.str("path", trace_.path);
        k.u32("buffer", trace_.buffer);
        k.u32("knob", trace_.knob);
        k.u32("timed", trace_.timed);
        k.u32("window", trace_.window);
        unsigned sampleMode = 0;
        k.u32("sampleMode", sampleMode);
        trace_.sampling.enabled = sampleMode != 0;
        k.u64("sampleWarmup", trace_.sampling.warmupUnits);
        k.u64("sampleWindow", trace_.sampling.windowUnits);
        k.u64("samplePeriod", trace_.sampling.periodUnits);
        k.finish();
        if (trace_.path.empty())
            throw ProtocolError("config: path is required");
        if (trace_.buffer > 1)
            throw ProtocolError(
                "config: buffer must be 0 (centaur) or 1 "
                "(contutto)");
        if (trace_.buffer == 0 ? trace_.knob > 3 : trace_.knob > 7)
            throw ProtocolError(
                "config: knob out of range for the buffer");
        if (trace_.timed > 1)
            throw ProtocolError("config: timed must be 0 or 1");
        if (trace_.window == 0 || trace_.window > 1024)
            throw ProtocolError("config: window must be 1..1024");
        if (trace_.sampling.enabled && !trace_.sampling.valid())
            throw ProtocolError(
                "config: sampling knobs invalid (need window >= 1 "
                "and warmup+window <= period)");
        // Validate the file at admission; a corrupt or missing
        // trace fails here, not after a queue wait.
        try {
            trace::MappedTrace bin(trace_.path);
            trace_.checksum = bin.checksum();
        } catch (const trace::Error &e) {
            throw ProtocolError(std::string("config: ") + e.what());
        }
        ckpt::Section s("trace");
        s.putU64(trace_.buffer);
        s.putU64(trace_.knob);
        s.putU64(trace_.timed);
        s.putU64(trace_.window);
        // The trace's content identity, not its path: the memo key
        // must survive renames and reject edited files.
        s.putU64(trace_.checksum);
        // Domain-separate from the other kinds' hashes; sampling
        // knobs fold on top, as for spec.
        configHash_ = trace_.sampling.fold(
            ckpt::fnv1a(s.bytes().data(), s.bytes().size(),
                        0x54524143ull));
    } else if (kind == "spin") {
        k.known({"spinMs"});
        k.u64("spinMs", spinMs_);
        k.finish();
        if (spinMs_ > 60'000)
            throw ProtocolError("config: spinMs above 60s cap");
        ckpt::Section s("spin");
        s.putU64(spinMs_);
        configHash_ = ckpt::fnv1a(s.bytes().data(),
                                  s.bytes().size(),
                                  // Domain-separate from the
                                  // campaign spec hashes.
                                  0x5350494eull);
    } else {
        throw ProtocolError("submit: unknown kind '" + kind + "'");
    }
}

namespace
{

void
putCounter(Json &payload, const char *name, std::uint64_t v)
{
    payload.set(name, Json::number(v));
}

/**
 * The trained system a spec or trace job runs on: buffer 0 is a
 * Centaur at Table 2 knob @p knob, buffer 1 a ConTutto card with its
 * MBS at knob position @p knob.
 */
std::unique_ptr<cpu::Power8System>
campaignSystem(unsigned buffer, unsigned knob, const std::string &kind)
{
    cpu::Power8System::Params sp;
    if (buffer == 0) {
        sp.buffer = cpu::BufferKind::centaur;
        sp.centaurConfig = centaur::CentaurModel::table2Knobs()[knob];
        sp.dimms = {cpu::DimmSpec{mem::MemTech::dram, 1 * GiB, {},
                                  {}}};
    } else {
        sp.buffer = cpu::BufferKind::contutto;
        sp.dimms = {
            cpu::DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}},
            cpu::DimmSpec{mem::MemTech::dram, 512 * MiB, {}, {}}};
    }
    auto sys = std::make_unique<cpu::Power8System>(sp);
    if (!sys->train())
        throw std::runtime_error(kind + ": link training failed");
    if (buffer == 1)
        sys->card()->mbs().setKnobPosition(knob);
    return sys;
}

} // namespace

std::string
CampaignJob::runSpec(const std::atomic<bool> &cancel,
                     Progress *progress, Json payload) const
{
    auto profiles = workloads::specCint2006();
    const cpu::WorkloadProfile &prof =
        profiles.at(spec_.benchmark);

    auto sysOwner = campaignSystem(spec_.buffer, spec_.knob, "spec");
    cpu::Power8System &sys = *sysOwner;

    ClockDomain core("core", 250); // 4 GHz POWER8 core
    cpu::CoreModel::Params cp;
    cp.instructions = spec_.instructions;
    cp.nestOverhead = sys.params().nestOverhead;
    cp.seed = seed_;
    if (spec_.sampling.enabled)
        cp.sampler = &sys.enableSampling(spec_.sampling, seed_);
    cpu::CoreModel model("core." + prof.name, sys.eventq(), core,
                         &sys, prof, cp, sys.port());

    if (progress)
        progress->workTotal.store(spec_.instructions,
                                  std::memory_order_relaxed);
    bool finished = false;
    cpu::CoreModel::Result r;
    model.start([&](const cpu::CoreModel::Result &res) {
        r = res;
        finished = true;
    });
    std::uint64_t steps = 0;
    while (!finished && sys.eventq().step()) {
        if ((++steps & 0xfff) != 0)
            continue;
        if (cancel.load(std::memory_order_relaxed))
            throw Cancelled{};
        if (progress)
            progress->workDone.store(model.instructionsDone(),
                                     std::memory_order_relaxed);
    }
    if (progress)
        progress->workDone.store(spec_.instructions,
                                 std::memory_order_relaxed);

    // All-integer payload: byte-identical whether computed fresh,
    // replayed from the memo, or recomputed after a restart.
    payload.set("benchmark", Json::string(prof.name));
    putCounter(payload, "instructions", r.instructions);
    putCounter(payload, "misses", r.misses);
    putCounter(payload, "runtimeTicks", r.runtime);
    payload.set("simMode",
                Json::string(spec_.sampling.enabled ? "sampled"
                                                    : "detailed"));
    if (spec_.sampling.enabled) {
        const sim::SamplingReport &rep = sys.sampler()->report();
        putCounter(payload, "windows", rep.windows);
        putCounter(payload, "detailedMisses", rep.detailedUnits);
        putCounter(payload, "fastForwardMisses",
                   rep.fastForwardUnits);
        putCounter(payload, "estimateRuntimeTicks",
                   std::uint64_t(rep.estimatedRuntimeTicks));
        putCounter(payload, "ciHalfTicks",
                   std::uint64_t(rep.ciHalfWidthTicks));
    }
    return payload.dump();
}

std::string
CampaignJob::runTrace(const std::atomic<bool> &cancel,
                      Progress *progress, Json payload) const
{
    trace::MappedTrace bin(trace_.path);
    if (bin.checksum() != trace_.checksum)
        throw std::runtime_error(
            "trace: file changed since admission (checksum "
            + hashHex(bin.checksum()) + " != admitted "
            + hashHex(trace_.checksum) + ")");

    auto sysOwner = campaignSystem(trace_.buffer, trace_.knob, "trace");
    cpu::Power8System &sys = *sysOwner;

    ClockDomain core("core", 250);
    sim::SamplingController *sampler = nullptr;
    if (trace_.sampling.enabled)
        sampler = &sys.enableSampling(trace_.sampling, seed_);

    if (progress)
        progress->workTotal.store(bin.recordCount(),
                                  std::memory_order_relaxed);
    bool finished = false;
    std::uint64_t reads = 0, writes = 0, detailed = 0;
    Tick runtime = 0;
    auto pump = [&](auto &rep) {
        std::uint64_t steps = 0;
        while (!finished && sys.eventq().step()) {
            if ((++steps & 0xfff) != 0)
                continue;
            if (cancel.load(std::memory_order_relaxed))
                throw Cancelled{};
            if (progress)
                progress->workDone.store(
                    rep.issuedSoFar(), std::memory_order_relaxed);
        }
    };
    if (trace_.timed) {
        cpu::TimedTraceReplayer::Params tp;
        tp.nestOverhead = sys.params().nestOverhead;
        tp.sampler = sampler;
        cpu::TimedTraceReplayer rep("replay", sys.eventq(), core,
                                    &sys, tp, sys.port());
        rep.start(bin, [&](const auto &r) {
            reads = r.reads;
            writes = r.writes;
            detailed = r.detailed;
            runtime = r.runtime;
            finished = true;
        });
        pump(rep);
    } else {
        cpu::TraceReplayer::Params tp;
        tp.window = trace_.window;
        tp.nestOverhead = sys.params().nestOverhead;
        tp.sampler = sampler;
        cpu::TraceReplayer rep("replay", sys.eventq(), core, &sys,
                               tp, sys.port());
        rep.start(bin, [&](const auto &r) {
            reads = r.reads;
            writes = r.writes;
            detailed = r.detailed;
            runtime = r.runtime;
            finished = true;
        });
        pump(rep);
    }
    if (progress)
        progress->workDone.store(bin.recordCount(),
                                 std::memory_order_relaxed);

    // All-integer payload, as everywhere: byte-identical fresh,
    // memoized, or recomputed.
    payload.set("traceChecksum",
                Json::string(hashHex(trace_.checksum)));
    putCounter(payload, "records", bin.recordCount());
    putCounter(payload, "reads", reads);
    putCounter(payload, "writes", writes);
    putCounter(payload, "detailedTrips", detailed);
    putCounter(payload, "runtimeTicks", runtime);
    payload.set("replayMode", Json::string(trace_.timed ? "timed"
                                                        : "window"));
    payload.set("simMode",
                Json::string(trace_.sampling.enabled ? "sampled"
                                                     : "detailed"));
    if (trace_.sampling.enabled) {
        const sim::SamplingReport &rep = sys.sampler()->report();
        putCounter(payload, "windows", rep.windows);
        putCounter(payload, "detailedMisses", rep.detailedUnits);
        putCounter(payload, "fastForwardMisses",
                   rep.fastForwardUnits);
    }
    return payload.dump();
}

std::string
CampaignJob::run(const std::atomic<bool> &cancel,
                 Progress *progress) const
{
    Json payload = Json::object();
    payload.set("kind", Json::string(kind_));
    payload.set("seed", Json::number(seed_));
    payload.set("configHash", Json::string(hashHex(configHash_)));

    if (kind_ == "spec")
        return runSpec(cancel, progress, std::move(payload));
    if (kind_ == "trace")
        return runTrace(cancel, progress, std::move(payload));

    if (kind_ == "spin") {
        const auto started = std::chrono::steady_clock::now();
        const auto until =
            started + std::chrono::milliseconds(spinMs_);
        if (progress)
            progress->workTotal.store(spinMs_,
                                      std::memory_order_relaxed);
        while (std::chrono::steady_clock::now() < until) {
            if (cancel.load(std::memory_order_relaxed))
                throw Cancelled{};
            if (progress) {
                auto done = std::chrono::duration_cast<
                    std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - started);
                progress->workDone.store(
                    std::uint64_t(done.count()),
                    std::memory_order_relaxed);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        if (progress)
            progress->workDone.store(spinMs_,
                                     std::memory_order_relaxed);
        // Deterministic by construction: wall time spent spinning
        // never leaks into the payload.
        putCounter(payload, "spinMs", spinMs_);
        payload.set("completed", Json::boolean(true));
        return payload.dump();
    }

    if (kind_ == "ras_soak") {
        // The campaign bodies run opaque; the board still gets the
        // planned work size up front and completion at the end, so
        // a streamed frame can at least show scale and phase.
        if (progress)
            progress->workTotal.store(soak_.ops,
                                      std::memory_order_relaxed);
        ras::SoakCampaign::Result r =
            ras::SoakCampaign::run(soak_, &cancel);
        if (r.cancelled)
            throw Cancelled{};
        if (progress)
            progress->workDone.store(soak_.ops,
                                     std::memory_order_relaxed);
        payload.set("healthy", Json::boolean(r.healthy()));
        payload.set("fingerprint",
                    Json::string(hashHex(r.fingerprint())));
        putCounter(payload, "planned", r.planned);
        putCounter(payload, "applied", r.applied);
        putCounter(payload, "corrected", r.corrected);
        putCounter(payload, "uncorrectable", r.uncorrectable);
        putCounter(payload, "mismatches", r.mismatches);
        putCounter(payload, "failedOps", r.failedOps);
        putCounter(payload, "cmdRetries", r.cmdRetries);
        putCounter(payload, "linkReplays", r.linkReplays);
        putCounter(payload, "scrubPasses", r.scrubPasses);
        putCounter(payload, "escalationLevel", r.escalationLevel);
        return payload.dump();
    }

    // kind_ == "crash" (the constructor admitted nothing else).
    if (progress)
        progress->workTotal.store(crash_.powerCuts,
                                  std::memory_order_relaxed);
    storage::CrashRecoveryCampaign campaign(crash_);
    storage::CrashRecoveryCampaign::RunOptions opts;
    opts.cancel = &cancel;
    storage::CrashRecoveryCampaign::Result r = campaign.run(opts);
    if (campaign.cancelled())
        throw Cancelled{};
    if (progress)
        progress->workDone.store(crash_.powerCuts,
                                 std::memory_order_relaxed);
    putCounter(payload, "cuts", r.cuts);
    putCounter(payload, "recoveries", r.recoveries);
    putCounter(payload, "failedRecoveries", r.failedRecoveries);
    putCounter(payload, "writesSubmitted", r.writesSubmitted);
    putCounter(payload, "writesCompleted", r.writesCompleted);
    putCounter(payload, "blocksFenced", r.blocksFenced);
    putCounter(payload, "intact", r.intact);
    putCounter(payload, "torn", r.torn);
    putCounter(payload, "detectedLosses", r.detectedLosses);
    putCounter(payload, "durabilityViolations",
               r.durabilityViolations);
    return payload.dump();
}

Json
makeResult(const std::string &id, const std::string &status,
           const std::string &outcome, std::uint64_t configHash,
           std::uint64_t seed, const std::string &payloadText)
{
    Json j = Json::object();
    j.set("type", Json::string("result"));
    j.set("id", Json::string(id));
    j.set("status", Json::string(status));
    j.set("outcome", Json::string(outcome));
    j.set("configHash", Json::string(hashHex(configHash)));
    j.set("seed", Json::number(seed));
    if (!payloadText.empty())
        j.set("payload", Json::parse(payloadText));
    return j;
}

Json
makeProgress(const std::string &id, const ProgressSample &sample)
{
    Json j = Json::object();
    j.set("type", Json::string("progress"));
    j.set("id", Json::string(id));
    j.set("seq", Json::number(sample.seq));
    j.set("state", Json::string(sample.state));
    j.set("elapsedMs", Json::number(sample.elapsedMs));
    j.set("queueDepth", Json::number(sample.queueDepth));
    j.set("running", Json::number(sample.running));
    j.set("workDone", Json::number(sample.workDone));
    j.set("workTotal", Json::number(sample.workTotal));
    j.set("heartbeats", Json::number(sample.heartbeats));
    j.set("traceId", Json::number(sample.traceId));
    return j;
}

void
attachTrace(Json &result, std::uint64_t traceId,
            std::uint64_t queueUs, std::uint64_t execUs,
            std::uint64_t serializeUs)
{
    Json t = Json::object();
    t.set("id", Json::number(traceId));
    t.set("queueUs", Json::number(queueUs));
    t.set("execUs", Json::number(execUs));
    t.set("serializeUs", Json::number(serializeUs));
    t.set("totalUs",
          Json::number(queueUs + execUs + serializeUs));
    result.set("trace", t);
}

void
attachSimMode(Json &result, const CampaignJob &job)
{
    result.set("simMode", Json::string(job.sampled() ? "sampled"
                                                     : "detailed"));
    if (!job.sampled())
        return;
    const sim::SamplingConfig &c = job.samplingConfig();
    Json s = Json::object();
    s.set("warmupUnits", Json::number(c.warmupUnits));
    s.set("windowUnits", Json::number(c.windowUnits));
    s.set("periodUnits", Json::number(c.periodUnits));
    result.set("sampling", s);
}

Json
makeShed(const std::string &id, std::uint64_t retryAfterMs,
         const std::string &reason)
{
    Json j = Json::object();
    j.set("type", Json::string("shed"));
    j.set("id", Json::string(id));
    j.set("retryAfterMs", Json::number(retryAfterMs));
    j.set("reason", Json::string(reason));
    return j;
}

Json
makeError(const std::string &message)
{
    Json j = Json::object();
    j.set("type", Json::string("error"));
    j.set("message", Json::string(message));
    return j;
}

} // namespace contutto::service
