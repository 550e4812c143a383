/**
 * @file
 * Capture→replay round trip: a CoreModel run captured to a binary
 * trace, then replayed at recorded ticks through an identical fresh
 * system, must drive the memory channel byte-identically — same
 * channel stats JSON, same error log — and a recapture of the
 * replay must reproduce the trace file checksum-for-checksum.
 * Swept over 16 seeds, serial and under 2-/4-shard task farms. A
 * sampled replay must recapture its input byte for byte too.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "cpu/core_model.hh"
#include "cpu/system.hh"
#include "cpu/trace_replay.hh"
#include "firmware/error_log.hh"
#include "trace/capture.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"

#include "../integration/seed_sweep.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

namespace fs = std::filesystem;

Power8System::Params
smallCard()
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    return p;
}

WorkloadProfile
missHeavy()
{
    WorkloadProfile prof;
    prof.name = "missHeavy";
    prof.baseCpi = 1.0;
    prof.missesPerKiloInstr = 30;
    prof.chaseFraction = 0.05;
    prof.streamFraction = 0.2;
    prof.mlp = 8;
    prof.workingSet = 64 * MiB;
    return prof;
}

std::string
serializeLog(const firmware::ErrorLog &log)
{
    std::ostringstream os;
    for (const auto &e : log.entries())
        os << e.when << '|' << e.component << '|' << int(e.severity)
           << '|' << e.message << '\n';
    os << "overflow=" << log.overflowCount() << '\n';
    return os.str();
}

/** What the channel saw during one run. */
struct ChannelView
{
    std::string statsJson;
    std::string errorLog;
};

ChannelView
channelView(Power8System &sys)
{
    ChannelView v;
    std::ostringstream os;
    stats::toJson(sys.channel(), os);
    v.statsJson = os.str();
    v.errorLog = serializeLog(sys.channel().errorLog());
    return v;
}

/** Direct CoreModel run with a capture sink; the trace lands at
 *  @p tracePath. */
ChannelView
directRun(std::uint64_t seed, const std::string &tracePath,
          std::uint64_t *capturedRecords)
{
    Power8System sys(smallCard());
    EXPECT_TRUE(sys.train());
    trace::CaptureSink sink(tracePath);
    ClockDomain core("core", 250);
    CoreModel::Params cp;
    cp.instructions = 20000;
    cp.seed = seed;
    cp.capture = &sink;
    CoreModel model("core", sys.eventq(), core, &sys, missHeavy(),
                    cp, sys.port());
    bool finished = false;
    model.start([&](const CoreModel::Result &) { finished = true; });
    while (!finished && sys.eventq().step()) {
    }
    EXPECT_TRUE(finished);
    sink.close();
    *capturedRecords = sink.recordCount();
    return channelView(sys);
}

/** Timed replay of the captured trace on an identical fresh system,
 *  recapturing itself; returns the channel view and the recapture
 *  checksum. */
ChannelView
replayRun(const std::string &tracePath,
          const std::string &recapturePath,
          std::uint64_t *recaptureChecksum)
{
    trace::MappedTrace bin(tracePath);
    Power8System sys(smallCard());
    EXPECT_TRUE(sys.train());
    trace::CaptureSink sink(recapturePath);
    ClockDomain core("core", 250);
    TimedTraceReplayer::Params rp;
    rp.capture = &sink;
    TimedTraceReplayer rep("replay", sys.eventq(), core, &sys, rp,
                           sys.port());
    bool finished = false;
    rep.start(bin,
              [&](const TimedTraceReplayer::Result &) {
                  finished = true;
              });
    while (!finished && sys.eventq().step()) {
    }
    EXPECT_TRUE(finished);
    sink.close();
    *recaptureChecksum = sink.checksum();
    return channelView(sys);
}

void
roundTripScenario(std::uint64_t seed, sweep::Report &r,
                  const std::string &tag)
{
    const std::string base = ::testing::TempDir() + "trace_rt_"
                             + tag + "_" + std::to_string(seed);
    const std::string tracePath = base + ".bin";
    const std::string recapPath = base + ".recap.bin";
    fs::remove(tracePath);
    fs::remove(recapPath);

    std::uint64_t captured = 0;
    ChannelView direct = directRun(seed, tracePath, &captured);
    sweep::check(r, "captured-nonempty", captured > 0,
                 std::to_string(captured) + " records");

    std::uint64_t inputChecksum = 0;
    {
        trace::MappedTrace bin(tracePath);
        inputChecksum = bin.checksum();
        sweep::check(r, "trace-validates",
                     bin.validateAll() > 0
                         && bin.recordCount() == captured);
    }

    std::uint64_t recapChecksum = 0;
    ChannelView replay =
        replayRun(tracePath, recapPath, &recapChecksum);

    sweep::check(r, "channel-stats-identical",
                 direct.statsJson == replay.statsJson);
    sweep::check(r, "error-log-identical",
                 direct.errorLog == replay.errorLog);
    sweep::check(r, "recapture-byte-identical",
                 recapChecksum == inputChecksum);

    fs::remove(tracePath);
    fs::remove(recapPath);
}

class TraceRoundTrip : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TraceRoundTrip, SixteenSeedsChannelByteIdentical)
{
    const unsigned shards = GetParam();
    std::string tag = "s";
    tag += std::to_string(shards);
    auto reports = sweep::run(
        sweep::seeds(0xBEEF, 16), shards,
        [&tag](std::uint64_t seed, sweep::Report &r) {
            roundTripScenario(seed, r, tag);
        });
    sweep::expectAllPassed(reports);
}

INSTANTIATE_TEST_SUITE_P(Serial2And4Shards, TraceRoundTrip,
                         ::testing::Values(1u, 2u, 4u));

// A sampled replay issues most fast-forwarded records between events,
// ahead of the clock. Each must still be recaptured at its own tick,
// so the recapture is the input byte for byte.
TEST(SampledTraceRoundTrip, RecaptureByteIdentical)
{
    const std::string base = ::testing::TempDir() + "trace_rt_sampled";
    trace::GenerateSpec spec;
    spec.shape = trace::Shape::qsort;
    spec.records = 20000;
    spec.seed = 31;
    spec.meanDelay = nanoseconds(200);
    trace::generate(spec, base + ".bin");
    trace::MappedTrace bin(base + ".bin");

    Power8System sys(smallCard());
    ASSERT_TRUE(sys.train());
    trace::CaptureSink sink(base + ".recap.bin");
    sim::SamplingConfig cfg;
    cfg.enabled = true;
    TimedTraceReplayer::Params rp;
    rp.capture = &sink;
    rp.sampler = &sys.enableSampling(cfg, 3);
    TimedTraceReplayer rep("replay", sys.eventq(), sys.nestDomain(),
                           &sys, rp, sys.port());
    bool finished = false;
    TimedTraceReplayer::Result r;
    rep.start(bin, [&](const TimedTraceReplayer::Result &res) {
        r = res;
        finished = true;
    });
    while (!finished && sys.eventq().step()) {
    }
    ASSERT_TRUE(finished);
    sink.close();
    EXPECT_EQ(r.replayed, 20000u);
    EXPECT_LT(r.detailed, r.replayed / 4);
    EXPECT_EQ(sink.recordCount(), bin.recordCount());
    EXPECT_EQ(sink.checksum(), bin.checksum());
    fs::remove(base + ".bin");
    fs::remove(base + ".recap.bin");
}

} // namespace
