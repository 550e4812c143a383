/** @file Window-mode trace replay tests. */

#include <gtest/gtest.h>

#include <filesystem>

#include "cpu/trace_replay.hh"
#include "cpu/system.hh"
#include "synth_trace.hh"
#include "trace/generate.hh"

using namespace contutto;
using namespace contutto::cpu;

namespace
{

Power8System::Params
smallCard()
{
    Power8System::Params p;
    p.dimms = {DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}},
               DimmSpec{mem::MemTech::dram, 256 * MiB, {}, {}}};
    return p;
}

TraceReplayer::Result
replay(Power8System &sys, const trace::MappedTrace &trace,
       TraceReplayer::Params rp = {})
{
    TraceReplayer replayer("replay", sys.eventq(), sys.nestDomain(),
                           &sys, rp, sys.port());
    bool finished = false;
    TraceReplayer::Result result;
    replayer.start(trace, [&](const TraceReplayer::Result &r) {
        result = r;
        finished = true;
    });
    while (!finished && sys.eventq().step()) {
    }
    EXPECT_TRUE(finished);
    return result;
}

TEST(TraceReplay, RuntimeRespondsToMemoryLatency)
{
    // The point of the facility: one trace, two knob settings, the
    // dependent-heavy trace stretches with the latency.
    auto trace = synthTrace(400, nanoseconds(30), 16 * MiB,
                            0.3, 0.6, 11);
    Power8System a(smallCard());
    ASSERT_TRUE(a.train());
    auto r0 = replay(a, *trace);

    Power8System b(smallCard());
    ASSERT_TRUE(b.train());
    b.card()->mbs().setKnobPosition(7);
    auto r7 = replay(b, *trace);

    EXPECT_EQ(r0.reads + r0.writes, 400u);
    EXPECT_GT(double(r7.runtime), double(r0.runtime) * 1.15);
    // Both runs share the same compute floor.
    EXPECT_EQ(r0.computeTime, r7.computeTime);
}

TEST(TraceReplay, IndependentTraceOverlapsAccesses)
{
    // With no dependent records and a wide window, the runtime sits
    // near the compute floor rather than latency * records.
    auto trace = synthTrace(300, nanoseconds(100),
                            16 * MiB, 0.3, 0.0, 13);
    Power8System sys(smallCard());
    ASSERT_TRUE(sys.train());
    auto r = replay(sys, *trace);
    double floor_ns = ticksToNs(r.computeTime);
    double runtime_ns = ticksToNs(r.runtime);
    EXPECT_LT(runtime_ns, floor_ns * 1.6);
}

TEST(TraceReplay, DependentRecordsDrainTheWindow)
{
    // A fully dependent trace serializes: runtime ~ n * latency.
    auto trace = synthTrace(100, nanoseconds(5), 16 * MiB,
                            0.0, 1.0, 17);
    Power8System sys(smallCard());
    ASSERT_TRUE(sys.train());
    auto r = replay(sys, *trace);
    double per_access = ticksToNs(r.runtime) / 100.0;
    // ~388 ns memory + 44 ns nest overhead + trace delay.
    EXPECT_GT(per_access, 350.0);
    EXPECT_LT(per_access, 520.0);
}

TEST(TraceReplay, WindowModePinsGeneratedQsortTrace)
{
    // Window mode decodes records off the mapping as it goes; these
    // are the figures of the former copy-everything-first path.
    const std::string path = ::testing::TempDir() + "cpu_pin.bin";
    trace::GenerateSpec spec;
    spec.shape = trace::Shape::qsort;
    spec.records = 2000;
    spec.seed = 7;
    spec.meanDelay = nanoseconds(20);
    trace::generate(spec, path);
    trace::MappedTrace bin(path);
    std::filesystem::remove(path);

    Power8System sys(smallCard());
    ASSERT_TRUE(sys.train());
    auto r = replay(sys, bin);
    EXPECT_EQ(r.runtime, Tick(118056000));
    EXPECT_EQ(r.reads, 1372u);
    EXPECT_EQ(r.writes, 628u);
    EXPECT_EQ(r.computeTime, Tick(40042919));
}

} // namespace
