/** @file Tests for the machine-readable telemetry exporters. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/json.hh"
#include "sim/span.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"

using namespace contutto;

namespace
{

/**
 * A temp path unique per test *and* per process: ctest runs suites
 * with -j, so a fixed name would intermittently collide with a
 * parallel invocation of the same binary.
 */
std::string
uniqueTempPath(const char *ext)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "_"
        + info->name();
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return "/tmp/ct_" + name + "_" + std::to_string(getpid()) + ext;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Our writers emit canonical JSON: a strict re-parse dumps back the
 * same bytes (ignoring one trailing newline), which is stronger
 * than merely being valid.
 */
void
expectCanonical(const std::string &text)
{
    std::string body = text;
    if (!body.empty() && body.back() == '\n')
        body.pop_back();
    EXPECT_EQ(Json::parse(body).dump(), body);
}

TEST(PerfettoTrace, EmitsValidSortedJson)
{
    // Deliberately out of order: the exporter must sort by begin.
    std::vector<span::Span> spans;
    span::Span a;
    a.id = 1;
    a.stage = "ddr";
    a.begin = 3000000; // 3 us
    a.end = 5000000;
    a.seq = 2;
    span::Span b;
    b.id = 1;
    b.stage = "host";
    b.begin = 1000000; // 1 us
    b.end = 9000000;
    b.seq = 1;
    spans.push_back(a);
    spans.push_back(b);

    std::ostringstream os;
    telemetry::writePerfettoTrace(spans, os);
    std::string out = os.str();

    expectCanonical(out);
    // "host" begins earlier, so it must be emitted first.
    EXPECT_LT(out.find("\"host\""), out.find("\"ddr\""));
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"traceId\":1"), std::string::npos);
}

TEST(PerfettoTrace, EmptyCaptureIsAnEmptyArray)
{
    std::ostringstream os;
    telemetry::writePerfettoTrace({}, os);
    expectCanonical(os.str());
    EXPECT_EQ(os.str().find('['), 0u);
}

TEST(StatsJson, SnapshotsTheWholeTree)
{
    stats::StatGroup root("system");
    stats::StatGroup child("dmi", &root);
    stats::Scalar frames(&child, "frames", "frames sent");
    frames += 3;
    stats::Distribution lat(&root, "lat", "latency");
    lat.sample(1.0);
    lat.sample(3.0);

    std::ostringstream os;
    stats::toJson(root, os);
    std::string out = os.str();

    expectCanonical(out);
    EXPECT_NE(out.find("\"name\":\"system\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"dmi\""), std::string::npos);
    EXPECT_NE(out.find("\"frames\":{\"kind\":\"scalar\",\"value\":3}"),
              std::string::npos);
    // Distributions export their moments.
    EXPECT_NE(out.find("\"mean\":2"), std::string::npos);
}

TEST(StatsJson, HistogramCarriesExplicitLeEdges)
{
    stats::StatGroup g("g");
    stats::Histogram h(&g, "h", "latency", 10.0, 4);
    h.sample(5);
    h.sample(15);
    h.sample(1000); // overflow

    std::ostringstream os;
    stats::toJson(g, os);
    std::string out = os.str();

    expectCanonical(out);
    // One explicit edge per bucket — no consumer should have to
    // re-derive boundaries from bucketWidth — and the overflow
    // bucket's edge is null, the +Inf marker.
    EXPECT_NE(out.find("\"le\":[10,20,30,40,null]"),
              std::string::npos);
    EXPECT_NE(out.find("\"buckets\":[1,1,0,0,1]"),
              std::string::npos);
}

TEST(StatsJson, NonFiniteValuesBecomeNull)
{
    stats::StatGroup g("g");
    stats::Histogram h(&g, "h", "empty histogram", 10.0, 4);
    std::ostringstream os;
    stats::toJson(g, os);
    // The empty histogram's quantiles are NaN -> null in JSON.
    expectCanonical(os.str());
    EXPECT_EQ(os.str().find("nan"), std::string::npos);
}

TEST(IntervalDumper, CollectsPeriodicSnapshots)
{
    EventQueue eq;
    stats::StatGroup root("system");
    stats::Scalar ops(&root, "ops", "operations");

    telemetry::IntervalDumper dumper(eq, root, 100);
    dumper.start();
    OneShotEvent::schedule(eq, 250, [&] { ops += 7; });
    // The dumper reschedules itself forever; run with a limit.
    eq.run(550);

    EXPECT_GE(dumper.snapshots(), 2u);
    std::ostringstream os;
    dumper.write(os);
    std::string out = os.str();
    expectCanonical(out);
    EXPECT_NE(out.find("\"period\":100"), std::string::npos);
    EXPECT_NE(out.find("\"tick\":100"), std::string::npos);
}

TEST(TelemetryFiles, PerfettoTraceRoundTripsThroughAFile)
{
    span::Span s;
    s.id = 9;
    s.stage = "mbs";
    s.begin = 2000;
    s.end = 4000;
    s.seq = 1;

    const std::string path = uniqueTempPath(".json");
    {
        std::ofstream out(path);
        ASSERT_TRUE(out.is_open()) << path;
        telemetry::writePerfettoTrace({s}, out);
    }
    const std::string back = slurp(path);
    expectCanonical(back);
    EXPECT_NE(back.find("\"mbs\""), std::string::npos);
    EXPECT_NE(back.find("\"traceId\":9"), std::string::npos);
    EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(TelemetryFiles, StatsJsonRoundTripsThroughAFile)
{
    stats::StatGroup root("system");
    stats::Scalar ops(&root, "ops", "operations");
    ops += 11;

    const std::string path = uniqueTempPath(".json");
    {
        std::ofstream out(path);
        ASSERT_TRUE(out.is_open()) << path;
        stats::toJson(root, out);
    }
    const std::string back = slurp(path);
    expectCanonical(back);
    EXPECT_NE(back.find("\"ops\":{\"kind\":\"scalar\",\"value\":11}"),
              std::string::npos);
    EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(TelemetryFiles, TempPathsEmbedTestNameAndPid)
{
    const std::string path = uniqueTempPath(".json");
    EXPECT_NE(path.find("TelemetryFiles"), std::string::npos);
    EXPECT_NE(path.find("TempPathsEmbedTestNameAndPid"),
              std::string::npos);
    EXPECT_NE(path.find(std::to_string(getpid())), std::string::npos);
}

TEST(IntervalDumper, StopHaltsSampling)
{
    EventQueue eq;
    stats::StatGroup root("system");
    telemetry::IntervalDumper dumper(eq, root, 100);
    dumper.start();
    dumper.stop();
    OneShotEvent::schedule(eq, 500, [] {});
    eq.run();
    EXPECT_EQ(dumper.snapshots(), 0u);
}

} // namespace
