/** @file Patrol scrubber tests. */

#include <gtest/gtest.h>

#include <vector>

#include "firmware/error_log.hh"
#include "mem/mem_image.hh"
#include "ras/scrubber.hh"

using namespace contutto;
using namespace contutto::ras;

namespace
{

struct ScrubBench
{
    EventQueue eq;
    ClockDomain ddr{"ddr", 1500};
    stats::StatGroup root{"root"};
    mem::MemImage image{1 * MiB};
    firmware::ErrorLog log;
};

TEST(Scrubber, RepairsLatentSingleBitFaults)
{
    ScrubBench b;
    std::vector<std::uint8_t> ref(64 * KiB);
    for (std::size_t i = 0; i < ref.size(); ++i)
        ref[i] = std::uint8_t(i ^ (i >> 8));
    b.image.write(0, ref.size(), ref.data());

    const Addr faults[] = {0x40, 0x1238, 0x7FF8, 0xFFC0};
    for (Addr a : faults)
        b.image.injectBitFlip(a, unsigned(a % 64));

    PatrolScrubber::Params p;
    p.linesPerBeat = 64;
    p.size = 64 * KiB;
    PatrolScrubber scrub("scrub", b.eq, b.ddr, &b.root, p, b.image);
    scrub.start();
    EXPECT_TRUE(scrub.running());

    // 1024 lines at 64/beat = 16 beats = one pass in 16 us.
    b.eq.run(microseconds(20));
    EXPECT_GE(scrub.passes(), 1u);
    EXPECT_EQ(scrub.scrubStats().scrubCorrected.value(), 4.0);
    EXPECT_EQ(scrub.scrubStats().scrubUncorrectable.value(), 0.0);

    std::vector<std::uint8_t> now(ref.size());
    b.image.read(0, now.size(), now.data());
    EXPECT_EQ(now, ref) << "all latent faults repaired in place";

    // Subsequent passes find nothing further.
    b.eq.run(microseconds(40));
    EXPECT_EQ(scrub.scrubStats().scrubCorrected.value(), 4.0);
}

TEST(Scrubber, ReportsUncorrectableLinesToErrorLog)
{
    ScrubBench b;
    b.image.write64(0x2000, 0x5555AAAA5555AAAAull);
    b.image.injectBitFlip(0x2000, 3);
    b.image.injectBitFlip(0x2000, 60);

    PatrolScrubber::Params p;
    p.linesPerBeat = 64;
    p.size = 16 * KiB;
    PatrolScrubber scrub("scrub", b.eq, b.ddr, &b.root, p, b.image);
    scrub.attachErrorLog(&b.log);
    scrub.start();
    b.eq.run(microseconds(10));

    EXPECT_GE(scrub.scrubStats().scrubUncorrectable.value(), 1.0);
    EXPECT_GE(b.log.countAtLeast(firmware::Severity::recoverable),
              std::size_t(1));
}

TEST(Scrubber, StopHaltsAndStartResumes)
{
    ScrubBench b;
    b.image.write64(0, 1);
    PatrolScrubber::Params p;
    p.linesPerBeat = 1;
    p.size = 64 * KiB;
    PatrolScrubber scrub("scrub", b.eq, b.ddr, &b.root, p, b.image);
    scrub.start();
    b.eq.run(microseconds(5));
    double lines = scrub.scrubStats().linesScrubbed.value();
    EXPECT_GT(lines, 0.0);

    scrub.stop();
    EXPECT_FALSE(scrub.running());
    b.eq.run(microseconds(10));
    EXPECT_EQ(scrub.scrubStats().linesScrubbed.value(), lines);

    scrub.start();
    b.eq.run(microseconds(15));
    EXPECT_GT(scrub.scrubStats().linesScrubbed.value(), lines);
}

TEST(Scrubber, ScrubsOnlyTheConfiguredWindow)
{
    ScrubBench b;
    b.image.write64(0x100, 7);        // outside the window
    b.image.injectBitFlip(0x100, 1);
    b.image.write64(0x10000, 9);      // inside the window
    b.image.injectBitFlip(0x10000, 2);

    PatrolScrubber::Params p;
    p.linesPerBeat = 16;
    p.base = 0x10000;
    p.size = 4 * KiB;
    PatrolScrubber scrub("scrub", b.eq, b.ddr, &b.root, p, b.image);
    scrub.start();
    b.eq.run(microseconds(10));

    EXPECT_EQ(scrub.scrubStats().scrubCorrected.value(), 1.0);
    EXPECT_EQ(b.image.read64(0x10000), 9u);
    EXPECT_NE(b.image.read64(0x100), 7u)
        << "fault outside the window must be left alone";
}

} // namespace
