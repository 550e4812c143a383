/**
 * @file
 * TraceWriter atomicity: the final path holds either a complete
 * valid trace or nothing, across normal close, abort, destruction
 * without close, multi-flush captures, and injected short writes
 * (ckpt::testing::setShortWriteBudget, the seam of the atomic file
 * writer traces share with checkpoints).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "trace/reader.hh"
#include "trace/writer.hh"

using namespace contutto;
using namespace contutto::trace;

namespace
{

namespace fs = std::filesystem;

std::string
tmpPath(const std::string &leaf)
{
    return ::testing::TempDir() + "trace_writer_" + leaf;
}

Record
makeRecord(Tick delta, Addr addr, Op op = Op::read)
{
    Record rec;
    rec.tickDelta = delta;
    rec.addr = addr;
    rec.op = op;
    return rec;
}

TEST(TraceWriter, CloseInstallsValidFile)
{
    const std::string path = tmpPath("close.bin");
    fs::remove(path);
    TraceWriter writer(path);
    for (int i = 0; i < 100; ++i)
        writer.append(makeRecord(10, 0x1000 + 128 * i,
                                 i % 2 ? Op::write : Op::read));

    // Nothing at the final path until close(); the temp holds the
    // in-flight bytes.
    EXPECT_FALSE(fs::exists(path));
    writer.close();
    EXPECT_TRUE(writer.closed());
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    MappedTrace bin(path);
    EXPECT_EQ(bin.recordCount(), 100u);
    EXPECT_EQ(bin.checksum(), writer.checksum());
    EXPECT_EQ(bin.validateAll(), Tick(100 * 10));
    EXPECT_EQ(bin.record(3).addr, Addr(0x1000 + 128 * 3));
    fs::remove(path);
}

TEST(TraceWriter, EmptyTraceIsValid)
{
    const std::string path = tmpPath("empty.bin");
    fs::remove(path);
    TraceWriter writer(path);
    writer.close();
    MappedTrace bin(path);
    EXPECT_EQ(bin.recordCount(), 0u);
    EXPECT_EQ(bin.validateAll(), Tick(0));
    fs::remove(path);
}

TEST(TraceWriter, AbortLeavesNothing)
{
    const std::string path = tmpPath("abort.bin");
    fs::remove(path);
    TraceWriter writer(path);
    writer.append(makeRecord(1, 0x80));
    writer.abort();
    writer.abort(); // idempotent
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(TraceWriter, DestructionWithoutCloseLeavesNothing)
{
    const std::string path = tmpPath("dtor.bin");
    fs::remove(path);
    {
        TraceWriter writer(path);
        writer.append(makeRecord(1, 0x80));
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(TraceWriter, MultiFlushFileMatchesTheEncoders)
{
    // Enough records for at least three full-buffer flushes before
    // close(); the file must be exactly the header, every record and
    // the footer as the format encoders lay them out.
    const std::string path = tmpPath("flushes.bin");
    fs::remove(path);
    const int n = int(3 * TraceWriter::bufferBytes / recordBytes) + 500;

    std::vector<std::uint8_t> expect(headerBytes);
    encodeHeader(expect.data());
    TraceWriter writer(path);
    for (int i = 0; i < n; ++i) {
        Record rec = makeRecord(i % 1000, 0x100 * Addr(i),
                                i % 3 ? Op::read : Op::depWrite);
        writer.append(rec);
        std::uint8_t raw[recordBytes];
        encodeRecord(rec, raw);
        expect.insert(expect.end(), raw, raw + recordBytes);
    }
    writer.close();
    std::uint8_t footer[footerBytes];
    encodeFooter(std::uint64_t(n), writer.checksum(), footer);
    expect.insert(expect.end(), footer, footer + footerBytes);
    ASSERT_GT(expect.size(), 3 * TraceWriter::bufferBytes);

    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> got(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    EXPECT_TRUE(got == expect) << "file differs from the encoders";
    EXPECT_EQ(MappedTrace(path).checksum(), writer.checksum());
    fs::remove(path);
}

TEST(TraceWriter, ShortWriteRaisesTypedErrorAndCleansUp)
{
    const std::string path = tmpPath("short.bin");
    fs::remove(path);

    // Inject failures at several disk-full points: immediately, mid
    // buffer flush, and during the footer write at close().
    for (long budget : {0L, 64L, 4096L}) {
        ckpt::testing::setShortWriteBudget(budget);
        bool threw = false;
        try {
            TraceWriter writer(path);
            for (int i = 0; i < 100000; ++i)
                writer.append(makeRecord(1, 128 * i));
            writer.close();
        } catch (const Error &e) {
            threw = true;
            EXPECT_EQ(e.code(), ErrorCode::shortWrite)
                << "budget " << budget;
        }
        ckpt::testing::setShortWriteBudget(-1);
        EXPECT_TRUE(threw) << "budget " << budget;
        EXPECT_FALSE(fs::exists(path)) << "budget " << budget;
        EXPECT_FALSE(fs::exists(path + ".tmp"))
            << "budget " << budget;
    }
}

TEST(TraceWriter, ShortWriteAtFooterOnlyStillInstallsNothing)
{
    // Budget exactly covers header + records but not the footer:
    // close() must fail and the final path must stay absent even
    // though every record "landed".
    const std::string path = tmpPath("footer.bin");
    fs::remove(path);
    const int n = 10;
    ckpt::testing::setShortWriteBudget(
        long(headerBytes + n * recordBytes + footerBytes - 1));
    bool threw = false;
    try {
        TraceWriter writer(path);
        for (int i = 0; i < n; ++i)
            writer.append(makeRecord(1, 128 * i));
        writer.close();
    } catch (const Error &e) {
        threw = true;
        EXPECT_EQ(e.code(), ErrorCode::shortWrite);
    }
    ckpt::testing::setShortWriteBudget(-1);
    EXPECT_TRUE(threw);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

} // namespace
