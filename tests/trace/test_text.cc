/**
 * @file
 * Text-form tests: parsing, typed errors on malformed lines, and a
 * byte-identical binary -> text -> binary round trip.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "trace/generate.hh"
#include "trace/text.hh"

using namespace contutto;
using namespace contutto::trace;

namespace
{

namespace fs = std::filesystem;

std::string
tmpPath(const std::string &leaf)
{
    return ::testing::TempDir() + "trace_text_" + leaf;
}

/** Parse @p text into a binary trace at @p path. */
std::uint64_t
parseTo(const std::string &text, const std::string &path)
{
    std::istringstream in(text);
    TraceWriter writer(path);
    std::uint64_t n = readText(in, writer);
    writer.close();
    return n;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

TEST(TraceText, ParsesTextFormat)
{
    const std::string path = tmpPath("parse.bin");
    ASSERT_EQ(parseTo(R"(
# comment line
10.5 r 1000
2 W 2080   # dependent write
0 w 30ff
1436.524 r 0
.25 r 0
7. r 0
)",
                      path),
              6u);
    MappedTrace bin(path);
    ASSERT_EQ(bin.recordCount(), 6u);
    EXPECT_EQ(bin.record(0).tickDelta, 10500u);
    EXPECT_EQ(bin.record(0).op, Op::read);
    EXPECT_EQ(bin.record(0).addr, 0x1000u);
    EXPECT_EQ(bin.record(1).tickDelta, 2000u);
    EXPECT_EQ(bin.record(1).op, Op::depWrite);
    EXPECT_EQ(bin.record(1).addr, 0x2080u);
    // Addresses align down to the 128 B line.
    EXPECT_EQ(bin.record(2).addr, 0x3080u & ~Addr(127));
    EXPECT_EQ(bin.record(2).op, Op::write);
    // Delays are exact decimals, to the picosecond.
    EXPECT_EQ(bin.record(3).tickDelta, 1436524u);
    EXPECT_EQ(bin.record(4).tickDelta, 250u);
    EXPECT_EQ(bin.record(5).tickDelta, 7000u);
    fs::remove(path);
}

TEST(TraceText, RejectsGarbageWithTypedErrors)
{
    const std::string path = tmpPath("garbage.bin");
    const char *lines[] = {
        "10 x 1000",   // bad op
        "10 r",        // missing address
        "10 r zzz",    // address not hex
        "-5 r 1000",   // negative delay
        "1e3 r 1000",  // not a plain decimal
        "1.0001 r 0",  // finer than a picosecond
        "99999999999999999999 r 0", // delay overflows
        "10 r 1000 5", // trailing token
        "x r 1000",    // no delay at all
    };
    for (const char *line : lines) {
        std::string text = std::string("0 r 0\n") + line + "\n";
        try {
            parseTo(text, path);
            ADD_FAILURE() << "accepted '" << line << "'";
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::badRecord) << line;
            EXPECT_NE(std::string(e.what()).find("line 2: "),
                      std::string::npos)
                << e.what();
        }
        // A rejected parse installs nothing at the final path.
        EXPECT_FALSE(fs::exists(path)) << line;
    }
}

TEST(TraceText, BinaryTextBinaryIsByteIdentical)
{
    // Delays of ~2 µs need all seven significant digits: a
    // shortest-form print loses picoseconds here.
    const std::string bin = tmpPath("rt.bin");
    const std::string txt = tmpPath("rt.txt");
    const std::string back = tmpPath("rt_back.bin");
    GenerateSpec spec;
    spec.shape = Shape::uniform;
    spec.records = 1000;
    spec.seed = 3;
    spec.meanDelay = nanoseconds(2000);
    generate(spec, bin);

    {
        MappedTrace in(bin);
        std::ofstream os(txt);
        writeText(in, os);
    }
    {
        std::ifstream is(txt);
        TraceWriter writer(back);
        EXPECT_EQ(readText(is, writer), spec.records);
        writer.close();
    }
    EXPECT_EQ(slurp(bin), slurp(back));

    fs::remove(bin);
    fs::remove(txt);
    fs::remove(back);
}

} // namespace
