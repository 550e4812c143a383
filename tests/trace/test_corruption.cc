/**
 * @file
 * Decoder corruption fuzz: zero-length files, truncation at every
 * prefix length, every single-bit flip of every byte, and crafted
 * header/footer tampering with recomputed checksums must all be
 * rejected with a typed trace::Error — the decoder never crashes
 * and never surfaces garbage records.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
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
    return ::testing::TempDir() + "trace_corrupt_" + leaf;
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good());
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    return bytes;
}

void
writeFile(const std::string &path,
          const std::vector<std::uint8_t> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             std::streamsize(bytes.size()));
    ASSERT_TRUE(os.good());
}

/** Recompute the footer checksum so tampering upstream of it stays
 *  checksum-consistent — isolating the non-checksum validations. */
void
resealChecksum(std::vector<std::uint8_t> &bytes)
{
    ASSERT_GE(bytes.size(), headerBytes + footerBytes);
    std::uint64_t sum = ckpt::WordSum::of(bytes.data(), bytes.size() - 8);
    std::memcpy(bytes.data() + bytes.size() - 8, &sum, 8);
}

/** A small valid trace to corrupt; created once per suite run. */
std::vector<std::uint8_t>
makeValidTrace(const std::string &path, int records = 5)
{
    TraceWriter writer(path);
    for (int i = 0; i < records; ++i) {
        Record rec;
        rec.tickDelta = 100 + i;
        rec.addr = 0x1000 + 128 * i;
        rec.op = Op(i % numOps);
        rec.threadId = std::uint16_t(i);
        writer.append(rec);
    }
    writer.close();
    return readFile(path);
}

/** Expect MappedTrace + full decode to throw trace::Error (any
 *  code); anything else — success or another exception — fails. */
void
expectRejected(const std::string &path, const std::string &what)
{
    try {
        MappedTrace bin(path);
        bin.validateAll();
        FAIL() << what << ": accepted";
    } catch (const Error &) {
        // Typed rejection — exactly what we want.
    } catch (...) {
        FAIL() << what << ": escaped with a non-trace exception";
    }
}

ErrorCode
rejectionCode(const std::string &path)
{
    try {
        MappedTrace bin(path);
        bin.validateAll();
    } catch (const Error &e) {
        return e.code();
    }
    ADD_FAILURE() << path << " was accepted";
    return ErrorCode::ioError;
}

TEST(TraceCorruption, MissingFile)
{
    EXPECT_EQ(rejectionCode(tmpPath("does_not_exist.bin")),
              ErrorCode::ioError);
}

TEST(TraceCorruption, ZeroLengthFile)
{
    const std::string path = tmpPath("zero.bin");
    writeFile(path, {});
    EXPECT_EQ(rejectionCode(path), ErrorCode::tooShort);
    fs::remove(path);
}

TEST(TraceCorruption, TruncationAtEveryPrefixLength)
{
    const std::string base = tmpPath("trunc_base.bin");
    auto bytes = makeValidTrace(base);
    const std::string path = tmpPath("trunc.bin");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::vector<std::uint8_t> prefix(bytes.begin(),
                                         bytes.begin() + len);
        writeFile(path, prefix);
        expectRejected(path, "truncated to " + std::to_string(len));
    }
    // The full file, untampered, still opens.
    writeFile(path, bytes);
    MappedTrace bin(path);
    EXPECT_EQ(bin.recordCount(), 5u);
    fs::remove(path);
    fs::remove(base);
}

TEST(TraceCorruption, EverySingleBitFlipIsRejected)
{
    const std::string base = tmpPath("flip_base.bin");
    auto bytes = makeValidTrace(base);
    const std::string path = tmpPath("flip.bin");
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            auto mutated = bytes;
            mutated[i] ^= std::uint8_t(1u << bit);
            writeFile(path, mutated);
            expectRejected(path, "bit " + std::to_string(bit)
                                     + " of byte "
                                     + std::to_string(i));
        }
    }
    fs::remove(path);
    fs::remove(base);
}

TEST(TraceCorruption, VersionMismatchWithValidChecksum)
{
    const std::string base = tmpPath("ver_base.bin");
    auto bytes = makeValidTrace(base);
    const std::string path = tmpPath("ver.bin");

    std::uint32_t version = formatVersion + 1;
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    resealChecksum(bytes);
    writeFile(path, bytes);
    EXPECT_EQ(rejectionCode(path), ErrorCode::badVersion);
    fs::remove(path);
    fs::remove(base);
}

TEST(TraceFormat, VersionOneIsRefused)
{
    // A version-1 file: the same layout sealed with byte-wise FNV-1a.
    // The version is read before the checksum, so it is refused for
    // its version, not reported as corrupt.
    const std::string base = tmpPath("v1_base.bin");
    auto bytes = makeValidTrace(base);
    const std::string path = tmpPath("v1.bin");
    const std::uint32_t version = 1;
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    std::uint64_t sum = ckpt::fnv1a(bytes.data(), bytes.size() - 8);
    std::memcpy(bytes.data() + bytes.size() - 8, &sum, 8);
    writeFile(path, bytes);
    EXPECT_EQ(rejectionCode(path), ErrorCode::badVersion);
    fs::remove(path);
    fs::remove(base);
}

TEST(TraceCorruption, BadMagicWithValidChecksum)
{
    const std::string base = tmpPath("magic_base.bin");
    auto bytes = makeValidTrace(base);
    const std::string path = tmpPath("magic.bin");
    bytes[0] = 'X';
    resealChecksum(bytes);
    writeFile(path, bytes);
    EXPECT_EQ(rejectionCode(path), ErrorCode::badMagic);
    fs::remove(path);
    fs::remove(base);
}

TEST(TraceCorruption, CountMismatchWithValidChecksum)
{
    const std::string base = tmpPath("count_base.bin");
    auto bytes = makeValidTrace(base);
    const std::string path = tmpPath("count.bin");

    std::uint64_t count = 0;
    std::memcpy(&count, bytes.data() + bytes.size() - 16, 8);
    ++count;
    std::memcpy(bytes.data() + bytes.size() - 16, &count, 8);
    resealChecksum(bytes);
    writeFile(path, bytes);
    EXPECT_EQ(rejectionCode(path), ErrorCode::badCount);
    fs::remove(path);
    fs::remove(base);
}

TEST(TraceCorruption, NonRecordMultipleLengthWithValidChecksum)
{
    const std::string base = tmpPath("len_base.bin");
    auto bytes = makeValidTrace(base);
    const std::string path = tmpPath("len.bin");

    // Inject 8 stray bytes between the records and the footer: the
    // byte length is no longer header + N*record + footer.
    std::vector<std::uint8_t> mutated(
        bytes.begin(), bytes.end() - footerBytes);
    mutated.insert(mutated.end(), 8, std::uint8_t(0xab));
    mutated.insert(mutated.end(), bytes.end() - footerBytes,
                   bytes.end());
    resealChecksum(mutated);
    writeFile(path, mutated);
    EXPECT_EQ(rejectionCode(path), ErrorCode::badLength);
    fs::remove(path);
    fs::remove(base);
}

TEST(TraceCorruption, BadRecordPayloadWithValidChecksum)
{
    const std::string base = tmpPath("rec_base.bin");
    auto bytes = makeValidTrace(base);
    const std::string path = tmpPath("rec.bin");

    // Corrupt record 2's op to an out-of-range value and reseal:
    // the file is structurally perfect, so MappedTrace opens, but
    // decoding the record must throw badRecord.
    bytes[headerBytes + 2 * recordBytes + 16] = numOps;
    resealChecksum(bytes);
    writeFile(path, bytes);

    MappedTrace bin(path); // structure is fine
    EXPECT_EQ(bin.recordCount(), 5u);
    EXPECT_EQ(bin.record(0).tickDelta, Tick(100)); // others decode
    try {
        bin.validateAll();
        FAIL() << "validateAll accepted a bad record payload";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::badRecord);
    }
    fs::remove(path);
    fs::remove(base);
}

TEST(TraceCorruption, ChecksumFieldItselfFlipped)
{
    const std::string base = tmpPath("sum_base.bin");
    auto bytes = makeValidTrace(base);
    const std::string path = tmpPath("sum.bin");
    bytes[bytes.size() - 1] ^= 0x80;
    writeFile(path, bytes);
    EXPECT_EQ(rejectionCode(path), ErrorCode::badChecksum);
    fs::remove(path);
    fs::remove(base);
}

} // namespace
