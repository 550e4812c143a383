/**
 * @file
 * The JSON library: strict parsing (malformed input becomes a
 * JsonError, never UB), exact u64 round-trips, the number rule for
 * doubles, the determinism the memo cache and stats-JSON lean on —
 * dump() is a pure function of the value — and a corruption fuzz of
 * the parser over a stats-JSON document and a campaignd frame.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "sim/json.hh"
#include "sim/stats.hh"

using namespace contutto;

namespace
{

TEST(Json, ScalarsRoundTrip)
{
    EXPECT_EQ(Json::parse("null").kind(), Json::Kind::null);
    EXPECT_TRUE(Json::parse("true").asBool());
    EXPECT_FALSE(Json::parse("false").asBool());
    EXPECT_EQ(Json::parse("42").asU64(), 42u);
    EXPECT_EQ(Json::parse("-7").asI64(), -7);
    EXPECT_DOUBLE_EQ(Json::parse("2.5").asDouble(), 2.5);
    EXPECT_EQ(Json::parse("\"hi\\n\"").asString(), "hi\n");
}

TEST(Json, U64RoundTripsExactly)
{
    // The seed space is the full 64 bits; a detour through double
    // would corrupt large seeds. The parser must keep the token.
    const std::string max = "18446744073709551615";
    Json j = Json::parse(max);
    EXPECT_EQ(j.asU64(), 18446744073709551615ull);
    EXPECT_EQ(j.dump(), max);
    EXPECT_EQ(Json::number(std::uint64_t(18446744073709551615ull))
                  .dump(),
              max);
}

TEST(Json, DumpIsDeterministicAndInsertionOrdered)
{
    Json j = Json::object();
    j.set("zebra", Json::number(std::uint64_t(1)));
    j.set("alpha", Json::string("x"));
    Json inner = Json::array();
    inner.append(Json::boolean(true));
    inner.append(Json::makeNull());
    j.set("list", inner);
    const std::string once = j.dump();
    EXPECT_EQ(once, "{\"zebra\":1,\"alpha\":\"x\",\"list\":"
                    "[true,null]}");
    // Parse -> dump is the identity on the wire form.
    EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(Json, StrictIntegerReadsRejectFloats)
{
    EXPECT_THROW(Json::parse("1.5").asU64(), JsonError);
    EXPECT_THROW(Json::parse("1e3").asU64(), JsonError);
    EXPECT_THROW(Json::parse("-1").asU64(), JsonError);
    EXPECT_THROW(Json::parse("true").asU64(), JsonError);
    EXPECT_THROW(Json::parse("\"7\"").asU64(), JsonError);
}

TEST(Json, MalformedInputThrows)
{
    for (const char *bad :
         {"", "{", "[1,]", "[1, 2,]", "{\"a\":}", "{\"a\": }",
          "{\"a\":1,}", "{'a': 1}", "nul", "\"unterminated",
          "{\"a\":1}trailing", "{} trailing", "\"bad\\q\"",
          "{\"a\":1 \"b\":2}", "[1 2]", "\"raw\ttab\"", "NaN",
          "Infinity", "-Infinity", "+1", ".5", "1.", "1e"})
        EXPECT_THROW(Json::parse(bad), JsonError)
            << "accepted: " << bad;
}

TEST(Json, AcceptsValidValues)
{
    for (const char *good :
         {"{}", "[]", "null", "-1.5e-3", "\"a \\\"quoted\\\" string\"",
          "{\"a\": [1, 2.5, true, false, null], \"b\": {\"c\": \"d\"}}",
          " [ 1 ]\n", "-0.0e+5"})
        EXPECT_NO_THROW(Json::parse(good)) << "rejected: " << good;
}

TEST(Json, LeadingZerosAreRejected)
{
    // RFC 8259: a zero integer part stands alone. dump() echoes a
    // number token verbatim, so accepting "01" would write it back.
    for (const char *bad : {"01", "-01", "00.5", "-", "[01]"})
        EXPECT_THROW(Json::parse(bad), JsonError)
            << "accepted: " << bad;
    for (const char *good : {"0", "-0", "0.5", "10"})
        EXPECT_EQ(Json::parse(good).dump(), good);
}

TEST(Json, DuplicateKeysRejected)
{
    EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), JsonError);
}

TEST(Json, DepthCapStopsRecursion)
{
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += "[";
    for (int i = 0; i < 200; ++i)
        deep += "]";
    EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(Json, HugeNestThrowsTheDepthErrorNotAStackOverflow)
{
    const std::string deep(100000, '[');
    try {
        Json::parse(deep);
        FAIL() << "a 100000-deep nest was accepted";
    } catch (const JsonError &e) {
        EXPECT_NE(std::string(e.what()).find("nesting too deep"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, NonFiniteNumbersDumpAsNull)
{
    EXPECT_EQ(Json::number(NAN).dump(), "null");
    EXPECT_EQ(Json::number(INFINITY).dump(), "null");
    EXPECT_EQ(Json::number(-INFINITY).dump(), "null");
    // What we write, we can read back.
    EXPECT_TRUE(Json::parse(Json::number(NAN).dump()).isNull());
}

TEST(Json, IntegralDoublesDumpAsIntegers)
{
    EXPECT_EQ(Json::number(-0.0).dump(), "0");
    EXPECT_EQ(Json::number(3.0).dump(), "3");
    EXPECT_EQ(Json::number(-42.0).dump(), "-42");
    EXPECT_EQ(Json::number(999999999999999.0).dump(),
              "999999999999999");
    EXPECT_EQ(Json::number(2.5).dump(), "2.5");
}

TEST(Json, DoublesRoundTripThroughDumpAndParse)
{
    for (double v : {1e15, 1e-300, 0.1, 9007199254740993.0, -2.5e-7,
                     1.0 / 3.0, 1.7976931348623157e308}) {
        const std::string text = Json::number(v).dump();
        EXPECT_EQ(Json::parse(text).asDouble(), v) << text;
        EXPECT_EQ(Json::parse(text).dump(), text);
    }
}

TEST(Json, HighBytesDumpAsAsciiEscapes)
{
    // Strings are opaque bytes; the writer must still emit valid
    // UTF-8, so a lone 0xE9 goes out as an escape and comes back
    // as the same byte.
    const std::string dumped = Json::string("\xe9").dump();
    EXPECT_EQ(dumped, "\"\\u00e9\"");
    EXPECT_EQ(Json::parse(dumped).asString(), "\xe9");
    EXPECT_EQ(Json::parse(dumped).dump(), dumped);
    // Raw high bytes on input are accepted and re-emitted escaped.
    EXPECT_EQ(Json::parse("\"\xf0ing\"").dump(), "\"\\u00f0ing\"");
}

TEST(Json, ObjectAccessors)
{
    Json j = Json::parse("{\"a\":1,\"b\":\"two\"}");
    EXPECT_EQ(j.at("a").asU64(), 1u);
    EXPECT_EQ(j.find("b")->asString(), "two");
    EXPECT_EQ(j.find("missing"), nullptr);
    EXPECT_THROW(j.at("missing"), JsonError);
    EXPECT_EQ(j.getU64("a", 9), 1u);
    EXPECT_EQ(j.getU64("zzz", 9), 9u);
    EXPECT_EQ(j.getString("b", "d"), "two");
}

/** A small stats-JSON document: a group tree holding a scalar, a
 *  distribution and an empty histogram. */
std::string
statsDocument()
{
    stats::StatGroup root("sys");
    stats::Scalar ops(&root, "ops", "operations");
    ops += 3;
    stats::StatGroup child("sys.dmi", &root);
    stats::Distribution lat(&child, "lat", "latency");
    lat.sample(1.0);
    lat.sample(2.5);
    stats::Histogram h(&child, "h", "empty histogram", 10.0, 2);
    std::ostringstream os;
    stats::toJson(root, os);
    return os.str();
}

/** One campaignd submit frame, as the client puts it on the wire. */
const std::string submitFrame =
    "{\"type\":\"submit\",\"id\":\"fuzz-1\",\"kind\":\"spin\","
    "\"seed\":18446744073709551615,\"priority\":-3,"
    "\"deadlineMs\":5000,\"stream\":true,\"traceId\":1000,"
    "\"config\":{\"spinMs\":30}}";

/**
 * Parse @p text: it must either yield a value whose dump is a fixed
 * point of parse-then-dump, or throw JsonError. Any other exception
 * escapes and fails the test; a crash or hang fails the binary.
 * Returns true when accepted.
 */
bool
parsesCanonicallyOrThrows(const std::string &text)
{
    try {
        const std::string once = Json::parse(text).dump();
        // When text is already canonical, once == text and the
        // fixed point holds by determinism; re-check the rest.
        if (once != text) {
            EXPECT_EQ(Json::parse(once).dump(), once) << text;
        }
        return true;
    } catch (const JsonError &) {
        return false;
    }
}

void
fuzz(const std::string &doc)
{
    // The seed itself is canonical writer output.
    ASSERT_EQ(Json::parse(doc).dump(), doc);
    std::size_t accepted = 0;
    for (std::size_t cut = 0; cut < doc.size(); ++cut)
        accepted += parsesCanonicallyOrThrows(doc.substr(0, cut));
    // Every proper prefix of an object is incomplete.
    EXPECT_EQ(accepted, 0u);
    std::string m = doc;
    for (std::size_t pos = 0; pos < doc.size(); ++pos) {
        for (unsigned b = 0; b < 256; ++b) {
            m[pos] = char(b);
            parsesCanonicallyOrThrows(m);
        }
        m[pos] = doc[pos];
    }
}

TEST(JsonCorruption, StatsDocumentEveryByteAndTruncation)
{
    const std::string doc = statsDocument();
    EXPECT_NE(doc.find("\"p50\":null"), std::string::npos) << doc;
    fuzz(doc);
}

TEST(JsonCorruption, SubmitFrameEveryByteAndTruncation)
{
    fuzz(submitFrame);
}

} // namespace
