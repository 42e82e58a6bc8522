/**
 * @file
 * Unit tests for common utilities: JSON, geometry/units, RNG, logging.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <string>

#include "common/geometry.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"

namespace zac
{
namespace
{

// ---------------------------------------------------------------- JSON

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(json::parse("null").isNull());
    EXPECT_TRUE(json::parse("true").asBool());
    EXPECT_FALSE(json::parse("false").asBool());
    EXPECT_DOUBLE_EQ(json::parse("3.25").asDouble(), 3.25);
    EXPECT_EQ(json::parse("-17").asInt(), -17);
    EXPECT_EQ(json::parse("\"hi\\n\"").asString(), "hi\n");
}

TEST(Json, ParsesNestedStructures)
{
    const json::Value v = json::parse(
        R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
    EXPECT_EQ(v.at("a").size(), 3u);
    EXPECT_EQ(v.at("a").at(0).asInt(), 1);
    EXPECT_TRUE(v.at("a").at(2).at("b").asBool());
    EXPECT_TRUE(v.at("c").at("d").isNull());
}

TEST(Json, ParsesScientificNotationAndEscapes)
{
    EXPECT_DOUBLE_EQ(json::parse("1.5e6").asDouble(), 1.5e6);
    EXPECT_DOUBLE_EQ(json::parse("-2E-3").asDouble(), -2e-3);
    EXPECT_EQ(json::parse("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(json::parse("\"\\u00e9\"").asString(), "\xc3\xa9");
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(json::parse(""), FatalError);
    EXPECT_THROW(json::parse("{"), FatalError);
    EXPECT_THROW(json::parse("[1,]"), FatalError);
    EXPECT_THROW(json::parse("{\"a\" 1}"), FatalError);
    EXPECT_THROW(json::parse("tru"), FatalError);
    EXPECT_THROW(json::parse("\"unterminated"), FatalError);
    EXPECT_THROW(json::parse("1 2"), FatalError);
    EXPECT_THROW(json::parse("01a"), FatalError);
}

TEST(Json, ErrorsCarryLineAndColumn)
{
    try {
        json::parse("{\n  \"a\": nope\n}");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

// std::stod used to throw std::out_of_range out of the parser on
// numbers past the double range, in both directions.
TEST(Json, NumbersPastTheDoubleRange)
{
    // Overflow is a parse error at the literal's line and column.
    for (const char *text : {"1e999", "-1e999", "[1,\n  2e400]"}) {
        try {
            json::parse(text);
            FAIL() << "expected FatalError for " << text;
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("out of range"), std::string::npos) << what;
            if (std::string(text).find('\n') != std::string::npos) {
                EXPECT_NE(what.find("line 2, col 3"), std::string::npos)
                    << what;
            }
        }
    }
    // Underflow rounds, as strtod does.
    EXPECT_EQ(json::parse("1e-400").asDouble(), 0.0);
    EXPECT_EQ(json::parse("{\"seed\": -1e-400}").at("seed").asInt(), 0);
    EXPECT_GT(json::parse("4e-320").asDouble(), 0.0); // subnormal
}

TEST(Json, AccessorsAreKindChecked)
{
    const json::Value v = json::parse("[1]");
    EXPECT_THROW(v.asObject(), FatalError);
    EXPECT_THROW(v.at("key"), FatalError);
    EXPECT_THROW(v.at(5), FatalError);
    EXPECT_THROW(json::parse("1.5").asInt(), FatalError);
    // asInt() holds to the int64 range instead of casting past it.
    EXPECT_THROW(json::parse("1e30").asInt(), FatalError);
    EXPECT_THROW(json::parse("-1e30").asInt(), FatalError);
    EXPECT_THROW(json::parse("9223372036854775808").asInt(), FatalError);
    EXPECT_EQ(json::parse("-9223372036854775808").asInt(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(json::parse("4294967296").asInt(), 4294967296);
}

// asInt32() is the accessor for every value a loader keeps in an int:
// it rejects what a static_cast<int> of asInt() would wrap, and what
// asInt() already rejects (fractions, NaN-free range).
TEST(Json, Int32AccessorRejectsWhatANarrowingCastWouldWrap)
{
    for (const char *text : {"2.7", "2.5", "-0.5", "4294967297",
                             "2147483648", "-2147483649", "1e20", "-1e20",
                             "1e300"})
        EXPECT_THROW(json::parse(text).asInt32(), FatalError) << text;
    try {
        json::parse("4294967297").asInt32();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("4294967297 is outside"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(json::parse("\"1\"").asInt32(), FatalError);
    EXPECT_EQ(json::parse("2147483647").asInt32(),
              std::numeric_limits<std::int32_t>::max());
    EXPECT_EQ(json::parse("-2147483648").asInt32(),
              std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(json::parse("1").asInt32(), 1);
    EXPECT_EQ(json::parse("-0.0").asInt32(), 0);
    EXPECT_EQ(json::parse("3e2").asInt32(), 300);
}

/** The formatter appendNumber replaced, kept here as its reference. */
std::string
printfNumber(double d)
{
    char buf[64];
    if (std::nearbyint(d) == d && std::abs(d) < 9.0e15)
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    else
        std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

std::string
appendedNumber(double d)
{
    std::string out = "x";
    json::appendNumber(out, d);
    return out.substr(1);
}

TEST(Json, NumberFormatterMatchesPrintf)
{
    using lim = std::numeric_limits<double>;
    const double edge[] = {
        0.0,           -0.0,           1.0,           -1.0,
        9e15 - 1,      9e15,           9e15 + 1,      -9e15 + 1,
        -9e15,         -9e15 - 1,      0.1,           1.0 / 3,
        -2.0 / 3,      5e-324,         -5e-324,       1e-320,
        1e300,         -1e300,         lim::max(),    lim::lowest(),
        lim::min(),    lim::epsilon(), 0.5,           -0.5,
        2.5,           1e15,           1e16,          1e17,
        123456789.125, 4294967296.0,   9007199254740993.0,
        lim::infinity(), -lim::infinity(), lim::quiet_NaN(),
        -lim::quiet_NaN()};
    for (double d : edge)
        EXPECT_EQ(appendedNumber(d), printfNumber(d)) << printfNumber(d);
    EXPECT_EQ(appendedNumber(-0.0), "0");
    EXPECT_EQ(appendedNumber(1.0 / 3), "0.33333333333333331");
    EXPECT_EQ(appendedNumber(9e15), "9000000000000000");
    EXPECT_EQ(appendedNumber(1e17), "1e+17");

    // Seeded sweep over random bit patterns (every exponent, NaN
    // payloads, subnormals), plus integers and short decimals near the
    // values a compile emits.
    std::mt19937_64 rng(20251017);
    std::size_t mismatches = 0;
    const auto check = [&](double d) {
        if (appendedNumber(d) != printfNumber(d) && ++mismatches <= 5)
            ADD_FAILURE() << "mismatch for " << printfNumber(d);
    };
    for (int i = 0; i < 1'000'000; ++i)
        check(std::bit_cast<double>(rng()));
    std::uniform_int_distribution<std::int64_t> ints(-20'000'000'000'000'000,
                                                     20'000'000'000'000'000);
    std::uniform_real_distribution<double> reals(-1e4, 1e4);
    for (int i = 0; i < 100'000; ++i) {
        check(static_cast<double>(ints(rng)));
        check(std::round(reals(rng) * 1000.0) / 1000.0);
        check(reals(rng));
    }
    EXPECT_EQ(mismatches, 0u);
}

// A write that fails, e.g. on a full disk, is an error naming the file,
// not a silently truncated document.
TEST(Json, WriteFileReportsAFailedWrite)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    json::Array big;
    for (int i = 0; i < 10'000; ++i)
        big.emplace_back(i);
    try {
        json::writeFile("/dev/full", json::Value(std::move(big)));
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("/dev/full"),
                  std::string::npos)
            << e.what();
    }
    // A small document fails too: the error surfaces at the last flush.
    EXPECT_THROW(json::writeFile("/dev/full", json::Value(1)), FatalError);
}

TEST(Json, DumpParseRoundTrip)
{
    const std::string src =
        R"({"aods":[{"id":0,"r":100}],"name":"arch","sep":[3,3.5]})";
    const json::Value v = json::parse(src);
    const json::Value v2 = json::parse(v.dump());
    EXPECT_EQ(v2.at("name").asString(), "arch");
    EXPECT_EQ(v2.at("aods").at(0).at("r").asInt(), 100);
    EXPECT_DOUBLE_EQ(v2.at("sep").at(1).asDouble(), 3.5);
    // Pretty printing parses back too.
    EXPECT_EQ(json::parse(v.dump(2)).at("name").asString(), "arch");
}

TEST(Json, NumberOrFallsBack)
{
    const json::Value v = json::parse(R"({"x": 2})");
    EXPECT_DOUBLE_EQ(v.numberOr("x", 7.0), 2.0);
    EXPECT_DOUBLE_EQ(v.numberOr("y", 7.0), 7.0);
}

// ------------------------------------------------------------ geometry

TEST(Geometry, DistanceIsEuclidean)
{
    EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(Geometry, MoveDurationFollowsSqrtLaw)
{
    // The paper's worked ZAIR example (appendix H): moving 33.5 um
    // takes about 110.4 us at d/t^2 = 2750 m/s^2.
    const double d = std::sqrt(32.0 * 32.0 + 10.0 * 10.0);
    EXPECT_NEAR(moveDurationUs(d), 110.4, 0.2);
    // Zone separation (10 um) takes ~60.3 us.
    EXPECT_NEAR(moveDurationUs(10.0), 60.30, 0.05);
    EXPECT_DOUBLE_EQ(moveDurationUs(0.0), 0.0);
    EXPECT_DOUBLE_EQ(moveDurationUs(-1.0), 0.0);
}

TEST(Geometry, MoveDurationIsMonotone)
{
    double prev = 0.0;
    for (double d = 1.0; d < 400.0; d += 7.0) {
        const double t = moveDurationUs(d);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(Geometry, PointArithmetic)
{
    const Point p = Point{1, 2} + Point{3, 4};
    EXPECT_EQ(p, (Point{4, 6}));
    const Point q = Point{} - Point{1, 1};
    EXPECT_EQ(q, (Point{-1, -1}));
}

// ----------------------------------------------------------------- RNG

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        const int v = rng.nextInt(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
        EXPECT_LT(rng.nextBelow(10), 10u);
    }
}

TEST(Rng, RoughlyUniform)
{
    Rng rng(11);
    int counts[8] = {};
    const int samples = 80000;
    for (int i = 0; i < samples; ++i)
        ++counts[rng.nextBelow(8)];
    for (int c : counts) {
        EXPECT_GT(c, samples / 8 - samples / 40);
        EXPECT_LT(c, samples / 8 + samples / 40);
    }
}

// ------------------------------------------------------------- logging

TEST(Logging, FatalAndPanicThrowDistinctTypes)
{
    EXPECT_THROW(fatal("user error"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
    try {
        fatal("specific message");
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("specific message"),
                  std::string::npos);
    }
}

TEST(Logging, VerboseToggle)
{
    setVerbose(true);
    EXPECT_TRUE(verbose());
    setVerbose(false);
    EXPECT_FALSE(verbose());
}

} // namespace
} // namespace zac
