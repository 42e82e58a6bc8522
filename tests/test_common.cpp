/**
 * @file
 * Unit tests for common utilities: JSON, geometry/units, RNG, logging.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

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
