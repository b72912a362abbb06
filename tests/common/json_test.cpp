/// Tests for the JSON value type, parser and serializer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/hash.h"
#include "common/json.h"

namespace mystique {
namespace {

TEST(Json, DefaultIsNull)
{
    Json j;
    EXPECT_TRUE(j.is_null());
    EXPECT_EQ(j.dump(), "null");
}

TEST(Json, BoolRoundTrip)
{
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_TRUE(Json::parse("true").as_bool());
    EXPECT_FALSE(Json::parse("false").as_bool());
}

TEST(Json, IntRoundTrip)
{
    EXPECT_EQ(Json(int64_t{42}).dump(), "42");
    EXPECT_EQ(Json::parse("-17").as_int(), -17);
    // 64-bit IDs survive exactly (ET node/tensor IDs).
    const int64_t big = 9007199254740993ll; // 2^53 + 1, breaks doubles
    EXPECT_EQ(Json::parse(Json(big).dump()).as_int(), big);
}

TEST(Json, DoubleRoundTrip)
{
    const double v = 3.14159265358979;
    EXPECT_DOUBLE_EQ(Json::parse(Json(v).dump()).as_double(), v);
    EXPECT_DOUBLE_EQ(Json::parse("2.5e3").as_double(), 2500.0);
    EXPECT_DOUBLE_EQ(Json::parse("-0.125").as_double(), -0.125);
}

TEST(Json, IntAsDoubleCoercion)
{
    EXPECT_DOUBLE_EQ(Json::parse("7").as_double(), 7.0);
    EXPECT_EQ(Json::parse("7.0").as_int(), 7);
}

TEST(Json, AsIntRejectsIntegralDoublesOutsideInt64)
{
    // Integers past int64 parse as doubles; converting those is undefined,
    // so as_int refuses every integral double outside [-2^63, 2^63).
    EXPECT_THROW(Json::parse("1e30").as_int(), ParseError);
    EXPECT_THROW(Json::parse("-1e30").as_int(), ParseError);
    EXPECT_THROW(Json::parse("9223372036854775808").as_int(), ParseError);
    EXPECT_THROW(Json::parse("9.223372036854775808e18").as_int(), ParseError);
    EXPECT_EQ(Json::parse("9223372036854775807").as_int(), INT64_MAX);
    EXPECT_EQ(Json::parse("-9223372036854775808").as_int(), INT64_MIN);
    EXPECT_EQ(Json::parse("-9.223372036854775808e18").as_int(), INT64_MIN);
}

TEST(Json, AsInt32NarrowsOnlyWhatFits)
{
    EXPECT_EQ(Json::parse("2147483647").as_int32(), INT32_MAX);
    EXPECT_EQ(Json::parse("-2147483648").as_int32(), INT32_MIN);
    EXPECT_EQ(Json::parse("8.0").as_int32(), 8);
    // 2^32 + 8 would wrap to 8.
    EXPECT_THROW(Json::parse("4294967304").as_int32(), ParseError);
    EXPECT_THROW(Json::parse("2147483648").as_int32(), ParseError);
    EXPECT_THROW(Json::parse("-2147483649").as_int32(), ParseError);
    EXPECT_THROW(Json::parse("\"8\"").as_int32(), ParseError);
}

TEST(Json, StringEscapes)
{
    Json j(std::string("a\"b\\c\nd\te"));
    const std::string text = j.dump();
    EXPECT_EQ(Json::parse(text).as_string(), "a\"b\\c\nd\te");
}

TEST(Json, UnicodeEscapeParsing)
{
    EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
    // é = U+00E9 → two UTF-8 bytes
    const std::string s = Json::parse("\"\\u00e9\"").as_string();
    EXPECT_EQ(s.size(), 2u);
}

TEST(Json, SurrogatePair)
{
    // U+1F600 (emoji) via surrogate pair → 4 UTF-8 bytes.
    const std::string s = Json::parse("\"\\ud83d\\ude00\"").as_string();
    EXPECT_EQ(s.size(), 4u);
}

TEST(Json, ArrayRoundTrip)
{
    Json arr = Json::array();
    arr.push_back(Json(1));
    arr.push_back(Json("x"));
    arr.push_back(Json());
    const Json back = Json::parse(arr.dump());
    ASSERT_EQ(back.as_array().size(), 3u);
    EXPECT_EQ(back.as_array()[0].as_int(), 1);
    EXPECT_EQ(back.as_array()[1].as_string(), "x");
    EXPECT_TRUE(back.as_array()[2].is_null());
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zebra", Json(1));
    obj.set("alpha", Json(2));
    const std::string text = obj.dump();
    EXPECT_LT(text.find("zebra"), text.find("alpha"));
}

TEST(Json, ObjectSetOverwrites)
{
    Json obj = Json::object();
    obj.set("k", Json(1));
    obj.set("k", Json(2));
    EXPECT_EQ(obj.as_object().size(), 1u);
    EXPECT_EQ(obj.at("k").as_int(), 2);
}

TEST(Json, FindAndContains)
{
    Json obj = Json::object();
    obj.set("a", Json(1));
    EXPECT_TRUE(obj.contains("a"));
    EXPECT_FALSE(obj.contains("b"));
    EXPECT_EQ(obj.find("b"), nullptr);
    EXPECT_THROW(obj.at("b"), ParseError);
}

TEST(Json, RequiredAndOptionalMembers)
{
    // A reader takes a member its writer always emits with at(key).as_*():
    // missing and mistyped are both ParseErrors, never a default.
    const Json obj = Json::parse(R"({"i": 5, "s": "str", "b": true})");
    EXPECT_EQ(obj.at("i").as_int(), 5);
    EXPECT_EQ(obj.at("s").as_string(), "str");
    EXPECT_TRUE(obj.at("b").as_bool());
    EXPECT_THROW(obj.at("missing").as_int(), ParseError);
    EXPECT_THROW(obj.at("s").as_int(), ParseError);
    EXPECT_THROW(obj.at("i").as_string(), ParseError);
    EXPECT_THROW(obj.at("i").as_bool(), ParseError);

    // A member the writer may omit is read through find(): absent leaves
    // the default, present must still have the right type.
    EXPECT_EQ(obj.find("missing"), nullptr);
    ASSERT_NE(obj.find("b"), nullptr);
    EXPECT_TRUE(obj.find("b")->as_bool());
    EXPECT_THROW(obj.find("s")->as_bool(), ParseError);
}

TEST(Json, NestedStructures)
{
    const char* text = R"({"a": [1, {"b": [true, null]}], "c": {"d": 2.5}})";
    const Json j = Json::parse(text);
    EXPECT_EQ(j.at("a").as_array()[1].at("b").as_array().size(), 2u);
    EXPECT_DOUBLE_EQ(j.at("c").at("d").as_double(), 2.5);
    // Round-trip through compact and pretty forms.
    EXPECT_EQ(Json::parse(j.dump()), j);
    EXPECT_EQ(Json::parse(j.dump(2)), j);
}

TEST(Json, WhitespaceTolerance)
{
    const Json j = Json::parse("  {  \"a\"  :  [ 1 , 2 ]  }  \n");
    EXPECT_EQ(j.at("a").as_array().size(), 2u);
}

TEST(Json, EmptyContainers)
{
    EXPECT_TRUE(Json::parse("[]").as_array().empty());
    EXPECT_TRUE(Json::parse("{}").as_object().empty());
    EXPECT_EQ(Json::parse("[]").dump(), "[]");
    EXPECT_EQ(Json::parse("{}").dump(), "{}");
}

TEST(Json, ParseErrors)
{
    EXPECT_THROW(Json::parse(""), ParseError);
    EXPECT_THROW(Json::parse("{"), ParseError);
    EXPECT_THROW(Json::parse("[1,"), ParseError);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
    EXPECT_THROW(Json::parse("tru"), ParseError);
    EXPECT_THROW(Json::parse("1 2"), ParseError);
    EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
    EXPECT_THROW(Json::parse("-"), ParseError);
    EXPECT_THROW(Json::parse("[1] trailing"), ParseError);
}

TEST(Json, ParseErrorReportsPosition)
{
    try {
        Json::parse("{\n  \"a\": oops\n}");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos);
    }
}

TEST(Json, TypeMismatchThrows)
{
    const Json j = Json::parse("42");
    EXPECT_THROW(j.as_string(), ParseError);
    EXPECT_THROW(j.as_array(), ParseError);
    EXPECT_THROW(j.as_object(), ParseError);
    EXPECT_THROW(Json::parse("1.5").as_int(), ParseError);
}

TEST(Json, FileRoundTrip)
{
    Json obj = Json::object();
    obj.set("key", Json(123));
    const std::string path = testing::TempDir() + "/mystique_json_test.json";
    obj.dump_file(path);
    EXPECT_EQ(Json::parse_file(path), obj);
}

TEST(Json, ParseFileMissingThrows)
{
    EXPECT_THROW(Json::parse_file("/nonexistent/path/file.json"), ParseError);
}

TEST(Json, NumericEquality)
{
    EXPECT_EQ(Json(2), Json(2.0));
    EXPECT_NE(Json(2), Json(3));
    EXPECT_NE(Json(2), Json("2"));
}

TEST(Json, NanSerializesAsNull)
{
    const Json j(std::nan(""));
    EXPECT_EQ(j.dump(), "null");
}

TEST(Json, PrettyPrintIndents)
{
    Json obj = Json::object();
    obj.set("a", Json(1));
    const std::string text = obj.dump(4);
    EXPECT_NE(text.find("\n    \"a\""), std::string::npos);
}

TEST(Json, DeeplyNestedArrayThrowsInsteadOfOverflowing)
{
    // 10k-deep nesting: without the parser's recursion cap this would
    // overflow the stack (parse_value recurses per level) — a crash an
    // adversarial plan-store entry or trace file must not be able to cause.
    constexpr int kDepth = 10000;
    std::string doc;
    doc.reserve(2 * kDepth);
    for (int i = 0; i < kDepth; ++i)
        doc += '[';
    for (int i = 0; i < kDepth; ++i)
        doc += ']';
    EXPECT_THROW((void)Json::parse(doc), ParseError);
}

TEST(Json, DeeplyNestedObjectThrowsInsteadOfOverflowing)
{
    constexpr int kDepth = 10000;
    std::string doc;
    doc.reserve(8 * kDepth);
    for (int i = 0; i < kDepth; ++i)
        doc += "{\"k\":";
    doc += "0";
    for (int i = 0; i < kDepth; ++i)
        doc += '}';
    EXPECT_THROW((void)Json::parse(doc), ParseError);
}

TEST(Json, NestingAtTheCapStillParses)
{
    // The cap must reject runaway documents, not real ones: 200 levels is
    // within the documented 256-deep budget and must round-trip fine.
    constexpr int kDepth = 200;
    std::string doc;
    for (int i = 0; i < kDepth; ++i)
        doc += '[';
    doc += "42";
    for (int i = 0; i < kDepth; ++i)
        doc += ']';
    Json j = Json::parse(doc);
    for (int i = 0; i < kDepth; ++i) {
        Json inner = j.as_array().front();
        j = std::move(inner);
    }
    EXPECT_EQ(j.as_int(), 42);
}

TEST(Json, U64RoundTripsThroughDecimalStrings)
{
    for (const uint64_t v : {uint64_t{0}, uint64_t{1} << 63, UINT64_MAX}) {
        const Json j = Json::from_u64(v);
        EXPECT_EQ(j.as_string(), std::to_string(v));
        EXPECT_EQ(Json::parse(j.dump()).as_u64(), v);
    }
    for (const char* bad : {"", "-1", "12a", " 1", "18446744073709551616"})
        EXPECT_THROW((void)Json(bad).as_u64(), ParseError) << bad;
    EXPECT_THROW((void)Json(int64_t{5}).as_u64(), ParseError);
}

/// A document shaped like a sealed plan: nested containers, an escaped
/// string, a u64 and, nested, a member named "seal" (an op called `seal`
/// in a coverage table), which is body, not seal.
Json
sealable()
{
    Json unsupported = Json::object();
    unsupported.set("seal", Json(2));
    Json coverage = Json::object();
    coverage.set("unsupported_by_name", std::move(unsupported));
    Json ops = Json::array();
    ops.push_back(Json(1));
    ops.push_back(Json("a\"b"));
    Json doc = Json::object();
    doc.set("key", Json::from_u64(UINT64_MAX));
    doc.set("coverage", std::move(coverage));
    doc.set("ops", std::move(ops));
    return doc;
}

TEST(Json, SealedRoundTripsCompactAndIndented)
{
    const Json doc = sealable();
    for (const int indent : {-1, 2}) {
        const std::string text = doc.dump_sealed(indent);
        // dump() of the object with one more member, "seal", last: the hash
        // of every byte before the comma that introduces it.
        const Json with_seal = Json::parse(text);
        ASSERT_EQ(with_seal.as_object().back().first, "seal") << indent;
        EXPECT_EQ(text, with_seal.dump(indent));
        EXPECT_EQ(with_seal.at("seal").as_u64(), hash_bytes(text.substr(0, text.rfind(','))));
        EXPECT_EQ(Json::parse_sealed(text), doc) << indent;
    }
    EXPECT_THROW((void)Json::object().dump_sealed(), MystiqueError);
}

TEST(Json, SealedFailsOnAnyByteFlippedBeforeTheSeal)
{
    for (const int indent : {-1, 2}) {
        const std::string text = sealable().dump_sealed(indent);
        const std::size_t comma = text.rfind(',');
        for (std::size_t i = 0; i < comma; ++i) {
            std::string flipped = text;
            flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
            EXPECT_THROW((void)Json::parse_sealed(flipped), ParseError)
                << "indent " << indent << ", byte " << i;
        }
        // And the seal itself.
        std::string reseal = text;
        char& digit = reseal[reseal.rfind('"') - 1];
        digit = digit == '0' ? '1' : '0';
        EXPECT_THROW((void)Json::parse_sealed(reseal), ParseError) << indent;
    }
}

TEST(Json, SealedRejectsMissingMisplacedAndMalformedSeals)
{
    const std::string text = sealable().dump_sealed();
    const Json with_seal = Json::parse(text);

    Json missing = with_seal;
    missing.as_object().pop_back();
    EXPECT_THROW((void)Json::parse_sealed(missing.dump()), ParseError);
    // A member after the seal, which still matches the bytes before it.
    EXPECT_THROW((void)Json::parse_sealed(text.substr(0, text.size() - 1) + ",\"x\":1}"),
                 ParseError);
    EXPECT_THROW((void)Json::parse_sealed("[" + text + "]"), ParseError);
    EXPECT_THROW((void)Json::parse_sealed("\"seal\""), ParseError);
    EXPECT_THROW((void)Json::parse_sealed("{\"seal\":\"1\"}"), ParseError);
    for (const Json& bad : {Json("abc"), Json("-1"), Json(int64_t{1}), Json()}) {
        Json doc = with_seal;
        doc.as_object().back().second = bad;
        EXPECT_THROW((void)Json::parse_sealed(doc.dump()), ParseError) << bad.dump();
    }
}

} // namespace
} // namespace mystique
