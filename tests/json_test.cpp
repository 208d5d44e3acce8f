// util/json — the one JSON type: the DOM parser behind tools/rdt_stats and
// the serializer behind every report and trace. Grammar coverage,
// typed-accessor contracts, the rejection paths (the parser reads files from
// disk, i.e. untrusted input; tests mirror the fuzz harness's contract:
// parse or invalid_argument), and dump()'s exact spelling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace rdt::json {
namespace {

TEST(Json, ScalarsAndLiterals) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse("-1e3").as_double(), -1000.0);
  EXPECT_DOUBLE_EQ(parse("2.5E-1").as_double(), 0.25);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse("  42  ").as_int(), 42);  // surrounding whitespace
}

TEST(Json, IntegerVersusDouble) {
  EXPECT_TRUE(parse("10").is_int());
  EXPECT_TRUE(parse("10.0").is_double());
  EXPECT_TRUE(parse("1e2").is_double());
  // as_double accepts integers (JSON has one number type)...
  EXPECT_DOUBLE_EQ(parse("10").as_double(), 10.0);
  // ...but as_int stays strict.
  EXPECT_THROW(parse("10.0").as_int(), std::invalid_argument);
  // Magnitude beyond long long falls back to double instead of failing.
  EXPECT_TRUE(parse("123456789012345678901234567890").is_double());
  EXPECT_EQ(parse("9223372036854775807").as_int(), 9223372036854775807ll);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  // Raw UTF-8 passes through; \u escapes decode to UTF-8, including the
  // BMP (U+00E9) and surrogate pairs (U+1F600).
  EXPECT_EQ(parse("\"A\xc3\xa9\"").as_string(), "A\xc3\xa9");
  EXPECT_EQ(parse(R"("A\u00e9")").as_string(), "A\xc3\xa9");
  EXPECT_EQ(parse("\"\xf0\x9f\x98\x80\"").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_THROW(parse(R"("\ud83d")"), std::invalid_argument);  // unpaired
  EXPECT_THROW(parse(R"("\ude00")"), std::invalid_argument);  // lone low
  EXPECT_THROW(parse(R"("\x41")"), std::invalid_argument);    // bad escape
  EXPECT_THROW(parse("\"a\nb\""), std::invalid_argument);  // raw control char
}

TEST(Json, ArraysAndObjects) {
  const Value v = parse(R"({"a":[1,2,3],"b":{"c":true},"a":null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.as_object().size(), 3u);  // duplicates preserved...
  EXPECT_EQ(v.at("a").as_array().size(), 3u);  // ...find() takes the first
  EXPECT_EQ(v.at("a").as_array()[2].as_int(), 3);
  EXPECT_EQ(v.at("b").at("c").as_bool(), true);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), std::invalid_argument);
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_TRUE(parse("{}").as_object().empty());
  // Member order is preserved (the writers rely on it for clean diffs).
  const Value ordered = parse(R"({"z":1,"a":2})");
  EXPECT_EQ(ordered.as_object()[0].first, "z");
  EXPECT_EQ(ordered.as_object()[1].first, "a");
}

TEST(Json, AccessorKindMismatchesThrow) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), std::invalid_argument);
  EXPECT_THROW(v.as_string(), std::invalid_argument);
  EXPECT_THROW(v.as_bool(), std::invalid_argument);
  EXPECT_THROW(parse("\"s\"").as_double(), std::invalid_argument);
  EXPECT_EQ(parse("1").find("k"), nullptr);  // find on non-object: absent
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "   ", "{", "[", "[1,]", "{\"a\":}", "{\"a\" 1}", "{a:1}",
        "[1] trailing", "tru", "nul", "01", "-", "1.", "2e+", "+1",
        "\"unterminated", "{\"a\":1,}", "[1 2]", "\x01"}) {
    EXPECT_THROW(parse(bad), std::invalid_argument) << '"' << bad << '"';
  }
  // Error messages carry the byte offset, pattern-parser style.
  try {
    parse("[1, oops]");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, DeepNestingIsBoundedNotFatal) {
  // Beyond the parser's depth limit: must throw, not overflow the stack.
  const std::string deep(100000, '[');
  EXPECT_THROW(parse(deep), std::invalid_argument);
  // A comfortably nested document still parses.
  std::string ok;
  for (int i = 0; i < 100; ++i) ok += '[';
  ok += '1';
  for (int i = 0; i < 100; ++i) ok += ']';
  EXPECT_EQ(parse(ok).as_array().size(), 1u);
}

TEST(Json, RejectsNumbersBeyondDoubleRange) {
  // dump() could not write an infinity back, so the parser refuses one...
  EXPECT_THROW(parse("1e999"), std::invalid_argument);
  EXPECT_THROW(parse("[-1e400]"), std::invalid_argument);
  // ...while underflow to zero or a subnormal is an ordinary value.
  EXPECT_EQ(parse("1e-400").as_double(), 0.0);
  EXPECT_GT(parse("4e-320").as_double(), 0.0);
}

TEST(JsonDump, ScalarSpellings) {
  EXPECT_EQ(Value().dump(), "null");
  EXPECT_EQ(Value(nullptr).dump(), "null");
  EXPECT_EQ(Value(true).dump(), "true");
  EXPECT_EQ(Value(false).dump(), "false");
  EXPECT_EQ(Value(-7).dump(), "-7");
  EXPECT_EQ(Value("s").dump(), "\"s\"");
  EXPECT_EQ(Value(std::string("t")).dump(), "\"t\"");
}

TEST(JsonDump, IntegerVersusDoubleSpelling) {
  // Integers of every width are stored and written as integers.
  EXPECT_TRUE(Value(std::size_t{3}).is_int());
  EXPECT_EQ(Value(std::int64_t{-9'000'000'000}).dump(), "-9000000000");
  EXPECT_EQ(Value(std::numeric_limits<long long>::max()).dump(), "9223372036854775807");
  EXPECT_EQ(Value(std::numeric_limits<long long>::min()).dump(), "-9223372036854775808");
  // An unsigned value beyond long long becomes a double, as the parser
  // reads an overflowing integer token.
  const Value big(std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(big.is_double());
  EXPECT_EQ(big.dump(), "1.8446744073709552e+19");
  // Doubles print at max_digits10 in the shortest %g form: no fraction for
  // integral values, an exponent when it is shorter.
  EXPECT_EQ(Value(2.0).dump(), "2");
  EXPECT_EQ(Value(-0.0).dump(), "-0");
  EXPECT_EQ(Value(0.5).dump(), "0.5");
  EXPECT_EQ(Value(0.1).dump(), "0.10000000000000001");
  EXPECT_EQ(Value(1e21).dump(), "1e+21");
  EXPECT_EQ(Value(1.5e-7).dump(), "1.4999999999999999e-07");
}

TEST(JsonDump, NonFiniteDoublesAreNull) {
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Value(-std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Value(std::nan("")).dump(), "null");
  EXPECT_EQ(Value(Array{1.0, std::nan(""), 2}).dump(), "[1,null,2]");
}

TEST(JsonDump, DoublesRoundTripBitExact) {
  for (const double d : {0.1, 1.0 / 3.0, 2.0 / 3.0, 123456.789, 6.02214076e23,
                         -2.2250738585072014e-308, 4.9406564584124654e-324,
                         std::numeric_limits<double>::max(), 9007199254740993.0}) {
    const Value back = parse(Value(d).dump());
    EXPECT_EQ(back.as_double(), d) << Value(d).dump();
  }
}

TEST(JsonDump, StringEscapesAndControlBytes) {
  EXPECT_EQ(Value("a\"b\\c").dump(), R"("a\"b\\c")");
  EXPECT_EQ(Value("line\nnext\ttab").dump(), R"("line\nnext\ttab")");
  // Other control bytes, \r and \b included, use lower-case \u00XX; NUL
  // survives inside a std::string.
  EXPECT_EQ(Value(std::string("\r\b\x01\x1f", 4)).dump(), R"("\u000d\u0008\u0001\u001f")");
  EXPECT_EQ(Value(std::string("a\0b", 3)).dump(), R"("a\u0000b")");
  // '/', DEL and UTF-8 bytes pass through raw.
  EXPECT_EQ(Value("/\x7f\xc3\xa9").dump(), "\"/\x7f\xc3\xa9\"");
  // Keys are escaped the same way.
  EXPECT_EQ(Value(Object{{"k\"", 1}}).dump(), R"({"k\"":1})");
  // Every byte string reads back unchanged.
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(parse(Value(all).dump()).as_string(), all);
}

TEST(JsonDump, ContainersKeepMemberOrderAndDuplicates) {
  const Value v = Object{{"z", 1},
                         {"a", Array{true, nullptr, "x", Object{}}},
                         {"m", Array{}},
                         {"z", 2.5}};
  EXPECT_EQ(v.dump(), R"({"z":1,"a":[true,null,"x",{}],"m":[],"z":2.5})");
  // Reparsing gives the same members in the same order.
  EXPECT_EQ(parse(v.dump()), v);
  EXPECT_EQ(parse(v.dump()).as_object()[3].first, "z");
}

TEST(JsonDump, StreamOverloadMatchesAndLeavesTheStreamAlone) {
  std::ostringstream os;
  os.precision(2);
  Value(Array{0.125, 7}).dump(os);
  os << ' ' << 0.126;  // the caller's precision is untouched
  EXPECT_EQ(os.str(), "[0.125,7] 0.13");
}

TEST(JsonEquality, NumbersCompareByValue) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_EQ(Value(1.0), Value(1));
  EXPECT_NE(Value(1), Value(1.5));
  EXPECT_NE(Value(1), Value(true));
  EXPECT_NE(Value(1), Value("1"));
  // Exact, not through a lossy conversion: 2^53 + 1 is no double.
  EXPECT_NE(Value(9007199254740993LL), Value(9007199254740992.0));
  EXPECT_EQ(Value(9007199254740992LL), Value(9007199254740992.0));
  // Doubles outside long long's range never equal an integer.
  EXPECT_NE(Value(0x1p63), Value(std::numeric_limits<long long>::max()));
  EXPECT_EQ(Value(-0x1p63), Value(std::numeric_limits<long long>::min()));
  // Containers compare element-wise and in order.
  EXPECT_EQ(parse("[1,{\"a\":2}]"), parse("[1.0,{\"a\":2e0}]"));
  EXPECT_NE(parse(R"({"a":1,"b":2})"), parse(R"({"b":2,"a":1})"));
}

TEST(JsonDump, ParseDumpParseIsStable) {
  for (const char* text :
       {R"({"schema":"rdt-bench-v2","wall_seconds":0.25,"sections":[]})", "[1.0,-0.0,1e300,5e-324]",
        R"(["\u00e9\ud83d\ude00","\/\b\f\r"])", "123456789012345678901234567890",
        "  {\"a\" : [ ] , \"b\" : { } }  "}) {
    // Equal by value, not by spelling: -0.0 is written "-0", which reads
    // back as the integer 0.
    const Value once = parse(text);
    EXPECT_EQ(parse(once.dump()), once) << text;
  }
}

}  // namespace
}  // namespace rdt::json
