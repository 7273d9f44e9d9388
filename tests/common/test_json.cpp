// The strict JSON reader: the tape's layout and accessors, ObjectReader's
// messages, and the number and string edge cases the contract pins —
// including the literals where std::from_chars and strtod part ways
// (from_chars reports an underflow as out of range and leaves the value
// unset; strtod returns the signed zero the reader must keep).
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ipass {
namespace {

// The message `text` is refused with (ErrorCode::Parse), or "" if accepted.
std::string parse_error(const std::string& text) {
  try {
    JsonDocument doc(text, "doc");
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Parse) << text;
    return e.what();
  }
  return "";
}

double number_of(const std::string& text) {
  return JsonDocument(text, "doc").root().number();
}

// The message ObjectReader work on `text` throws, or "" if none.
template <class F>
std::string reader_error(const std::string& text, F read) {
  const JsonDocument doc(text, "doc");
  try {
    read(doc.root());
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonNumbers, UnderflowKeepsItsSignedZero) {
  const double plus = number_of("1e-400");
  EXPECT_EQ(plus, 0.0);
  EXPECT_FALSE(std::signbit(plus));
  const double minus = number_of("-1e-400");
  EXPECT_EQ(minus, 0.0);
  EXPECT_TRUE(std::signbit(minus));
  // The smallest subnormal and the rounding boundary below it.
  EXPECT_EQ(number_of("4.9406564584124654e-324"), 4.9406564584124654e-324);
  EXPECT_EQ(number_of("2.4703282292062328e-324"), 4.9406564584124654e-324);
  EXPECT_EQ(number_of("2.4703282292062327e-324"), 0.0);
}

TEST(JsonNumbers, OverflowIsRefused) {
  EXPECT_EQ(parse_error("1e999"), "doc: number out of binary64 range at offset 5");
  EXPECT_EQ(parse_error("[-1e999]"), "doc: number out of binary64 range at offset 7");
  EXPECT_EQ(parse_error("1.7976931348623159e308"),
            "doc: number out of binary64 range at offset 22");
  EXPECT_EQ(number_of("1.7976931348623157e308"), 1.7976931348623157e308);
}

TEST(JsonNumbers, LenientSpellingsStayAccepted) {
  EXPECT_EQ(number_of("0123"), 123.0);
  EXPECT_EQ(number_of("-.5"), -0.5);
  EXPECT_EQ(number_of("1."), 1.0);
  EXPECT_EQ(number_of("1.e5"), 1e5);
  EXPECT_TRUE(std::signbit(number_of("-0")));
  EXPECT_EQ(number_of("0.30000000000000004"), 0.30000000000000004);
}

TEST(JsonNumbers, MalformedSpellingsKeepTheirMessages) {
  EXPECT_EQ(parse_error("-"), "doc: malformed number at offset 1");
  EXPECT_EQ(parse_error("--1"), "doc: malformed number at offset 3");
  EXPECT_EQ(parse_error("1e"), "doc: malformed number at offset 2");
  EXPECT_EQ(parse_error("1-2"), "doc: malformed number at offset 3");
  EXPECT_EQ(parse_error("+1"), "doc: unexpected character at offset 0");
}

TEST(JsonDocumentParse, StructuralErrorsNameTheOffset) {
  EXPECT_EQ(parse_error(""), "doc: unexpected end of document at offset 0");
  EXPECT_EQ(parse_error("[1,"), "doc: unexpected end of document at offset 3");
  EXPECT_EQ(parse_error("{\"a\" 1}"), "doc: expected ':' after object key at offset 5");
  EXPECT_EQ(parse_error("{} x"), "doc: trailing characters after document at offset 3");
  EXPECT_EQ(parse_error("\"abc"), "doc: unterminated string at offset 4");
  EXPECT_EQ(parse_error("\"a\\q\""), "doc: unknown escape at offset 4");
  EXPECT_EQ(parse_error("\"\\u00e9\""), "doc: non-ASCII \\u escape not supported at offset 7");
  EXPECT_EQ(parse_error("tru"), "doc: expected 'true' or 'false' at offset 0");
}

TEST(JsonDocumentParse, DepthIsCappedAt64) {
  EXPECT_EQ(parse_error(std::string(64, '[') + std::string(64, ']')), "");
  EXPECT_EQ(parse_error(std::string(65, '[') + std::string(65, ']')),
            "doc: document nested too deeply at offset 64");
}

TEST(JsonDocumentParse, DuplicateKeysAreRefusedAfterDecoding) {
  EXPECT_EQ(parse_error(R"({"a": 1, "a": 2})"), "doc: duplicate object key at offset 12");
  // The same key spelled with an escape is still the same key.
  EXPECT_EQ(parse_error(R"({"a": 1, "\u0061": 2})"),
            "doc: duplicate object key at offset 17");
  // Keys are per object: the same key in two objects is fine.
  EXPECT_EQ(parse_error(R"({"a": {"a": 1}, "b": {"a": 2}})"), "");
}

TEST(JsonTape, MembersAndElementsSkipWholeSubtrees) {
  const JsonDocument doc(
      R"({"a": [1, {"x": [2, 3]}, "s"], "b": true, "c": {"d": -0.5}})", "doc");
  const JsonRef root = doc.root();
  ASSERT_EQ(root.type(), JsonType::Object);
  EXPECT_EQ(root.size(), 3u);
  std::vector<std::string> keys;
  for (const auto& [key, value] : root.members()) keys.emplace_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));

  const JsonRef a = (*root.members().begin()).value;
  ASSERT_EQ(a.type(), JsonType::Array);
  EXPECT_EQ(a.size(), 3u);
  std::vector<JsonType> types;
  for (const JsonRef e : a) types.push_back(e.type());
  EXPECT_EQ(types, (std::vector<JsonType>{JsonType::Number, JsonType::Object,
                                          JsonType::String}));
  for (const auto& [key, value] : root.members()) {
    if (key == "b") {
      EXPECT_TRUE(value.boolean());
    }
    if (key == "c") {
      EXPECT_EQ((*value.members().begin()).value.number(), -0.5);
    }
  }
  const JsonDocument empty("{\"o\": {}, \"e\": []}", "doc");
  for (const auto& [key, value] : empty.root().members()) {
    EXPECT_EQ(value.size(), 0u) << key;
    EXPECT_FALSE(value.begin() != value.end()) << key;
  }
}

TEST(JsonTape, StringsDecodeEscapesOnce) {
  const JsonDocument doc(R"(["plain", "a\"b\u0041\/\n", "", "tail"])", "doc");
  std::vector<std::string> strings;
  for (const JsonRef e : doc.root()) strings.emplace_back(e.string());
  EXPECT_EQ(strings, (std::vector<std::string>{"plain", "a\"bA/\n", "", "tail"}));
}

TEST(JsonTape, CopiesAndMovesKeepEveryRecordValid) {
  // A short text lives inside the std::string (SSO): moving it copies the
  // bytes, so records must hold offsets, not pointers into the text.
  JsonDocument original(R"({"k": "v", "e": "\u0041"})", "doc");
  const JsonDocument copy = original;
  const JsonDocument moved = std::move(original);
  for (const JsonDocument* doc : {&copy, &moved}) {
    std::string seen;
    for (const auto& [key, value] : doc->root().members()) {
      seen += std::string(key) + "=" + std::string(value.string()) + ";";
    }
    EXPECT_EQ(seen, "k=v;e=A;");
  }
}

TEST(JsonTape, ParseJsonMaterializesTheSameTree) {
  const JsonValue v = parse_json(R"({"z": [1, "two", false], "a": {"n": 2.5}})", "doc");
  ASSERT_EQ(v.type, JsonValue::Type::Object);
  ASSERT_EQ(v.object.size(), 2u);
  EXPECT_EQ(v.object[0].first, "z");  // document order, not sorted
  EXPECT_EQ(v.object[0].second.array.size(), 3u);
  EXPECT_EQ(v.object[0].second.array[1].string, "two");
  EXPECT_FALSE(v.object[0].second.array[2].boolean);
  EXPECT_EQ(v.object[1].second.object[0].second.number, 2.5);
}

TEST(JsonObjectReader, ReadsFieldsInAnyOrder) {
  const JsonDocument doc(R"({"a": 1, "b": "x", "c": true, "d": {"e": 2}})", "doc");
  ObjectReader r(doc.root(), "root", "ctx");
  EXPECT_TRUE(r.boolean("c"));
  EXPECT_EQ(r.num("a"), 1.0);  // behind the previous hit: the search wraps
  ObjectReader d = r.obj("d");
  EXPECT_EQ(d.num("e"), 2.0);
  d.done();
  EXPECT_FALSE(r.find("missing", JsonType::Number));
  EXPECT_EQ(r.str_or("b", "fallback"), "x");
  EXPECT_EQ(r.num_or("absent", 7.0), 7.0);
  r.done();
}

TEST(JsonObjectReader, MessagesNameTheScope) {
  const std::string text =
      R"({"v": [{"p": {"x": 1}}, {"p": {"y": "s", "z": 1}}], "n": "s"})";
  EXPECT_EQ(reader_error(text, [](JsonRef root) {
              ObjectReader r(root, "kit", "ctx");
              std::size_t i = 0;
              for (const JsonRef e : r.arr("v")) {
                ObjectReader vr(e, r, "v", i++);
                vr.obj("p").num("x");
              }
            }),
            "ctx: kit.v[1].p is missing field 'x'");
  EXPECT_EQ(reader_error(text, [](JsonRef root) { ObjectReader(root, "kit", "ctx").num("n"); }),
            "ctx: kit.n has the wrong type");
  EXPECT_EQ(reader_error(text,
                         [](JsonRef root) {
                           ObjectReader r(root, "kit", "ctx");
                           r.str("n");
                           r.done();
                         }),
            "ctx: kit has 1 unknown extra field(s)");
  EXPECT_EQ(reader_error("[1]", [](JsonRef root) { ObjectReader(root, "kit", "ctx"); }),
            "ctx: kit must be an object");
  EXPECT_EQ(reader_error(R"({"v": [1]})",
                         [](JsonRef root) {
                           ObjectReader r(root, "kit", "ctx");
                           for (const JsonRef e : r.arr("v")) ObjectReader(e, r, "v", 0);
                         }),
            "ctx: kit.v[0] must be an object");
}

}  // namespace
}  // namespace ipass
