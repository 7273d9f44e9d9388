// A minimal strict JSON reader (objects, arrays, strings, numbers, bools)
// shared by the kit-JSON loader and the serve wire protocol — enough for
// those documents, with no dependency the container would have to ship.
//
// Hardening contract (every consumer inherits it): nesting is capped at 64
// levels (a hostile document gets a clean rejection, not a stack overflow),
// numbers overflowing binary64 are rejected (an exponent typo must not load
// as infinity), duplicate object keys are rejected (the second value must
// not silently shadow the first), and every failure is a PreconditionError
// carrying ErrorCode::Parse plus the byte offset.  Keys are looked up
// case-sensitively through ObjectReader; unknown keys are errors (a typo
// must not silently fall back to a default).  Lifted out of kits/kit_json
// so the serve front-end parses requests with the same hardened code path.
//
// The tape.  A JsonDocument parses its text in one pass into one vector of
// tagged records in document order: a container's record is followed by
// its children (an object's as key, value, key, value, ...), and every
// record holds the index of the record after its own subtree, so a reader
// steps over a whole value in O(1).  A record holds offsets into the
// document's buffers, never pointers or string_views: a moved or copied
// document (a short std::string moves by copying its bytes) keeps every
// record valid.  Strings are located in the document text; one with an
// escape is decoded once, into a side buffer of the document.  Numbers are
// converted once, with std::from_chars (the nearest binary64, as strtod
// gives; strtod itself runs only on a literal out of binary64 range, to
// tell underflow to zero from overflow).  JsonRef is a handle on one
// record; ObjectReader reads an object's fields off the tape and allocates
// nothing beyond the values it returns (its scope string is built only for
// an error message).
//
// JsonValue is the owning tree of the same document, materialized from the
// tape by parse_json, for callers that walk a whole document generically
// (tests, tools).  There is one tokenizer either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ipass {

enum class JsonType : std::uint8_t { Object, Array, String, Number, Bool };

class JsonDocument;
class JsonElementIterator;
struct JsonMembers;

// One value of a parsed document: a document pointer and a tape index,
// valid while the document lives and is not reassigned.  A
// default-constructed JsonRef is "absent" (ObjectReader::find's miss).
class JsonRef {
 public:
  JsonRef() = default;
  JsonRef(const JsonDocument* doc, std::uint32_t index) : doc_(doc), index_(index) {}

  explicit operator bool() const { return doc_ != nullptr; }

  JsonType type() const;
  double number() const;            // 0 unless a Number
  bool boolean() const;             // false unless a Bool
  std::string_view string() const;  // String, escapes decoded
  std::size_t size() const;         // members of an Object, elements of an Array

  // Array elements in document order: for (const JsonRef e : array).
  JsonElementIterator begin() const;
  JsonElementIterator end() const;
  // Object members in document order:
  // for (const auto& [key, value] : object.members()).
  JsonMembers members() const;

 private:
  const JsonDocument* doc_ = nullptr;
  std::uint32_t index_ = 0;
};

class JsonElementIterator {
 public:
  JsonElementIterator(const JsonDocument* doc, std::uint32_t index)
      : doc_(doc), index_(index) {}
  JsonRef operator*() const { return {doc_, index_}; }
  JsonElementIterator& operator++();
  bool operator!=(const JsonElementIterator& other) const {
    return index_ != other.index_;
  }

 private:
  const JsonDocument* doc_;
  std::uint32_t index_;
};

struct JsonMember {
  std::string_view key;
  JsonRef value;
};

class JsonMemberIterator {
 public:
  JsonMemberIterator(const JsonDocument* doc, std::uint32_t key) : doc_(doc), key_(key) {}
  JsonMember operator*() const;
  JsonMemberIterator& operator++();
  bool operator!=(const JsonMemberIterator& other) const { return key_ != other.key_; }

 private:
  const JsonDocument* doc_;
  std::uint32_t key_;  // tape index of the member's key record
};

struct JsonMembers {
  JsonMemberIterator first, last;
  JsonMemberIterator begin() const { return first; }
  JsonMemberIterator end() const { return last; }
};

// One tape record.  Strings: `offset`/`length` locate the content in the
// text, or in the decoded buffer when `decoded`.  Containers: `length` is
// the member or element count.  Every record: `next` is the index of the
// record after this value's subtree.
struct JsonNode {
  JsonType type = JsonType::Object;
  bool decoded = false;
  bool boolean = false;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  std::uint32_t next = 0;
  double number = 0.0;
};

// One complete JSON document (trailing characters are an error), parsed
// onto its tape.  The document keeps its own copy of the text.
class JsonDocument {
 public:
  JsonDocument() = default;  // parsed nothing; root() must not be called
  // Throws PreconditionError (ErrorCode::Parse) naming the byte offset;
  // `context` prefixes every message, e.g. "kit JSON".
  JsonDocument(std::string text, const char* context);

  JsonRef root() const { return {this, 0}; }

 private:
  friend class JsonRef;
  friend class JsonElementIterator;
  friend class JsonMemberIterator;
  friend class JsonTapeParser;

  const JsonNode& node(std::uint32_t index) const { return tape_[index]; }
  // The content of the String record at `index`.
  std::string_view string_at(std::uint32_t index) const {
    const JsonNode& n = tape_[index];
    return {(n.decoded ? decoded_ : text_).data() + n.offset, n.length};
  }

  std::string text_;
  std::string decoded_;  // the contents of strings that carried an escape
  std::vector<JsonNode> tape_;
};

// The owning tree of a document.
struct JsonValue {
  using Type = JsonType;
  Type type = Type::Object;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0.0;
  bool boolean = false;
};

// Parse one complete JSON document into a tree; the same contract and
// messages as JsonDocument.
JsonValue parse_json(const std::string& text, const char* context);

// Field access with named errors; every consumed key is counted so an
// unknown/extra key in a document is reported instead of ignored.  Errors
// carry ErrorCode::Validation: the document was well-formed JSON but does
// not match the expected shape.  A reader of a nested object links to its
// parent's reader (which must outlive it) to name its scope in messages.
class ObjectReader {
 public:
  // A document's root object: `scope` names it in messages ("kit");
  // `context` prefixes them ("kit JSON").
  ObjectReader(JsonRef v, const char* scope, const char* context);
  // The object field `key` of `parent` (scope "<parent>.<key>"), or with an
  // `index`, element `index` of that array field (scope
  // "<parent>.<key>[<index>]").
  ObjectReader(JsonRef v, const ObjectReader& parent, const char* key,
               std::size_t index = kNoIndex);

  JsonRef get(const char* key, JsonType type);

  double num(const char* key) { return get(key, JsonType::Number).number(); }
  std::string str(const char* key) {
    return std::string(get(key, JsonType::String).string());
  }
  bool boolean(const char* key) { return get(key, JsonType::Bool).boolean(); }
  // The object field `key`, as a reader of its own.
  ObjectReader obj(const char* key) { return {get(key, JsonType::Object), *this, key}; }
  JsonRef arr(const char* key) { return get(key, JsonType::Array); }

  // Optional fields (the serve request envelope uses them; kit documents
  // are mostly required).  Returns an absent JsonRef / the fallback when
  // the key is missing.
  JsonRef find(const char* key, JsonType type);
  double num_or(const char* key, double fallback);
  std::string str_or(const char* key, const std::string& fallback);
  bool bool_or(const char* key, bool fallback);

  // Call after reading every expected field; a document with extra keys is
  // rejected (a typo must not silently fall back to a default).
  void done() const;

  // "kit.variants[0].production": built on demand, for messages.
  std::string scope() const;

 private:
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  JsonRef value_;
  const ObjectReader* parent_ = nullptr;
  const char* name_;   // the root scope, or the field name in the parent
  std::size_t index_ = kNoIndex;
  const char* context_;
  std::size_t consumed_ = 0;
  JsonMemberIterator cursor_;  // member the next lookup starts at
};

}  // namespace ipass
