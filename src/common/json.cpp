#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/strfmt.hpp"

namespace ipass {

class JsonTapeParser {
 public:
  JsonTapeParser(JsonDocument& doc, const char* context)
      : doc_(doc),
        data_(doc.text_.data()),
        size_(doc.text_.size()),
        decoded_(doc.decoded_),
        tape_(doc.tape_),
        context_(context) {}

  void parse_document() {
    // Records hold 32-bit offsets; the serve frame cap is far below this.
    fail_unless(size_ < std::numeric_limits<std::uint32_t>::max(), "document too large");
    parse_value();
    skip_ws();
    fail_unless(pos_ == size_, "trailing characters after document");
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw PreconditionError(strf("%s: %s at offset %zu", context_, what, pos_),
                            ErrorCode::Parse);
  }
  void fail_unless(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

  void skip_ws() {
    const char* p = data_ + pos_;
    const char* const end = data_ + size_;
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
    pos_ = static_cast<std::size_t>(p - data_);
  }

  char peek() {
    fail_unless(pos_ < size_, "unexpected end of document");
    return data_[pos_];
  }

  void expect(char c, const char* what) {
    fail_unless(pos_ < size_ && data_[pos_] == c, what);
    ++pos_;
  }

  // Appends a record whose subtree is itself alone (containers extend
  // `next` when they close).
  JsonNode& push(JsonType type) {
    JsonNode& node = tape_.emplace_back();
    node.type = type;
    node.next = static_cast<std::uint32_t>(tape_.size());
    return node;
  }

  void parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Documents nest ~5 levels; a corrupt or hostile file must get a
      // clean rejection, not a stack overflow from unbounded recursion.
      fail_unless(depth_ < 64, "document nested too deeply");
      ++depth_;
      if (c == '{') {
        parse_object();
      } else {
        parse_array();
      }
      --depth_;
      return;
    }
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  void parse_object() {
    const auto self = static_cast<std::uint32_t>(tape_.size());
    push(JsonType::Object);
    expect('{', "expected '{'");
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    std::uint32_t count = 0;
    while (true) {
      skip_ws();
      const auto key = static_cast<std::uint32_t>(tape_.size());
      parse_string();
      // The second value for a repeated key must not silently shadow the
      // first (nor survive as an "extra field" a reader might miscount).
      const std::string_view name = doc_.string_at(key);
      for (std::uint32_t k = self + 1; k < key; k = tape_[k + 1].next) {
        fail_unless(doc_.string_at(k) != name, "duplicate object key");
      }
      skip_ws();
      expect(':', "expected ':' after object key");
      parse_value();
      ++count;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}', "expected ',' or '}' in object");
      close(self, count);
      return;
    }
  }

  void parse_array() {
    const auto self = static_cast<std::uint32_t>(tape_.size());
    push(JsonType::Array);
    expect('[', "expected '['");
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    std::uint32_t count = 0;
    while (true) {
      parse_value();
      ++count;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']', "expected ',' or ']' in array");
      close(self, count);
      return;
    }
  }

  void close(std::uint32_t container, std::uint32_t count) {
    tape_[container].length = count;
    tape_[container].next = static_cast<std::uint32_t>(tape_.size());
  }

  void parse_string() {
    expect('"', "expected '\"'");
    const std::size_t start = pos_;
    // A string without escapes stays in the text: find its end in one scan.
    const char* p = data_ + pos_;
    const char* const end = data_ + size_;
    while (p < end && *p != '"' && *p != '\\') ++p;
    pos_ = static_cast<std::size_t>(p - data_);
    if (p < end && *p == '"') {
      ++pos_;
      JsonNode& node = push(JsonType::String);
      node.offset = static_cast<std::uint32_t>(start);
      node.length = static_cast<std::uint32_t>(pos_ - 1 - start);
      return;
    }
    // At the first escape (or the end): what was read so far moves into the
    // decoded buffer, and the rest of the string follows it there.
    const std::size_t out_start = decoded_.size();
    decoded_.append(data_ + start, pos_ - start);
    while (true) {
      fail_unless(pos_ < size_, "unterminated string");
      const char c = data_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        decoded_ += c;
        continue;
      }
      fail_unless(pos_ < size_, "unterminated escape");
      const char e = data_[pos_++];
      switch (e) {
        case '"': decoded_ += '"'; break;
        case '\\': decoded_ += '\\'; break;
        case '/': decoded_ += '/'; break;
        case 'n': decoded_ += '\n'; break;
        case 't': decoded_ += '\t'; break;
        case 'r': decoded_ += '\r'; break;
        case 'u': {
          fail_unless(pos_ + 4 <= size_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = data_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // Names are ASCII; anything else would round-trip through the
          // escaped form anyway.
          fail_unless(code < 0x80, "non-ASCII \\u escape not supported");
          decoded_ += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
    JsonNode& node = push(JsonType::String);
    node.decoded = true;
    node.offset = static_cast<std::uint32_t>(out_start);
    node.length = static_cast<std::uint32_t>(decoded_.size() - out_start);
  }

  void parse_bool() {
    const std::string_view rest(data_ + pos_, size_ - pos_);
    bool value = false;
    if (rest.substr(0, 4) == "true") {
      value = true;
      pos_ += 4;
    } else if (rest.substr(0, 5) == "false") {
      pos_ += 5;
    } else {
      fail("expected 'true' or 'false'");
    }
    push(JsonType::Bool).boolean = value;
  }

  void parse_number() {
    const char* const first = data_ + pos_;
    const char* const limit = data_ + size_;
    const char* last = first;
    while (last < limit && ((*last >= '0' && *last <= '9') || *last == '-' || *last == '+' ||
                          *last == '.' || *last == 'e' || *last == 'E')) {
      ++last;
    }
    pos_ = static_cast<std::size_t>(last - data_);
    fail_unless(last > first, "expected a number");
    // The nearest binary64 to the decimal, as strtod gives: it inverts the
    // writers' %.17g exactly.
    double value = 0.0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range) {
      // from_chars leaves `value` unset on underflow and overflow alike;
      // strtod gives the signed zero or infinity the check below sorts out.
      value = std::strtod(std::string(first, end).c_str(), nullptr);
    }
    fail_unless(ec != std::errc::invalid_argument && end == last, "malformed number");
    // An overflowing literal (e.g. an exponent typo like 1e999) comes back
    // as infinity; the writers never emit one, so reject it here instead
    // of letting inf corrupt fields downstream validation does not
    // range-check.
    fail_unless(std::isfinite(value), "number out of binary64 range");
    push(JsonType::Number).number = value;
  }

  const JsonDocument& doc_;
  const char* const data_;  // the document text
  const std::size_t size_;
  std::string& decoded_;
  std::vector<JsonNode>& tape_;
  const char* context_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

JsonDocument::JsonDocument(std::string text, const char* context)
    : text_(std::move(text)) {
  // A record per ~12 bytes of a pretty-printed kit document; growing past
  // the reserve only reallocates.
  tape_.reserve(text_.size() / 12 + 4);
  JsonTapeParser(*this, context).parse_document();
}

JsonType JsonRef::type() const { return doc_->node(index_).type; }

double JsonRef::number() const { return doc_->node(index_).number; }

bool JsonRef::boolean() const { return doc_->node(index_).boolean; }

std::string_view JsonRef::string() const {
  return type() == JsonType::String ? doc_->string_at(index_) : std::string_view();
}

std::size_t JsonRef::size() const {
  const JsonNode& n = doc_->node(index_);
  return n.type == JsonType::Object || n.type == JsonType::Array ? n.length : 0;
}

JsonElementIterator JsonRef::begin() const { return {doc_, index_ + 1}; }

JsonElementIterator JsonRef::end() const { return {doc_, doc_->node(index_).next}; }

JsonMembers JsonRef::members() const {
  return {JsonMemberIterator(doc_, index_ + 1),
          JsonMemberIterator(doc_, doc_->node(index_).next)};
}

JsonElementIterator& JsonElementIterator::operator++() {
  index_ = doc_->node(index_).next;
  return *this;
}

JsonMember JsonMemberIterator::operator*() const {
  return {doc_->string_at(key_), JsonRef(doc_, key_ + 1)};
}

JsonMemberIterator& JsonMemberIterator::operator++() {
  key_ = doc_->node(key_ + 1).next;
  return *this;
}

namespace {

JsonValue to_value(JsonRef v) {
  JsonValue out;
  out.type = v.type();
  switch (out.type) {
    case JsonType::Object:
      out.object.reserve(v.size());
      for (const auto& [key, value] : v.members()) {
        out.object.emplace_back(std::string(key), to_value(value));
      }
      break;
    case JsonType::Array:
      out.array.reserve(v.size());
      for (const JsonRef element : v) out.array.push_back(to_value(element));
      break;
    case JsonType::String: out.string = v.string(); break;
    case JsonType::Number: out.number = v.number(); break;
    case JsonType::Bool: out.boolean = v.boolean(); break;
  }
  return out;
}

}  // namespace

JsonValue parse_json(const std::string& text, const char* context) {
  const JsonDocument doc(text, context);
  return to_value(doc.root());
}

// ----------------------------------------------------------- ObjectReader

ObjectReader::ObjectReader(JsonRef v, const char* scope, const char* context)
    : value_(v), name_(scope), context_(context), cursor_(v.members().begin()) {
  if (v.type() != JsonType::Object) {
    throw PreconditionError(strf("%s: %s must be an object", context_, scope));
  }
}

ObjectReader::ObjectReader(JsonRef v, const ObjectReader& parent, const char* key,
                           std::size_t index)
    : value_(v),
      parent_(&parent),
      name_(key),
      index_(index),
      context_(parent.context_),
      cursor_(v.members().begin()) {
  if (v.type() != JsonType::Object) {
    throw PreconditionError(
        strf("%s: %s must be an object", context_, scope().c_str()));
  }
}

std::string ObjectReader::scope() const {
  std::string out = parent_ != nullptr ? parent_->scope() + "." + name_ : name_;
  if (index_ != kNoIndex) out += strf("[%zu]", index_);
  return out;
}

JsonRef ObjectReader::get(const char* key, JsonType type) {
  const JsonRef v = find(key, type);
  if (!v) {
    throw PreconditionError(
        strf("%s: %s is missing field '%s'", context_, scope().c_str(), key),
        ErrorCode::Validation);
  }
  return v;
}

JsonRef ObjectReader::find(const char* key, JsonType type) {
  // Readers mostly ask for fields in document order, so the search starts
  // after the previous hit and wraps around once.
  const std::string_view want(key);
  const JsonMembers members = value_.members();
  JsonRef found;
  const auto scan = [&](JsonMemberIterator it, JsonMemberIterator last) {
    for (; it != last; ++it) {
      if ((*it).key != want) continue;
      found = (*it).value;
      cursor_ = ++it;
      return true;
    }
    return false;
  };
  if (!scan(cursor_, members.end()) && !scan(members.begin(), cursor_)) return {};
  if (found.type() != type) {
    throw PreconditionError(
        strf("%s: %s.%s has the wrong type", context_, scope().c_str(), key),
        ErrorCode::Validation);
  }
  ++consumed_;
  return found;
}

double ObjectReader::num_or(const char* key, double fallback) {
  const JsonRef v = find(key, JsonType::Number);
  return v ? v.number() : fallback;
}

std::string ObjectReader::str_or(const char* key, const std::string& fallback) {
  const JsonRef v = find(key, JsonType::String);
  return v ? std::string(v.string()) : fallback;
}

bool ObjectReader::bool_or(const char* key, bool fallback) {
  const JsonRef v = find(key, JsonType::Bool);
  return v ? v.boolean() : fallback;
}

void ObjectReader::done() const {
  if (consumed_ != value_.size()) {
    throw PreconditionError(
        strf("%s: %s has %zu unknown extra field(s)", context_, scope().c_str(),
             value_.size() - consumed_),
        ErrorCode::Validation);
  }
}

}  // namespace ipass
